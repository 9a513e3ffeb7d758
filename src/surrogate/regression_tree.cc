#include "surrogate/regression_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/logging.h"

namespace dbtune {

RegressionTree::RegressionTree(RegressionTreeOptions options)
    : options_(options), rng_(options.seed) {}

Status RegressionTree::Fit(const FeatureMatrix& x,
                           const std::vector<double>& y) {
  DBTUNE_RETURN_IF_ERROR(ValidateTrainingData(x, y));
  num_features_ = x.front().size();
  nodes_.clear();
  split_counts_.assign(num_features_, 0);

  std::vector<size_t> indices(x.size());
  std::iota(indices.begin(), indices.end(), size_t{0});
  Build(x, y, indices, 0, indices.size(), 0);
  return Status::OK();
}

namespace {

// Sum and sum-of-squares over a sample range.
struct Moments {
  double sum = 0.0;
  double sum_sq = 0.0;
  size_t n = 0;

  void Add(double v) {
    sum += v;
    sum_sq += v * v;
    ++n;
  }
  double Mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
  // Sum of squared deviations (n * variance).
  double Sse() const {
    if (n == 0) return 0.0;
    return sum_sq - sum * sum / static_cast<double>(n);
  }
};

}  // namespace

int RegressionTree::Build(const FeatureMatrix& x, const std::vector<double>& y,
                          std::vector<size_t>& indices, size_t begin,
                          size_t end, size_t depth) {
  const size_t n = end - begin;
  Moments total;
  for (size_t i = begin; i < end; ++i) total.Add(y[indices[i]]);

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[node_index].value = total.Mean();

  const bool can_split = n >= options_.min_samples_split &&
                         depth < options_.max_depth && total.Sse() > 1e-12;
  if (!can_split) return node_index;

  // Pick the candidate features for this split.
  size_t tries = options_.max_features == 0
                     ? num_features_
                     : std::min(options_.max_features, num_features_);
  std::vector<size_t> features;
  if (tries == num_features_) {
    features.resize(num_features_);
    std::iota(features.begin(), features.end(), size_t{0});
  } else {
    features = rng_.SampleWithoutReplacement(num_features_, tries);
  }

  double best_gain = 0.0;
  int best_feature = -1;
  double best_threshold = 0.0;

  // Reusable buffer of (feature value, target) for sorting.
  std::vector<std::pair<double, double>> column(n);
  for (size_t f : features) {
    for (size_t i = 0; i < n; ++i) {
      const size_t sample = indices[begin + i];
      column[i] = {x[sample][f], y[sample]};
    }
    std::sort(column.begin(), column.end());
    if (column.front().first == column.back().first) continue;

    Moments left;
    Moments right = total;
    // Scan split positions between distinct feature values.
    for (size_t i = 0; i + 1 < n; ++i) {
      left.Add(column[i].second);
      right.sum -= column[i].second;
      right.sum_sq -= column[i].second * column[i].second;
      --right.n;
      if (column[i].first == column[i + 1].first) continue;
      if (left.n < options_.min_samples_leaf ||
          right.n < options_.min_samples_leaf) {
        continue;
      }
      const double gain = total.Sse() - left.Sse() - right.Sse();
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (column[i].first + column[i + 1].first);
      }
    }
  }

  if (best_feature < 0) return node_index;

  // Partition indices around the threshold.
  const auto mid_iter = std::partition(
      indices.begin() + static_cast<long>(begin),
      indices.begin() + static_cast<long>(end), [&](size_t sample) {
        return x[sample][static_cast<size_t>(best_feature)] <= best_threshold;
      });
  const size_t mid = static_cast<size_t>(mid_iter - indices.begin());
  if (mid == begin || mid == end) return node_index;  // degenerate split

  ++split_counts_[static_cast<size_t>(best_feature)];

  nodes_[node_index].feature = best_feature;
  nodes_[node_index].threshold = best_threshold;
  const int left_child = Build(x, y, indices, begin, mid, depth + 1);
  nodes_[node_index].left = left_child;
  const int right_child = Build(x, y, indices, mid, end, depth + 1);
  nodes_[node_index].right = right_child;
  return node_index;
}

double RegressionTree::Predict(const std::vector<double>& x) const {
  DBTUNE_CHECK_MSG(fitted(), "Predict before Fit");
  DBTUNE_CHECK(x.size() == num_features_);
  int node = 0;
  while (nodes_[node].feature >= 0) {
    const Node& n = nodes_[node];
    node = x[static_cast<size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return nodes_[node].value;
}

void RegressionTree::CollectBoxes(int node, std::vector<double>& lower,
                                  std::vector<double>& upper,
                                  std::vector<LeafBox>* out) const {
  const Node& n = nodes_[node];
  if (n.feature < 0) {
    LeafBox box;
    box.lower = lower;
    box.upper = upper;
    box.value = n.value;
    box.volume = 1.0;
    for (size_t d = 0; d < lower.size(); ++d) {
      box.volume *= std::max(0.0, upper[d] - lower[d]);
    }
    out->push_back(std::move(box));
    return;
  }
  const size_t f = static_cast<size_t>(n.feature);
  const double saved_upper = upper[f];
  const double saved_lower = lower[f];
  upper[f] = std::min(saved_upper, n.threshold);
  CollectBoxes(n.left, lower, upper, out);
  upper[f] = saved_upper;
  lower[f] = std::max(saved_lower, n.threshold);
  CollectBoxes(n.right, lower, upper, out);
  lower[f] = saved_lower;
}

std::vector<RegressionTree::LeafBox> RegressionTree::LeafBoxes() const {
  DBTUNE_CHECK_MSG(fitted(), "LeafBoxes before Fit");
  std::vector<LeafBox> out;
  std::vector<double> lower(num_features_, 0.0);
  std::vector<double> upper(num_features_, 1.0);
  CollectBoxes(0, lower, upper, &out);
  return out;
}

}  // namespace dbtune
