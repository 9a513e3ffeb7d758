#ifndef DBTUNE_SURROGATE_REGRESSION_TREE_H_
#define DBTUNE_SURROGATE_REGRESSION_TREE_H_

#include <cstdint>
#include <vector>

#include "surrogate/regressor.h"
#include "util/random.h"

namespace dbtune {

/// Hyper-parameters of a CART regression tree.
struct RegressionTreeOptions {
  size_t max_depth = 18;
  size_t min_samples_split = 4;
  size_t min_samples_leaf = 2;
  /// Number of features tried per split; 0 means all features.
  size_t max_features = 0;
  uint64_t seed = 17;
};

/// CART regression tree with variance-reduction splits. Building block of
/// the random forest and gradient boosting; also exposes the structure
/// needed by fANOVA (leaf partition boxes) and the Gini importance (split
/// counts).
class RegressionTree final : public Regressor {
 public:
  /// An axis-aligned box a leaf covers, with the leaf's prediction.
  /// Bounds default to [0,1] per dimension (unit-encoded inputs).
  struct LeafBox {
    std::vector<double> lower;
    std::vector<double> upper;
    double value = 0.0;
    /// Fraction of unit-cube volume covered (product of side lengths).
    double volume = 1.0;
  };

  explicit RegressionTree(RegressionTreeOptions options = {});

  Status Fit(const FeatureMatrix& x, const std::vector<double>& y) override;
  double Predict(const std::vector<double>& x) const override;
  std::string name() const override { return "Tree"; }

  /// Number of times each feature was used in a split.
  const std::vector<size_t>& split_counts() const { return split_counts_; }

  /// Leaf partition boxes over the unit cube (for fANOVA). Input features
  /// are assumed to lie in [0,1].
  std::vector<LeafBox> LeafBoxes() const;

  size_t num_nodes() const { return nodes_.size(); }
  bool fitted() const { return !nodes_.empty(); }

 private:
  struct Node {
    int feature = -1;          // -1 for leaves
    double threshold = 0.0;    // goes left when x[feature] <= threshold
    int left = -1;
    int right = -1;
    double value = 0.0;        // mean of samples (leaves)
  };

  // Recursively grows the tree over `indices` (sample ids); returns the
  // node index.
  int Build(const FeatureMatrix& x, const std::vector<double>& y,
            std::vector<size_t>& indices, size_t begin, size_t end,
            size_t depth);

  void CollectBoxes(int node, std::vector<double>& lower,
                    std::vector<double>& upper,
                    std::vector<LeafBox>* out) const;

  RegressionTreeOptions options_;
  size_t num_features_ = 0;
  std::vector<Node> nodes_;
  std::vector<size_t> split_counts_;
  Rng rng_;
};

}  // namespace dbtune

#endif  // DBTUNE_SURROGATE_REGRESSION_TREE_H_
