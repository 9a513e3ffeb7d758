#include "surrogate/kernels.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace dbtune {

namespace {

// Pairs whose sums run side by side in ComputeBlock.
constexpr size_t kLanes = 8;

// How a kernel compares a dimension: by squared difference (continuous)
// or by "differs by more than 1e-9" (categorical).
enum class Dims { kContinuous, kCategorical, kMixed };

// Evaluates the W pairs (a, bs[w]) into out[w], one accumulator per
// pair, dimension by dimension: each pair's sums are exactly the one-pair
// loop's chains, and the W chains overlap. The sums are the squared
// differences over the continuous dimensions (ascending) and the number
// of differing categorical ones; value(squared, differing) turns them
// into the kernel value. A mixed kernel tests a dimension's type once for
// all W pairs.
template <size_t W, Dims kDims, typename Value>
void LaneGroup(const std::vector<double>& a, const std::vector<double>* bs,
               const std::vector<bool>* categorical, const Value& value,
               double* out) {
  const double* b[W];
  for (size_t w = 0; w < W; ++w) {
    DBTUNE_CHECK(bs[w].size() == a.size());
    b[w] = bs[w].data();
  }
  double squared[W] = {};
  size_t differing[W] = {};
  for (size_t t = 0; t < a.size(); ++t) {
    const double at = a[t];
    if (kDims == Dims::kCategorical ||
        (kDims == Dims::kMixed && (*categorical)[t])) {
      for (size_t w = 0; w < W; ++w) {
        if (std::abs(at - b[w][t]) > 1e-9) ++differing[w];
      }
    } else {
      for (size_t w = 0; w < W; ++w) {
        const double d = at - b[w][t];
        squared[w] += d * d;
      }
    }
  }
  for (size_t w = 0; w < W; ++w) out[w] = value(squared[w], differing[w]);
}

// The pairs (a, bs[r]) for r < m: kLanes at a time, the rest one by one.
template <Dims kDims, typename Value>
void EvaluateBlock(const std::vector<double>& a, const std::vector<double>* bs,
                   size_t m, const std::vector<bool>* categorical,
                   const Value& value, double* out) {
  size_t r = 0;
  for (; r + kLanes <= m; r += kLanes) {
    LaneGroup<kLanes, kDims>(a, bs + r, categorical, value, out + r);
  }
  for (; r < m; ++r) {
    LaneGroup<1, kDims>(a, bs + r, categorical, value, out + r);
  }
}

double Matern52(double mean_squared, double lengthscale) {
  const double r = std::sqrt(mean_squared) / lengthscale;
  const double sqrt5_r = std::sqrt(5.0) * r;
  return (1.0 + sqrt5_r + 5.0 * r * r / 3.0) * std::exp(-sqrt5_r);
}

double Hamming(size_t differing, size_t dims, double lengthscale) {
  const double h = static_cast<double>(differing) / static_cast<double>(dims);
  return std::exp(-h / lengthscale);
}

}  // namespace

void Kernel::ComputeBlock(const std::vector<double>& a,
                          const std::vector<double>* bs, size_t m,
                          double lengthscale, double* out) const {
  for (size_t r = 0; r < m; ++r) out[r] = Compute(a, bs[r], lengthscale);
}

// Each kernel's Compute is its one-pair block.

double RbfKernel::Compute(const std::vector<double>& a,
                          const std::vector<double>& b,
                          double lengthscale) const {
  double k = 0.0;
  RbfKernel::ComputeBlock(a, &b, 1, lengthscale, &k);
  return k;
}

void RbfKernel::ComputeBlock(const std::vector<double>& a,
                             const std::vector<double>* bs, size_t m,
                             double lengthscale, double* out) const {
  DBTUNE_CHECK(!a.empty());
  const double dims = static_cast<double>(a.size());
  const double ls2 = lengthscale * lengthscale;
  EvaluateBlock<Dims::kContinuous>(
      a, bs, m, nullptr,
      [&](double squared, size_t) {
        const double r2 = squared / dims / ls2;
        return std::exp(-0.5 * r2);
      },
      out);
}

double Matern52Kernel::Compute(const std::vector<double>& a,
                               const std::vector<double>& b,
                               double lengthscale) const {
  double k = 0.0;
  Matern52Kernel::ComputeBlock(a, &b, 1, lengthscale, &k);
  return k;
}

void Matern52Kernel::ComputeBlock(const std::vector<double>& a,
                                  const std::vector<double>* bs, size_t m,
                                  double lengthscale, double* out) const {
  DBTUNE_CHECK(!a.empty());
  const double dims = static_cast<double>(a.size());
  EvaluateBlock<Dims::kContinuous>(
      a, bs, m, nullptr,
      [&](double squared, size_t) {
        return Matern52(squared / dims, lengthscale);
      },
      out);
}

double HammingKernel::Compute(const std::vector<double>& a,
                              const std::vector<double>& b,
                              double lengthscale) const {
  double k = 0.0;
  HammingKernel::ComputeBlock(a, &b, 1, lengthscale, &k);
  return k;
}

void HammingKernel::ComputeBlock(const std::vector<double>& a,
                                 const std::vector<double>* bs, size_t m,
                                 double lengthscale, double* out) const {
  DBTUNE_CHECK(!a.empty());
  EvaluateBlock<Dims::kCategorical>(
      a, bs, m, nullptr,
      [&](double, size_t differing) {
        return Hamming(differing, a.size(), lengthscale);
      },
      out);
}

MixedKernel::MixedKernel(std::vector<bool> is_categorical)
    : is_categorical_(std::move(is_categorical)),
      num_categorical_(static_cast<size_t>(std::count(
          is_categorical_.begin(), is_categorical_.end(), true))) {}

double MixedKernel::Compute(const std::vector<double>& a,
                            const std::vector<double>& b,
                            double lengthscale) const {
  double k = 0.0;
  MixedKernel::ComputeBlock(a, &b, 1, lengthscale, &k);
  return k;
}

void MixedKernel::ComputeBlock(const std::vector<double>& a,
                               const std::vector<double>* bs, size_t m,
                               double lengthscale, double* out) const {
  DBTUNE_CHECK(a.size() == is_categorical_.size());
  const size_t cont_n = a.size() - num_categorical_;
  const size_t cat_n = num_categorical_;
  // Matérn-5/2 over the continuous dimensions times Hamming over the
  // categorical ones; an empty side contributes 1.
  EvaluateBlock<Dims::kMixed>(
      a, bs, m, &is_categorical_,
      [&](double squared, size_t differing) {
        double k = 1.0;
        if (cont_n > 0) {
          k *= Matern52(squared / static_cast<double>(cont_n), lengthscale);
        }
        if (cat_n > 0) k *= Hamming(differing, cat_n, lengthscale);
        return k;
      },
      out);
}

}  // namespace dbtune
