#include "surrogate/kernels.h"

#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "util/random.h"

namespace dbtune {
namespace {

// The one-pair loops the kernels were written as, kept as the bitwise
// reference for Compute and ComputeBlock.
double ReferenceMeanSquaredDiff(const std::vector<double>& a,
                                const std::vector<double>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s / static_cast<double>(a.size());
}

double ReferenceMatern(double mean_squared, double lengthscale) {
  const double r = std::sqrt(mean_squared) / lengthscale;
  const double sqrt5_r = std::sqrt(5.0) * r;
  return (1.0 + sqrt5_r + 5.0 * r * r / 3.0) * std::exp(-sqrt5_r);
}

double ReferenceKernel(const std::string& name,
                       const std::vector<bool>& is_categorical,
                       const std::vector<double>& a,
                       const std::vector<double>& b, double lengthscale) {
  if (name == "RBF") {
    const double r2 =
        ReferenceMeanSquaredDiff(a, b) / (lengthscale * lengthscale);
    return std::exp(-0.5 * r2);
  }
  if (name == "Matern52") {
    return ReferenceMatern(ReferenceMeanSquaredDiff(a, b), lengthscale);
  }
  if (name == "Hamming") {
    size_t differing = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      if (std::abs(a[i] - b[i]) > 1e-9) ++differing;
    }
    const double h =
        static_cast<double>(differing) / static_cast<double>(a.size());
    return std::exp(-h / lengthscale);
  }
  double cont_r2 = 0.0;
  size_t cont_n = 0, cat_diff = 0, cat_n = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (is_categorical[i]) {
      ++cat_n;
      if (std::abs(a[i] - b[i]) > 1e-9) ++cat_diff;
    } else {
      const double d = a[i] - b[i];
      cont_r2 += d * d;
      ++cont_n;
    }
  }
  double k = 1.0;
  if (cont_n > 0) {
    k *= ReferenceMatern(cont_r2 / static_cast<double>(cont_n), lengthscale);
  }
  if (cat_n > 0) {
    const double h = static_cast<double>(cat_diff) / static_cast<double>(cat_n);
    k *= std::exp(-h / lengthscale);
  }
  return k;
}

// Every third dimension categorical, so a block sees both kinds.
std::vector<bool> ThirdsCategorical(size_t d) {
  std::vector<bool> mask(d);
  for (size_t t = 0; t < d; ++t) mask[t] = t % 3 == 0;
  return mask;
}

std::vector<std::unique_ptr<Kernel>> AllKernels(size_t d) {
  std::vector<std::unique_ptr<Kernel>> kernels;
  kernels.push_back(std::make_unique<RbfKernel>());
  kernels.push_back(std::make_unique<Matern52Kernel>());
  kernels.push_back(std::make_unique<HammingKernel>());
  kernels.push_back(std::make_unique<MixedKernel>(ThirdsCategorical(d)));
  return kernels;
}

// `a` plus m points that copy each of a's entries with probability 1/2
// (so categorical dimensions both match and differ) and otherwise draw
// from a 5-level grid or the unit interval.
struct PairSet {
  std::vector<double> a;
  std::vector<std::vector<double>> bs;
};

PairSet RandomPairs(size_t d, size_t m, uint64_t seed) {
  Rng rng(seed);
  const auto draw = [&] {
    return rng.Bernoulli(0.5) ? 0.25 * static_cast<double>(rng.UniformInt(0, 4))
                              : rng.Uniform();
  };
  PairSet set;
  set.a.resize(d);
  for (double& v : set.a) v = draw();
  set.bs.assign(m, std::vector<double>(d));
  for (auto& b : set.bs) {
    for (size_t t = 0; t < d; ++t) {
      b[t] = rng.Bernoulli(0.5) ? set.a[t] : draw();
    }
  }
  return set;
}

TEST(KernelBlockTest, ComputeBlockEqualsComputeBitwise) {
  for (size_t d : {1u, 20u, 197u}) {
    for (size_t m : {1u, 7u, 8u, 9u, 300u}) {
      const PairSet pairs = RandomPairs(d, m, 1000 * d + m);
      for (const auto& kernel : AllKernels(d)) {
        for (double ls : {0.1, 0.37, 1.6}) {
          std::vector<double> out(m, -1.0);
          kernel->ComputeBlock(pairs.a, pairs.bs.data(), m, ls, out.data());
          for (size_t r = 0; r < m; ++r) {
            ASSERT_EQ(out[r], kernel->Compute(pairs.a, pairs.bs[r], ls))
                << kernel->name() << " d=" << d << " m=" << m << " r=" << r;
          }
        }
      }
    }
  }
}

TEST(KernelBlockTest, ComputeMatchesTheScalarFormulasBitwise) {
  for (size_t d : {1u, 20u, 197u}) {
    const PairSet pairs = RandomPairs(d, 40, 7 + d);
    for (const auto& kernel : AllKernels(d)) {
      for (const auto& b : pairs.bs) {
        ASSERT_EQ(kernel->Compute(pairs.a, b, 0.37),
                  ReferenceKernel(kernel->name(), ThirdsCategorical(d),
                                  pairs.a, b, 0.37))
            << kernel->name() << " d=" << d;
      }
    }
  }
}

// The GP orders a pair either way (the incremental border and the scalar
// predict put the new point first); the Gram matrix needs them equal.
TEST(KernelBlockTest, ComputeIsSymmetricBitwise) {
  const PairSet pairs = RandomPairs(20, 40, 99);
  for (const auto& kernel : AllKernels(20)) {
    for (const auto& b : pairs.bs) {
      ASSERT_EQ(kernel->Compute(pairs.a, b), kernel->Compute(b, pairs.a))
          << kernel->name();
    }
  }
}

// A kernel that defines only Compute gets a ComputeBlock looping over it.
class ConstantKernel final : public Kernel {
 public:
  using Kernel::Compute;
  double Compute(const std::vector<double>& a, const std::vector<double>&,
                 double lengthscale) const override {
    return a[0] + lengthscale;
  }
  std::string name() const override { return "Constant"; }
};

TEST(KernelBlockTest, DefaultComputeBlockLoopsOverCompute) {
  ConstantKernel kernel;
  const std::vector<std::vector<double>> bs(3, std::vector<double>{0.0});
  std::vector<double> out(3, 0.0);
  kernel.ComputeBlock({2.0}, bs.data(), bs.size(), 0.5, out.data());
  EXPECT_EQ(out, std::vector<double>(3, 2.5));
}

TEST(RbfKernelTest, IdentityAndSymmetry) {
  RbfKernel k;
  const std::vector<double> a = {0.1, 0.5};
  const std::vector<double> b = {0.9, 0.2};
  EXPECT_DOUBLE_EQ(k.Compute(a, a), 1.0);
  EXPECT_DOUBLE_EQ(k.Compute(a, b), k.Compute(b, a));
  EXPECT_GT(k.Compute(a, b), 0.0);
  EXPECT_LT(k.Compute(a, b), 1.0);
}

TEST(RbfKernelTest, DecaysWithDistance) {
  RbfKernel k;
  const std::vector<double> origin = {0.0};
  EXPECT_GT(k.Compute(origin, {0.1}), k.Compute(origin, {0.5}));
  EXPECT_GT(k.Compute(origin, {0.5}), k.Compute(origin, {1.0}));
}

TEST(RbfKernelTest, LengthscaleControlsDecay) {
  RbfKernel wide, narrow;
  wide.set_lengthscale(2.0);
  narrow.set_lengthscale(0.1);
  const std::vector<double> a = {0.0}, b = {0.5};
  EXPECT_GT(wide.Compute(a, b), narrow.Compute(a, b));
}

TEST(Matern52KernelTest, BasicProperties) {
  Matern52Kernel k;
  const std::vector<double> a = {0.3, 0.3};
  const std::vector<double> b = {0.6, 0.1};
  EXPECT_NEAR(k.Compute(a, a), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(k.Compute(a, b), k.Compute(b, a));
  EXPECT_GT(k.Compute(a, b), 0.0);
  EXPECT_LT(k.Compute(a, b), 1.0);
}

TEST(Matern52KernelTest, HeavierTailsThanRbf) {
  // Matern-5/2 has heavier tails than RBF: at several lengthscales of
  // distance it keeps more correlation.
  RbfKernel rbf;
  Matern52Kernel matern;
  rbf.set_lengthscale(0.25);
  matern.set_lengthscale(0.25);
  const std::vector<double> a = {0.0}, b = {0.9};  // 3.6 lengthscales away
  EXPECT_GT(matern.Compute(a, b), rbf.Compute(a, b));
}

TEST(HammingKernelTest, CountsDifferingEntries) {
  HammingKernel k;
  k.set_lengthscale(1.0);
  const std::vector<double> a = {0.1, 0.5, 0.9};
  EXPECT_DOUBLE_EQ(k.Compute(a, a), 1.0);
  const std::vector<double> one_diff = {0.1, 0.5, 0.2};
  const std::vector<double> two_diff = {0.3, 0.5, 0.2};
  EXPECT_GT(k.Compute(a, one_diff), k.Compute(a, two_diff));
  EXPECT_NEAR(k.Compute(a, one_diff), std::exp(-1.0 / 3.0), 1e-12);
}

TEST(HammingKernelTest, MagnitudeOfDifferenceIrrelevant) {
  // Unlike RBF, Hamming only asks "same or different" — the categorical
  // semantics.
  HammingKernel k;
  const std::vector<double> a = {0.1};
  EXPECT_DOUBLE_EQ(k.Compute(a, {0.2}), k.Compute(a, {0.9}));
}

TEST(MixedKernelTest, SplitsDimensionsByType) {
  MixedKernel k({false, true});
  k.set_lengthscale(0.5);
  const std::vector<double> a = {0.2, 0.1};
  // Same category, close continuous: high.
  EXPECT_GT(k.Compute(a, {0.25, 0.1}), 0.9);
  // Different category hits the Hamming factor hard.
  EXPECT_LT(k.Compute(a, {0.25, 0.9}), k.Compute(a, {0.25, 0.1}));
  // Continuous distance also matters.
  EXPECT_LT(k.Compute(a, {0.9, 0.1}), k.Compute(a, {0.25, 0.1}));
}

TEST(MixedKernelTest, AllContinuousMatchesMatern) {
  MixedKernel mixed({false, false});
  Matern52Kernel matern;
  mixed.set_lengthscale(0.4);
  matern.set_lengthscale(0.4);
  const std::vector<double> a = {0.3, 0.8}, b = {0.5, 0.1};
  EXPECT_NEAR(mixed.Compute(a, b), matern.Compute(a, b), 1e-12);
}

TEST(MixedKernelTest, AllCategoricalMatchesHamming) {
  MixedKernel mixed({true, true});
  HammingKernel hamming;
  mixed.set_lengthscale(0.7);
  hamming.set_lengthscale(0.7);
  const std::vector<double> a = {0.25, 0.75}, b = {0.25, 0.1};
  EXPECT_NEAR(mixed.Compute(a, b), hamming.Compute(a, b), 1e-12);
}

TEST(KernelTest, NamesAreDistinct) {
  RbfKernel rbf;
  Matern52Kernel matern;
  HammingKernel hamming;
  MixedKernel mixed({true});
  EXPECT_NE(rbf.name(), matern.name());
  EXPECT_NE(matern.name(), hamming.name());
  EXPECT_NE(hamming.name(), mixed.name());
}

}  // namespace
}  // namespace dbtune
