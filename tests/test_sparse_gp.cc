// The sparse (FITC) GP tier: approximation quality against the exact GP,
// deterministic inducing-point selection, batch/scalar equivalence, the
// tiered factory's escalation policy, and the exact-vs-sparse regret
// comparison on the simulator that justifies the default crossover.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/tuning_session.h"
#include "dbms/simulator.h"
#include "obs/metrics.h"
#include "optimizer/gp_bo.h"
#include "surrogate/gaussian_process.h"
#include "surrogate/sparse_gaussian_process.h"
#include "surrogate/surrogate_factory.h"
#include "util/random.h"

namespace dbtune {
namespace {

FeatureMatrix MakeInputs(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  FeatureMatrix x(n, std::vector<double>(d));
  for (auto& row : x) {
    for (double& v : row) v = rng.Uniform();
  }
  return x;
}

std::vector<double> SmoothTargets(const FeatureMatrix& x) {
  std::vector<double> y;
  y.reserve(x.size());
  for (const auto& row : x) {
    double s = 0.0;
    for (size_t j = 0; j < row.size(); ++j) {
      s += std::sin(2.0 * row[j]) + 0.3 * row[j];
    }
    y.push_back(s);
  }
  return y;
}

TEST(SparseGaussianProcessTest, InducingSelectionIsDeterministic) {
  const FeatureMatrix x = MakeInputs(120, 4, 7);
  const std::vector<double> y = SmoothTargets(x);
  SparseGaussianProcessOptions options;
  options.num_inducing = 24;

  SparseGaussianProcess a(std::make_unique<Matern52Kernel>(), options);
  SparseGaussianProcess b(std::make_unique<Matern52Kernel>(), options);
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());

  EXPECT_EQ(a.inducing_indices(), b.inducing_indices());
  EXPECT_EQ(a.num_inducing(), 24u);
  // Ascending, unique, anchored at the deterministic seed index 0.
  const std::vector<size_t>& ids = a.inducing_indices();
  EXPECT_EQ(ids.front(), 0u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(a.log_marginal_likelihood(), b.log_marginal_likelihood());
}

TEST(SparseGaussianProcessTest, InducingBudgetClampsToTrainingSize) {
  const FeatureMatrix x = MakeInputs(10, 3, 11);
  const std::vector<double> y = SmoothTargets(x);
  SparseGaussianProcessOptions options;
  options.num_inducing = 64;
  SparseGaussianProcess gp(std::make_unique<Matern52Kernel>(), options);
  ASSERT_TRUE(gp.Fit(x, y).ok());
  EXPECT_EQ(gp.num_inducing(), 10u);
}

TEST(SparseGaussianProcessTest, ApproximatesExactPosterior) {
  const FeatureMatrix x = MakeInputs(200, 3, 13);
  const std::vector<double> y = SmoothTargets(x);
  const FeatureMatrix queries = MakeInputs(40, 3, 17);

  GaussianProcess exact(std::make_unique<Matern52Kernel>());
  ASSERT_TRUE(exact.Fit(x, y).ok());

  SparseGaussianProcessOptions options;
  options.num_inducing = 64;
  SparseGaussianProcess sparse(std::make_unique<Matern52Kernel>(), options);
  ASSERT_TRUE(sparse.Fit(x, y).ok());

  // The FITC posterior mean should track the exact one closely on a
  // smooth surface with a third of the points as inducing inputs. The
  // y-range here is ~[-1, 4.5]; 0.15 absolute is a tight envelope.
  double worst = 0.0;
  for (const auto& q : queries) {
    double em = 0.0, ev = 0.0, sm = 0.0, sv = 0.0;
    exact.PredictMeanVar(q, &em, &ev);
    sparse.PredictMeanVar(q, &sm, &sv);
    worst = std::max(worst, std::abs(em - sm));
    EXPECT_GE(sv, 0.0);
  }
  EXPECT_LT(worst, 0.15);
  EXPECT_TRUE(std::isfinite(sparse.log_marginal_likelihood()));
}

TEST(SparseGaussianProcessTest, BatchedPredictMatchesScalarBitwise) {
  const FeatureMatrix x = MakeInputs(150, 5, 19);
  const std::vector<double> y = SmoothTargets(x);
  const FeatureMatrix queries = MakeInputs(33, 5, 23);

  SparseGaussianProcess gp(std::make_unique<Matern52Kernel>());
  ASSERT_TRUE(gp.Fit(x, y).ok());

  std::vector<double> batch_means, batch_vars;
  gp.PredictMeanVarBatch(queries, &batch_means, &batch_vars);
  ASSERT_EQ(batch_means.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    double mean = 0.0, var = 0.0;
    gp.PredictMeanVar(queries[q], &mean, &var);
    EXPECT_EQ(batch_means[q], mean) << "query " << q;
    EXPECT_EQ(batch_vars[q], var) << "query " << q;
  }
}

TEST(SparseGaussianProcessTest, BatchAndScalarPredictRecordSeparately) {
  const FeatureMatrix x = MakeInputs(80, 4, 31);
  const std::vector<double> y = SmoothTargets(x);
  const FeatureMatrix queries = MakeInputs(300, 4, 37);
  SparseGaussianProcess gp(std::make_unique<Matern52Kernel>());
  ASSERT_TRUE(gp.Fit(x, y).ok());

  obs::ScopedMetricsForTest metrics_on;
  const obs::Histogram& scalar =
      obs::MetricsRegistry::Get().histogram("gp.predict.sparse");
  const obs::Histogram& batch =
      obs::MetricsRegistry::Get().histogram("gp.predict.sparse.batch");
  // A 300-query batch is one batch sample and no scalar sample.
  std::vector<double> means, vars;
  gp.PredictMeanVarBatch(queries, &means, &vars);
  EXPECT_EQ(batch.count(), 1u);
  EXPECT_EQ(scalar.count(), 0u);
  double mean = 0.0, var = 0.0;
  gp.PredictMeanVar(queries[0], &mean, &var);
  EXPECT_EQ(batch.count(), 1u);
  EXPECT_EQ(scalar.count(), 1u);
}

TEST(SparseGaussianProcessTest, RefitReplacesModel) {
  const FeatureMatrix x1 = MakeInputs(60, 3, 29);
  const std::vector<double> y1 = SmoothTargets(x1);
  SparseGaussianProcess gp(std::make_unique<Matern52Kernel>());
  ASSERT_TRUE(gp.Fit(x1, y1).ok());
  const double lml1 = gp.log_marginal_likelihood();

  const FeatureMatrix x2 = MakeInputs(90, 3, 31);
  const std::vector<double> y2 = SmoothTargets(x2);
  ASSERT_TRUE(gp.Fit(x2, y2).ok());
  EXPECT_NE(gp.log_marginal_likelihood(), lml1);
  EXPECT_TRUE(gp.Fit(x1, y1).ok());
}

TEST(SparseGaussianProcessTest, RejectsInvalidTrainingData) {
  SparseGaussianProcess gp(std::make_unique<Matern52Kernel>());
  EXPECT_FALSE(gp.Fit({}, {}).ok());
  EXPECT_FALSE(gp.Fit({{0.1, 0.2}, {0.3}}, {1.0, 2.0}).ok());
}

TEST(TieredGpSurrogateTest, AutoEscalatesAtCrossover) {
  SurrogateTierOptions tier;
  tier.sparse_crossover = 50;
  tier.num_inducing = 16;
  TieredGpSurrogate gp([] { return std::make_unique<Matern52Kernel>(); },
                       GaussianProcessOptions{}, tier);

  const FeatureMatrix small = MakeInputs(40, 3, 37);
  ASSERT_TRUE(gp.Fit(small, SmoothTargets(small)).ok());
  EXPECT_FALSE(gp.sparse_active());
  ASSERT_NE(gp.exact(), nullptr);
  EXPECT_EQ(gp.sparse(), nullptr);
  EXPECT_EQ(gp.name(), "GP-Matern52");

  const FeatureMatrix large = MakeInputs(80, 3, 41);
  ASSERT_TRUE(gp.Fit(large, SmoothTargets(large)).ok());
  EXPECT_TRUE(gp.sparse_active());
  ASSERT_NE(gp.sparse(), nullptr);
  EXPECT_EQ(gp.sparse()->num_inducing(), 16u);
  EXPECT_EQ(gp.name(), "SparseGP-Matern52");

  double mean = 0.0, var = 0.0;
  gp.PredictMeanVar(large.front(), &mean, &var);
  EXPECT_TRUE(std::isfinite(mean));
  EXPECT_GT(var, 0.0);
}

TEST(TieredGpSurrogateTest, ForcedTiersAreRespected) {
  const FeatureMatrix x = MakeInputs(30, 3, 43);
  const std::vector<double> y = SmoothTargets(x);

  SurrogateTierOptions force_sparse;
  force_sparse.tier = SurrogateTier::kSparse;
  TieredGpSurrogate sparse([] { return std::make_unique<Matern52Kernel>(); },
                           GaussianProcessOptions{}, force_sparse);
  ASSERT_TRUE(sparse.Fit(x, y).ok());
  EXPECT_TRUE(sparse.sparse_active());

  SurrogateTierOptions force_exact;
  force_exact.tier = SurrogateTier::kExact;
  force_exact.sparse_crossover = 1;  // would escalate under kAuto
  TieredGpSurrogate exact([] { return std::make_unique<Matern52Kernel>(); },
                          GaussianProcessOptions{}, force_exact);
  ASSERT_TRUE(exact.Fit(x, y).ok());
  EXPECT_FALSE(exact.sparse_active());
}

TEST(TieredGpSurrogateTest, TierNames) {
  EXPECT_STREQ(SurrogateTierName(SurrogateTier::kAuto), "auto");
  EXPECT_STREQ(SurrogateTierName(SurrogateTier::kExact), "exact");
  EXPECT_STREQ(SurrogateTierName(SurrogateTier::kSparse), "sparse");
}

// The crossover policy's justification: a GP-BO session driven by the
// sparse tier must stay within a pinned regret tolerance of the exact
// tier on the simulator at history sizes around (here: well below) the
// crossover — escalating costs fit time, not tuning outcome.
TEST(TieredGpSurrogateTest, SparseRegretTracksExactOnSimulator) {
  struct TierBo final : GpBoOptimizer {
    using GpBoOptimizer::GpBoOptimizer;
    std::string name() const override { return "Tier BO"; }
  };
  const std::vector<size_t> knob_indices = {0, 1, 2, 3, 4, 5};
  const size_t iterations = 40;

  auto run = [&](SurrogateTier tier) {
    DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 9);
    TuningEnvironment env(&sim, knob_indices);
    OptimizerOptions options;
    options.seed = 9;
    SurrogateTierOptions tier_options;
    tier_options.tier = tier;
    tier_options.num_inducing = 16;
    TierBo bo(
        env.space(), options,
        [] { return std::make_unique<Matern52Kernel>(); },
        GaussianProcessOptions{}, tier_options);
    return RunTuningSession(&env, &bo, iterations);
  };

  const SessionResult exact = run(SurrogateTier::kExact);
  const SessionResult sparse = run(SurrogateTier::kSparse);
  ASSERT_EQ(exact.improvement_trace.size(), iterations);
  ASSERT_EQ(sparse.improvement_trace.size(), iterations);
  // Pinned regret tolerance: the sparse session's final improvement may
  // trail the exact session's by at most 5 percentage points (they are
  // not expected to be identical — the surrogates differ).
  EXPECT_GE(sparse.final_improvement, exact.final_improvement - 5.0);
}

}  // namespace
}  // namespace dbtune
