// The determinism contract of the parallel execution layer: every
// parallelized component must produce bit-identical results at pool size
// 1 and pool size N. These tests sweep the process-wide pool size and
// compare full outputs with exact equality.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/tuning_session.h"
#include "knobs/catalog.h"
#include "knobs/knob.h"
#include "optimizer/gp_bo.h"
#include "optimizer/projected_optimizer.h"
#include "optimizer/smac.h"
#include "optimizer/turbo.h"
#include "surrogate/gaussian_process.h"
#include "surrogate/random_forest.h"
#include "surrogate/sparse_gaussian_process.h"
#include "surrogate/surrogate_factory.h"
#include "transfer/repository.h"
#include "transfer/rgpe.h"
#include "transfer/workload_mapping.h"
#include "util/matrix.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace dbtune {
namespace {

// Restores the previous pool size even when an assertion fails.
class PoolSizeGuard {
 public:
  explicit PoolSizeGuard(size_t n)
      : original_(ExecutionContext::Get().num_threads()) {
    ExecutionContext::Get().SetNumThreads(n);
  }
  ~PoolSizeGuard() { ExecutionContext::Get().SetNumThreads(original_); }

 private:
  size_t original_;
};

FeatureMatrix MakeInputs(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  FeatureMatrix x(n, std::vector<double>(d));
  for (auto& row : x) {
    for (double& v : row) v = rng.Uniform();
  }
  return x;
}

std::vector<double> MakeTargets(const FeatureMatrix& x) {
  std::vector<double> y;
  y.reserve(x.size());
  for (const auto& row : x) {
    double s = 0.0;
    for (size_t j = 0; j < row.size(); ++j) {
      s += std::sin(3.0 * row[j]) * static_cast<double>(j + 1);
    }
    y.push_back(s);
  }
  return y;
}

ConfigurationSpace MakeContinuousSpace(size_t d) {
  std::vector<Knob> knobs;
  for (size_t i = 0; i < d; ++i) {
    std::string name = "x";
    name += std::to_string(i);  // avoids gcc-12 -Wrestrict false positive
    knobs.push_back(Knob::Continuous(name, 0.0, 1.0, 0.5));
  }
  return ConfigurationSpace(std::move(knobs));
}

TEST(ParallelDeterminismTest, GaussianProcessFitAndPredict) {
  // n is past the scalar-predict ParallelFor grain (64) so the kernel
  // row actually dispatches to pool workers (regression: workers once
  // wrote their own empty thread_local scratch instead of the caller's).
  const FeatureMatrix x = MakeInputs(160, 5, 11);
  const std::vector<double> y = MakeTargets(x);
  const FeatureMatrix queries = MakeInputs(20, 5, 13);

  auto run = [&](size_t pool_size) {
    PoolSizeGuard guard(pool_size);
    GaussianProcess gp(std::make_unique<Matern52Kernel>());
    EXPECT_TRUE(gp.Fit(x, y).ok());
    std::vector<double> out = {gp.log_marginal_likelihood()};
    for (const auto& q : queries) {
      double mean = 0.0, var = 0.0;
      gp.PredictMeanVar(q, &mean, &var);
      out.push_back(mean);
      out.push_back(var);
    }
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

// The exact GP's hyper-parameter sweep factorizes the noise slots of
// each lengthscale in one parallel region, then reduces in grid order.
// Its winner must be the first strict maximum of the LML in
// lengthscale-major order — ties included, failing grid points skipped —
// and its installed state bitwise equal at every pool size and to a
// single-point fit at the winner.
void ExpectSweepPicksFirstMaximum(const FeatureMatrix& x,
                                  const std::vector<double>& y,
                                  const GaussianProcessOptions& options,
                                  bool expect_failed_point) {
  struct Fitted {
    double lengthscale = 0.0;
    double noise = 0.0;
    double lml = 0.0;
    std::vector<double> chol;
    std::vector<double> alpha;
  };
  auto fit = [&](const GaussianProcessOptions& opts) -> std::optional<Fitted> {
    GaussianProcess gp(std::make_unique<RbfKernel>(), opts);
    if (!gp.Fit(x, y).ok()) return std::nullopt;
    return Fitted{gp.kernel().lengthscale(), gp.noise(),
                  gp.log_marginal_likelihood(), gp.cholesky_factor().data(),
                  gp.alpha()};
  };

  // Reference: every grid point on its own, scanned in grid order.
  std::optional<Fitted> expected;
  bool saw_failure = false;
  {
    PoolSizeGuard guard(1);
    for (double ls : options.lengthscale_grid) {
      for (double noise : options.noise_grid) {
        GaussianProcessOptions single = options;
        single.lengthscale_grid = {ls};
        single.noise_grid = {noise};
        std::optional<Fitted> point = fit(single);
        if (!point) {
          saw_failure = true;
          continue;
        }
        if (!expected || point->lml > expected->lml) expected = point;
      }
    }
  }
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(saw_failure, expect_failed_point);

  for (size_t pool_size : {1, 2, 8}) {
    SCOPED_TRACE("pool " + std::to_string(pool_size));
    PoolSizeGuard guard(pool_size);
    std::optional<Fitted> swept = fit(options);
    ASSERT_TRUE(swept.has_value());
    EXPECT_EQ(swept->lengthscale, expected->lengthscale);
    EXPECT_EQ(swept->noise, expected->noise);
    EXPECT_EQ(swept->lml, expected->lml);
    EXPECT_EQ(swept->chol, expected->chol);
    EXPECT_EQ(swept->alpha, expected->alpha);
  }
}

TEST(ParallelDeterminismTest, GaussianProcessSweepTieResolvesInGridOrder) {
  const FeatureMatrix x = MakeInputs(60, 4, 71);
  const std::vector<double> y = MakeTargets(x);
  GaussianProcessOptions options;
  options.noise_grid = {1e-2, 1e-4, 1e-2};  // slots 0 and 2 tie exactly
  ExpectSweepPicksFirstMaximum(x, y, options, /*expect_failed_point=*/false);
}

TEST(ParallelDeterminismTest, GaussianProcessSweepSkipsNonPositiveDefinite) {
  // Every row twice, so K is singular. Noise 0 still factorizes on the
  // fixed 1e-10 jitter; a negative noise value makes K + noise*I
  // indefinite, so those grid points (slot 0 at every lengthscale) fail
  // to factorize and must be skipped without shifting the winner.
  FeatureMatrix x = MakeInputs(40, 2, 73);
  const FeatureMatrix copy = x;
  x.insert(x.end(), copy.begin(), copy.end());
  const std::vector<double> y = MakeTargets(x);
  GaussianProcessOptions options;
  options.noise_grid = {-0.5, 0.0, 1e-3};
  ExpectSweepPicksFirstMaximum(x, y, options, /*expect_failed_point=*/true);
}

// The sparse tier parallelizes inducing selection, the chunked assembly
// of the m×m system, and batched prediction; all of it must be bitwise
// reproducible across pool sizes 1/2/8 (the acceptance sweep for
// DBTUNE_NUM_THREADS).
TEST(ParallelDeterminismTest, SparseGaussianProcessFitAndPredict) {
  const FeatureMatrix x = MakeInputs(300, 5, 59);
  const std::vector<double> y = MakeTargets(x);
  const FeatureMatrix queries = MakeInputs(40, 5, 61);

  auto run = [&](size_t pool_size) {
    PoolSizeGuard guard(pool_size);
    SparseGaussianProcess gp(std::make_unique<Matern52Kernel>());
    EXPECT_TRUE(gp.Fit(x, y).ok());
    std::vector<double> out = {gp.log_marginal_likelihood()};
    for (size_t id : gp.inducing_indices()) {
      out.push_back(static_cast<double>(id));
    }
    for (const auto& q : queries) {
      double mean = 0.0, var = 0.0;
      gp.PredictMeanVar(q, &mean, &var);
      out.push_back(mean);
      out.push_back(var);
    }
    std::vector<double> means, vars;
    gp.PredictMeanVarBatch(queries, &means, &vars);
    out.insert(out.end(), means.begin(), means.end());
    out.insert(out.end(), vars.begin(), vars.end());
    return out;
  };
  const std::vector<double> pool1 = run(1);
  EXPECT_EQ(pool1, run(2));
  EXPECT_EQ(pool1, run(8));
}

TEST(ParallelDeterminismTest, RandomForestFitAndPredict) {
  const FeatureMatrix x = MakeInputs(120, 6, 17);
  const std::vector<double> y = MakeTargets(x);
  const FeatureMatrix queries = MakeInputs(30, 6, 19);

  auto run = [&](size_t pool_size) {
    PoolSizeGuard guard(pool_size);
    RandomForestOptions options;
    options.num_trees = 50;
    options.seed = 29;
    RandomForest forest(options);
    EXPECT_TRUE(forest.Fit(x, y).ok());
    std::vector<double> out = forest.SplitCountImportance();
    for (const auto& q : queries) {
      double mean = 0.0, var = 0.0;
      forest.PredictMeanVar(q, &mean, &var);
      out.push_back(mean);
      out.push_back(var);
    }
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// The scalar forest query walks the trees inline in index order; the
// batched path spreads queries across the pool. Thirty trees cross the
// old per-query grain of 16, and both paths must agree bit for bit at
// every pool size, with the per-tree mean and variance reduced in tree
// order.
TEST(ParallelDeterminismTest, RandomForestScalarQueryMatchesBatch) {
  const FeatureMatrix x = MakeInputs(45, 12, 53);
  const std::vector<double> y = MakeTargets(x);
  const FeatureMatrix queries = MakeInputs(40, 12, 59);
  RandomForestOptions options;
  options.num_trees = 30;
  options.seed = 61;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(x, y).ok());
  for (size_t pool_size : {1, 2, 8}) {
    PoolSizeGuard guard(pool_size);
    std::vector<double> means, vars;
    forest.PredictMeanVarBatch(queries, &means, &vars);
    ASSERT_EQ(means.size(), queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      double mean = 0.0, var = 0.0;
      forest.PredictMeanVar(queries[q], &mean, &var);
      EXPECT_EQ(Bits(mean), Bits(means[q])) << "pool " << pool_size;
      EXPECT_EQ(Bits(var), Bits(vars[q])) << "pool " << pool_size;
      std::vector<double> per_tree;
      for (const RegressionTree& tree : forest.trees()) {
        per_tree.push_back(tree.Predict(queries[q]));
      }
      EXPECT_EQ(Bits(mean), Bits(Mean(per_tree)));
      EXPECT_EQ(Bits(var), Bits(Variance(per_tree)));
    }
  }
}

// Full optimizer loops: suggestions must be identical configuration by
// configuration, which exercises parallel surrogate fits, posterior
// queries, and acquisition scoring end to end.
template <typename MakeOptimizer>
void ExpectIdenticalTrajectories(MakeOptimizer make) {
  auto run = [&](size_t pool_size) {
    PoolSizeGuard guard(pool_size);
    const ConfigurationSpace space = MakeContinuousSpace(4);
    std::unique_ptr<Optimizer> optimizer = make(space);
    std::vector<double> trace;
    for (int i = 0; i < 20; ++i) {
      const Configuration c = optimizer->Suggest();
      double score = 0.0;
      for (size_t j = 0; j < c.size(); ++j) {
        score -= (c[j] - 0.6) * (c[j] - 0.6);
      }
      optimizer->Observe(c, score);
      for (size_t j = 0; j < c.size(); ++j) trace.push_back(c[j]);
    }
    return trace;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(ParallelDeterminismTest, GpBoTrajectory) {
  ExpectIdenticalTrajectories([](const ConfigurationSpace& space) {
    OptimizerOptions options;
    options.seed = 31;
    return std::make_unique<VanillaBoOptimizer>(space, options);
  });
}

// A longer GP-BO run whose surrogate crosses several incremental appends
// between hyperopt refreshes (hyperopt_every = 5, 25 iterations): the
// bordered-append path must keep the trajectory bit-identical both
// across pool sizes and against the full-refactorization baseline.
TEST(ParallelDeterminismTest, GpBoTrajectoryCrossesIncrementalAppends) {
  struct TestGpBo final : GpBoOptimizer {
    using GpBoOptimizer::GpBoOptimizer;
    std::string name() const override { return "Test GP-BO"; }
  };
  auto run = [](size_t pool_size, bool incremental) {
    PoolSizeGuard guard(pool_size);
    const ConfigurationSpace space = MakeContinuousSpace(4);
    OptimizerOptions options;
    options.seed = 53;
    GaussianProcessOptions gp_options;
    gp_options.enable_incremental = incremental;
    TestGpBo optimizer(
        space, options, [] { return std::make_unique<Matern52Kernel>(); },
        gp_options);
    std::vector<double> trace;
    for (int i = 0; i < 25; ++i) {
      const Configuration c = optimizer.Suggest();
      double score = 0.0;
      for (size_t j = 0; j < c.size(); ++j) {
        score -= (c[j] - 0.6) * (c[j] - 0.6);
      }
      optimizer.Observe(c, score);
      for (size_t j = 0; j < c.size(); ++j) trace.push_back(c[j]);
    }
    return trace;
  };
  const std::vector<double> baseline = run(1, /*incremental=*/false);
  EXPECT_EQ(baseline, run(1, /*incremental=*/true));
  EXPECT_EQ(baseline, run(2, /*incremental=*/true));
  EXPECT_EQ(baseline, run(8, /*incremental=*/true));
}

// GP-BO forced onto the sparse tier: suggestion-by-suggestion bitwise
// equality across the acceptance pool sweep {1, 2, 8}.
TEST(ParallelDeterminismTest, SparseTierGpBoTrajectory) {
  struct TestGpBo final : GpBoOptimizer {
    using GpBoOptimizer::GpBoOptimizer;
    std::string name() const override { return "Sparse GP-BO"; }
  };
  auto run = [](size_t pool_size) {
    PoolSizeGuard guard(pool_size);
    const ConfigurationSpace space = MakeContinuousSpace(4);
    OptimizerOptions options;
    options.seed = 67;
    SurrogateTierOptions tier_options;
    tier_options.tier = SurrogateTier::kSparse;
    tier_options.num_inducing = 12;
    TestGpBo optimizer(
        space, options, [] { return std::make_unique<Matern52Kernel>(); },
        GaussianProcessOptions{}, tier_options);
    std::vector<double> trace;
    for (int i = 0; i < 20; ++i) {
      const Configuration c = optimizer.Suggest();
      double score = 0.0;
      for (size_t j = 0; j < c.size(); ++j) {
        score -= (c[j] - 0.6) * (c[j] - 0.6);
      }
      optimizer.Observe(c, score);
      for (size_t j = 0; j < c.size(); ++j) trace.push_back(c[j]);
    }
    return trace;
  };
  const std::vector<double> pool1 = run(1);
  EXPECT_EQ(pool1, run(2));
  EXPECT_EQ(pool1, run(8));
}

// The projected wrapper adds the embedding decode on top of the inner
// optimizer; the full-space trajectory must stay bit-identical across
// pool sizes (the projection itself is pool-independent by construction,
// but the inner BO loop is not trivially so).
TEST(ParallelDeterminismTest, ProjectedOptimizerTrajectory) {
  auto run = [](size_t pool_size) {
    PoolSizeGuard guard(pool_size);
    const ConfigurationSpace space = MakeContinuousSpace(8);
    OptimizerOptions options;
    options.seed = 71;
    ProjectionOptions projection;
    projection.dims = 3;
    ProjectedOptimizer optimizer(space, options, OptimizerType::kVanillaBo,
                                 projection);
    std::vector<double> trace;
    for (int i = 0; i < 18; ++i) {
      const Configuration c = optimizer.Suggest();
      double score = 0.0;
      for (size_t j = 0; j < c.size(); ++j) {
        score -= (c[j] - 0.6) * (c[j] - 0.6);
      }
      optimizer.Observe(c, score);
      for (size_t j = 0; j < c.size(); ++j) trace.push_back(c[j]);
    }
    return trace;
  };
  const std::vector<double> pool1 = run(1);
  EXPECT_EQ(pool1, run(2));
  EXPECT_EQ(pool1, run(8));
}

TEST(ParallelDeterminismTest, SmacTrajectory) {
  ExpectIdenticalTrajectories([](const ConfigurationSpace& space) {
    OptimizerOptions options;
    options.seed = 37;
    return std::make_unique<SmacOptimizer>(space, options);
  });
}

// SMAC's hill climb re-snaps only the probed coordinate and restores it
// on reject; on a space with log-scaled, integer and categorical knobs
// that restore runs through every knob type.
TEST(ParallelDeterminismTest, SmacTrajectoryOnMixedSpace) {
  auto run = [](size_t pool_size) {
    PoolSizeGuard guard(pool_size);
    std::vector<Knob> knobs;
    knobs.push_back(Knob::Continuous("ratio", 0.0, 1.0, 0.5));
    knobs.push_back(Knob::Continuous("buffer_mb", 8.0, 4096.0, 128.0,
                                     /*log_scale=*/true));
    knobs.push_back(Knob::Integer("workers", 1, 16, 4));
    knobs.push_back(Knob::Integer("io_capacity", 100, 20000, 200,
                                  /*log_scale=*/true));
    knobs.push_back(Knob::Categorical("flush", {"off", "lazy", "eager"}, 0));
    const ConfigurationSpace space(std::move(knobs));
    OptimizerOptions options;
    options.seed = 43;
    SmacOptimizer optimizer(space, options);
    const double category_bonus[] = {0.0, 0.4, -0.2};
    std::vector<double> trace;
    for (int i = 0; i < 20; ++i) {
      const Configuration c = optimizer.Suggest();
      const double score =
          -(c[0] - 0.3) * (c[0] - 0.3) -
          0.1 * std::abs(std::log2(c[1]) - 9.0) -
          0.05 * (c[2] - 11.0) * (c[2] - 11.0) / 16.0 -
          0.1 * std::abs(std::log10(c[3]) - 3.0) +
          category_bonus[static_cast<size_t>(c[4])];
      optimizer.Observe(c, score);
      for (size_t j = 0; j < c.size(); ++j) trace.push_back(c[j]);
      trace.push_back(optimizer.last_suggest_info().predicted_mean);
      trace.push_back(optimizer.last_suggest_info().acquisition_best);
    }
    return trace;
  };
  const std::vector<double> pool1 = run(1);
  EXPECT_EQ(pool1, run(2));
  EXPECT_EQ(pool1, run(8));
}

TEST(ParallelDeterminismTest, TurboTrajectory) {
  ExpectIdenticalTrajectories([](const ConfigurationSpace& space) {
    OptimizerOptions options;
    options.seed = 41;
    return std::make_unique<TurboOptimizer>(space, options);
  });
}

// RGPE's ensemble acquisition scores candidates with ParallelFor across
// every live base model plus the target model; the whole transfer
// trajectory must be bit-identical at any pool size.
TEST(ParallelDeterminismTest, RgpeTrajectory) {
  // Two source tasks over the shared synthetic truth (peak at 0.8 in dim
  // 0), one of them inverted so both the high- and near-zero-weight model
  // paths are exercised.
  const auto make_repository = [](const ConfigurationSpace& space) {
    ObservationRepository repo;
    Rng rng(43);
    SourceTask helpful, adversarial;
    helpful.name = "helpful";
    adversarial.name = "adversarial";
    for (int i = 0; i < 40; ++i) {
      std::vector<double> u(space.dimension());
      for (double& v : u) v = rng.Uniform();
      const double score = -(u[0] - 0.8) * (u[0] - 0.8);
      helpful.unit_x.push_back(u);
      helpful.scores.push_back(score);
      adversarial.unit_x.push_back(u);
      adversarial.scores.push_back(-score);
    }
    repo.AddTask(helpful);
    repo.AddTask(adversarial);
    return repo;
  };

  auto run = [&](size_t pool_size, TransferBase base) {
    PoolSizeGuard guard(pool_size);
    const ConfigurationSpace space = MakeContinuousSpace(4);
    const ObservationRepository repo = make_repository(space);
    OptimizerOptions options;
    options.seed = 47;
    options.initial_design = 5;
    options.acquisition_candidates = 80;
    RgpeOptimizer rgpe(space, options, &repo, base);
    std::vector<double> trace;
    for (int i = 0; i < 15; ++i) {
      const Configuration c = rgpe.Suggest();
      double score = 0.0;
      for (size_t j = 0; j < c.size(); ++j) {
        score -= (c[j] - 0.6) * (c[j] - 0.6);
      }
      rgpe.Observe(c, score);
      for (size_t j = 0; j < c.size(); ++j) trace.push_back(c[j]);
    }
    for (double w : rgpe.last_weights()) trace.push_back(w);
    return trace;
  };

  for (TransferBase base :
       {TransferBase::kSmac, TransferBase::kMixedKernelBo}) {
    const std::vector<double> pool1 = run(1, base);
    EXPECT_EQ(pool1, run(2, base)) << TransferBaseName(base);
    EXPECT_EQ(pool1, run(8, base)) << TransferBaseName(base);
  }
}

// Workload mapping refits its base surrogate on the mapped source task
// plus the target history every iteration and scores the pool in one
// batched pass; the trajectory must be bit-identical at any pool size.
TEST(ParallelDeterminismTest, WorkloadMappingTrajectory) {
  const auto make_repository = [](const ConfigurationSpace& space) {
    ObservationRepository repo;
    Rng rng(59);
    for (int t = 0; t < 2; ++t) {
      SourceTask task;
      task.name = t == 0 ? "near" : "far";
      for (int i = 0; i < 40; ++i) {
        std::vector<double> u(space.dimension());
        for (double& v : u) v = rng.Uniform();
        task.unit_x.push_back(u);
        task.scores.push_back(-(u[0] - 0.6) * (u[0] - 0.6) * (t + 1));
      }
      task.metric_signature.assign(3, static_cast<double>(t));
      repo.AddTask(std::move(task));
    }
    return repo;
  };

  auto run = [&](size_t pool_size, TransferBase base) {
    PoolSizeGuard guard(pool_size);
    const ConfigurationSpace space = MakeContinuousSpace(4);
    const ObservationRepository repo = make_repository(space);
    OptimizerOptions options;
    options.seed = 61;
    options.initial_design = 5;
    options.acquisition_candidates = 80;
    WorkloadMappingOptimizer mapping(space, options, &repo, base);
    std::vector<double> trace;
    for (int i = 0; i < 15; ++i) {
      const Configuration c = mapping.Suggest();
      double score = 0.0;
      for (size_t j = 0; j < c.size(); ++j) {
        score -= (c[j] - 0.6) * (c[j] - 0.6);
      }
      mapping.ObserveWithMetrics(c, score, {c[0], c[1], c[2]});
      for (size_t j = 0; j < c.size(); ++j) trace.push_back(c[j]);
    }
    trace.push_back(static_cast<double>(mapping.mapped_task()));
    return trace;
  };

  for (TransferBase base :
       {TransferBase::kSmac, TransferBase::kMixedKernelBo}) {
    const std::vector<double> pool1 = run(1, base);
    EXPECT_EQ(pool1, run(2, base)) << TransferBaseName(base);
    EXPECT_EQ(pool1, run(8, base)) << TransferBaseName(base);
  }
}

// Diagnostics are pure observers: turning the per-session collector on
// must leave the tuning trajectory bitwise identical at every pool size
// in the acceptance sweep (the collector never consumes randomness or
// clock reads that feed the optimizer).
TEST(ParallelDeterminismTest, DiagnosticsDoNotPerturbTrajectories) {
  auto run = [](size_t pool_size, bool diagnostics) {
    PoolSizeGuard guard(pool_size);
    DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                      HardwareInstance::kB, /*seed=*/5);
    std::vector<size_t> knob_indices(sim.space().dimension());
    for (size_t i = 0; i < knob_indices.size(); ++i) knob_indices[i] = i;
    TuningEnvironment env(&sim, knob_indices);
    OptimizerOptions options;
    options.seed = 73;
    std::unique_ptr<Optimizer> optimizer =
        CreateOptimizer(OptimizerType::kVanillaBo, env.space(), options);
    SessionControls controls;
    controls.diagnostics = diagnostics;
    controls.session_label = "determinism";
    const SessionResult result =
        RunTuningSession(&env, optimizer.get(), /*iterations=*/10, controls);
    std::vector<double> trace = result.objective_trace;
    trace.insert(trace.end(), result.improvement_trace.begin(),
                 result.improvement_trace.end());
    return trace;
  };
  const std::vector<double> baseline = run(1, /*diagnostics=*/false);
  EXPECT_EQ(baseline, run(1, /*diagnostics=*/true));
  EXPECT_EQ(baseline, run(2, /*diagnostics=*/true));
  EXPECT_EQ(baseline, run(8, /*diagnostics=*/true));
}

}  // namespace
}  // namespace dbtune
