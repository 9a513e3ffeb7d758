#include "optimizer/optimizer.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "knobs/catalog.h"
#include "obs/metrics.h"
#include "optimizer/ddpg.h"
#include "optimizer/genetic.h"
#include "optimizer/gp_bo.h"
#include "optimizer/mixed_kernel_bo.h"
#include "optimizer/smac.h"
#include "optimizer/tpe.h"
#include "optimizer/turbo.h"
#include "transfer/repository.h"
#include "transfer/rgpe.h"
#include "transfer/workload_mapping.h"
#include "util/random.h"
#include "util/stats.h"

namespace dbtune {
namespace {

// A simple continuous space for optimizer behaviour tests.
ConfigurationSpace MakeContinuousSpace(size_t d) {
  std::vector<Knob> knobs;
  for (size_t i = 0; i < d; ++i) {
    std::string name = "x";
    name += std::to_string(i);  // avoids gcc-12 -Wrestrict false positive
    knobs.push_back(Knob::Continuous(name, 0.0, 1.0, 0.5));
  }
  return ConfigurationSpace(std::move(knobs));
}

// Maximum 0 at (0.7, 0.2, ..., alternating); strictly concave.
double ConcaveObjective(const Configuration& c) {
  double score = 0.0;
  for (size_t i = 0; i < c.size(); ++i) {
    const double target = (i % 2 == 0) ? 0.7 : 0.2;
    score -= (c[i] - target) * (c[i] - target);
  }
  return score;
}

double RunOnObjective(Optimizer* optimizer, size_t iterations,
                      double (*objective)(const Configuration&)) {
  double best = -1e300;
  for (size_t i = 0; i < iterations; ++i) {
    const Configuration c = optimizer->Suggest();
    const double score = objective(c);
    optimizer->Observe(c, score);
    best = std::max(best, score);
  }
  return best;
}

TEST(ExpectedImprovementTest, ZeroWhenFarBelowBest) {
  EXPECT_NEAR(ExpectedImprovement(0.0, 1e-8, 10.0), 0.0, 1e-9);
}

TEST(ExpectedImprovementTest, PositiveAboveBest) {
  EXPECT_GT(ExpectedImprovement(1.0, 0.01, 0.0), 0.9);
}

TEST(ExpectedImprovementTest, UncertaintyAddsValue) {
  const double certain = ExpectedImprovement(0.0, 1e-8, 0.5);
  const double uncertain = ExpectedImprovement(0.0, 4.0, 0.5);
  EXPECT_GT(uncertain, certain);
}

TEST(OptimizerFactoryTest, CreatesEveryType) {
  const ConfigurationSpace space = MakeContinuousSpace(3);
  for (OptimizerType type : PaperOptimizers()) {
    std::unique_ptr<Optimizer> optimizer = CreateOptimizer(type, space);
    ASSERT_NE(optimizer, nullptr);
    EXPECT_EQ(optimizer->name(), OptimizerTypeName(type));
  }
  EXPECT_EQ(PaperOptimizers().size(), 7u);
}

TEST(OptimizerBaseTest, HistoryBookkeeping) {
  const ConfigurationSpace space = MakeContinuousSpace(2);
  std::unique_ptr<Optimizer> optimizer =
      CreateOptimizer(OptimizerType::kRandomSearch, space);
  EXPECT_EQ(optimizer->num_observations(), 0u);
  optimizer->Observe(Configuration({0.1, 0.1}), 1.0);
  optimizer->Observe(Configuration({0.9, 0.9}), 3.0);
  optimizer->Observe(Configuration({0.5, 0.5}), 2.0);
  EXPECT_EQ(optimizer->num_observations(), 3u);
  EXPECT_DOUBLE_EQ(optimizer->best_score(), 3.0);
  EXPECT_EQ(optimizer->best_config(), Configuration({0.9, 0.9}));
}

TEST(BuildAcquisitionCandidatesTest, PoolSizeAndValidity) {
  const ConfigurationSpace space = MakeContinuousSpace(4);
  Rng rng(1);
  FeatureMatrix history = {{0.5, 0.5, 0.5, 0.5}};
  std::vector<double> scores = {1.0};
  const auto pool =
      BuildAcquisitionCandidates(space, rng, history, scores, 50);
  EXPECT_EQ(pool.size(), 50u);
  for (const auto& u : pool) {
    ASSERT_EQ(u.size(), 4u);
    for (double v : u) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

// --- Parameterized sweep: every optimizer must optimize a concave bowl
// clearly better than its starting point and respect the space.
class OptimizerSweepTest : public ::testing::TestWithParam<OptimizerType> {};

TEST_P(OptimizerSweepTest, SuggestionsAreValid) {
  const ConfigurationSpace space = SmallTestCatalog();
  OptimizerOptions options;
  options.seed = 3;
  std::unique_ptr<Optimizer> optimizer =
      CreateOptimizer(GetParam(), space, options);
  Rng rng(4);
  for (int i = 0; i < 25; ++i) {
    const Configuration c = optimizer->Suggest();
    EXPECT_TRUE(space.Validate(c).ok())
        << optimizer->name() << " iteration " << i;
    optimizer->Observe(c, rng.Uniform());
  }
}

TEST_P(OptimizerSweepTest, ImprovesOnConcaveObjective) {
  const ConfigurationSpace space = MakeContinuousSpace(4);
  OptimizerOptions options;
  options.seed = 5;
  std::unique_ptr<Optimizer> optimizer =
      CreateOptimizer(GetParam(), space, options);
  const double best = RunOnObjective(optimizer.get(), 60, ConcaveObjective);
  // Default-centred start scores -4*(0.2^2+0.3^2)/2-ish; optimum is 0.
  EXPECT_GT(best, -0.12) << optimizer->name();
}

TEST_P(OptimizerSweepTest, DeterministicGivenSeed) {
  const ConfigurationSpace space = MakeContinuousSpace(3);
  OptimizerOptions options;
  options.seed = 11;
  std::unique_ptr<Optimizer> a = CreateOptimizer(GetParam(), space, options);
  std::unique_ptr<Optimizer> b = CreateOptimizer(GetParam(), space, options);
  for (int i = 0; i < 15; ++i) {
    const Configuration ca = a->Suggest();
    const Configuration cb = b->Suggest();
    ASSERT_EQ(ca.values(), cb.values()) << OptimizerTypeName(GetParam());
    const double score = ConcaveObjective(ca);
    a->Observe(ca, score);
    b->Observe(cb, score);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOptimizers, OptimizerSweepTest,
    ::testing::Values(OptimizerType::kVanillaBo,
                      OptimizerType::kMixedKernelBo, OptimizerType::kSmac,
                      OptimizerType::kTpe, OptimizerType::kTurbo,
                      OptimizerType::kDdpg, OptimizerType::kGa,
                      OptimizerType::kRandomSearch),
    [](const ::testing::TestParamInfo<OptimizerType>& info) {
      std::string name = OptimizerTypeName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(ModelBasedOptimizerTest, BeatsRandomSearchOnBowl) {
  // SMAC and the BO variants must out-optimize random search on the same
  // budget (sanity check that modeling helps at all).
  const ConfigurationSpace space = MakeContinuousSpace(6);
  auto run = [&](OptimizerType type, uint64_t seed) {
    OptimizerOptions options;
    options.seed = seed;
    std::unique_ptr<Optimizer> optimizer =
        CreateOptimizer(type, space, options);
    return RunOnObjective(optimizer.get(), 70, ConcaveObjective);
  };
  double random_avg = 0.0, smac_avg = 0.0, bo_avg = 0.0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    random_avg += run(OptimizerType::kRandomSearch, seed);
    smac_avg += run(OptimizerType::kSmac, seed);
    bo_avg += run(OptimizerType::kVanillaBo, seed);
  }
  EXPECT_GT(smac_avg, random_avg);
  EXPECT_GT(bo_avg, random_avg);
}

TEST(DdpgTest, WeightExportImportRoundTrip) {
  const ConfigurationSpace space = MakeContinuousSpace(3);
  OptimizerOptions options;
  options.seed = 21;
  DdpgOptimizer a(space, options);
  const DdpgOptimizer::Weights weights = a.ExportWeights();

  OptimizerOptions options_b;
  options_b.seed = 22;
  DdpgOptimizer b(space, options_b);
  ASSERT_TRUE(b.ImportWeights(weights).ok());
  EXPECT_EQ(b.ExportWeights().actor, weights.actor);
  EXPECT_EQ(b.ExportWeights().critic, weights.critic);
}

TEST(DdpgTest, ImportRejectsWrongShape) {
  const ConfigurationSpace s3 = MakeContinuousSpace(3);
  const ConfigurationSpace s5 = MakeContinuousSpace(5);
  DdpgOptimizer a(s3, OptimizerOptions{});
  DdpgOptimizer b(s5, OptimizerOptions{});
  EXPECT_FALSE(b.ImportWeights(a.ExportWeights()).ok());
}

TEST(DdpgTest, UsesMetricsAsState) {
  const ConfigurationSpace space = MakeContinuousSpace(3);
  DdpgOptimizer ddpg(space, OptimizerOptions{});
  ddpg.SetReferenceScore(1.0);
  Rng rng(6);
  std::vector<double> metrics(40);
  for (int i = 0; i < 40; ++i) {
    const Configuration c = ddpg.Suggest();
    for (double& m : metrics) m = rng.Uniform(-1, 1);
    ddpg.ObserveWithMetrics(c, ConcaveObjective(c) + 1.0, metrics);
  }
  EXPECT_EQ(ddpg.num_observations(), 40u);
}

// Each actor/critic update is timed under `ddpg.train`; recording it
// leaves the trajectory untouched.
TEST(DdpgTest, TrainStepsAreTimedWithoutChangingTheTrajectory) {
  const ConfigurationSpace space = MakeContinuousSpace(3);
  DdpgOptions ddpg_options;
  ddpg_options.state_dim = 3;
  ddpg_options.batch_size = 4;
  ddpg_options.train_steps_per_observe = 2;
  auto run = [&] {
    OptimizerOptions options;
    options.seed = 23;
    DdpgOptimizer ddpg(space, options, ddpg_options);
    std::vector<double> trace;
    for (int i = 0; i < 10; ++i) {
      const Configuration c = ddpg.Suggest();
      ddpg.ObserveWithMetrics(c, ConcaveObjective(c), c.values());
      trace.insert(trace.end(), c.values().begin(), c.values().end());
    }
    return trace;
  };
  const std::vector<double> untimed = run();
  obs::ScopedMetricsForTest metrics_on;
  const obs::Histogram& train =
      obs::MetricsRegistry::Get().histogram("ddpg.train");
  const uint64_t before = train.count();
  EXPECT_EQ(run(), untimed);
  // Observations 4..10 fill the batch, each runs 2 steps.
  EXPECT_EQ(train.count() - before, 14u);
}

TEST(TpeWeaknessTest, InteractionBlindness) {
  // Saddle objective: score = (2a-1)(2b-1). Marginals are flat; TPE's
  // independent densities cannot see the structure while SMAC's forest
  // can. With matched budgets SMAC should find corner-like solutions at
  // least as good as TPE's on average.
  const ConfigurationSpace space = MakeContinuousSpace(2);
  auto saddle = [](const Configuration& c) {
    return (2.0 * c[0] - 1.0) * (2.0 * c[1] - 1.0);
  };
  auto run = [&](OptimizerType type, uint64_t seed) {
    OptimizerOptions options;
    options.seed = seed;
    std::unique_ptr<Optimizer> optimizer =
        CreateOptimizer(type, space, options);
    double best = -1e300;
    for (int i = 0; i < 50; ++i) {
      const Configuration c = optimizer->Suggest();
      const double s = saddle(c);
      optimizer->Observe(c, s);
      best = std::max(best, s);
    }
    return best;
  };
  double smac_total = 0.0, tpe_total = 0.0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    smac_total += run(OptimizerType::kSmac, seed);
    tpe_total += run(OptimizerType::kTpe, seed);
  }
  EXPECT_GE(smac_total, tpe_total - 0.10);
}

// --- Cross-commit trajectory digest. Every other determinism pin compares
// two runs inside one build, so a change that reorders floating-point
// operations in the acquisition step would pass all of them. The
// constants pin trajectories and SuggestInfo bitwise across commits: a
// refactor that keeps the arithmetic must keep them, and a change that
// alters them on purpose says why. The space mixes continuous, integer
// and categorical knobs so candidate snapping matters.

// FNV-1a over the bit patterns of everything a Suggest produced.
class Fnv1a {
 public:
  void Add(const void* data, size_t size) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(&bits, sizeof(bits));
  }
  void Add(uint64_t value) { Add(&value, sizeof(value)); }
  void Add(bool value) { Add(static_cast<uint64_t>(value ? 1 : 0)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

ConfigurationSpace MakeMixedSpace() {
  std::vector<Knob> knobs;
  knobs.push_back(Knob::Continuous("ratio", 0.0, 1.0, 0.5));
  knobs.push_back(Knob::Continuous("buffer_mb", 8.0, 4096.0, 128.0,
                                   /*log_scale=*/true));
  knobs.push_back(Knob::Integer("workers", 1, 16, 4));
  knobs.push_back(Knob::Categorical("flush", {"off", "lazy", "eager"}, 0));
  return ConfigurationSpace(std::move(knobs));
}

double MixedObjective(const Configuration& c) {
  const double category_bonus[] = {0.0, 0.4, -0.2};
  return -(c[0] - 0.3) * (c[0] - 0.3) - 0.1 * std::abs(std::log2(c[1]) - 9.0) -
         0.05 * (c[2] - 11.0) * (c[2] - 11.0) / 16.0 +
         category_bonus[static_cast<size_t>(c[3])];
}

std::vector<double> MixedMetrics(const Configuration& c) {
  return {c[0], std::log2(c[1]) / 12.0, c[2] / 16.0};
}

ObservationRepository MakeMixedRepository(const ConfigurationSpace& space) {
  ObservationRepository repo;
  Rng rng(83);
  SourceTask helpful, adversarial;
  helpful.name = "helpful";
  adversarial.name = "adversarial";
  for (int i = 0; i < 30; ++i) {
    const Configuration c = space.SampleUniform(rng);
    const double score = MixedObjective(c);
    helpful.unit_x.push_back(space.ToUnit(c));
    helpful.scores.push_back(score);
    adversarial.unit_x.push_back(space.ToUnit(c));
    adversarial.scores.push_back(-score);
  }
  helpful.metric_signature = {0.3, 0.75, 0.7};
  adversarial.metric_signature = {0.9, 0.1, 0.1};
  repo.AddTask(helpful);
  repo.AddTask(adversarial);
  return repo;
}

// A model-free optimizer that exposes the shared EI scoring step.
class ScoringStepProbe final : public Optimizer {
 public:
  using Optimizer::Optimizer;
  using Optimizer::ScoreCandidates;
  Configuration Suggest() override { return space_.Default(); }
  std::string name() const override { return "probe"; }
};

TEST(ScoreCandidatesTest, SnapsTiesLowAndDestandardizes) {
  const ConfigurationSpace space = MakeMixedSpace();
  ScoringStepProbe probe(space, OptimizerOptions{});
  Rng rng(97);
  std::vector<double> scores = {2.0, 4.0, 9.0};
  for (double score : scores) probe.Observe(space.SampleUniform(rng), score);
  FeatureMatrix candidates;
  for (int c = 0; c < 4; ++c) {
    candidates.push_back({rng.Uniform(), rng.Uniform(), rng.Uniform(),
                          rng.Uniform()});
  }
  // Candidates 1 and 2 tie on the posterior, so on EI.
  const std::vector<double> pred_means = {0.5, 1.0, 1.0, -2.0};
  const std::vector<double> pred_vars = {0.1, 0.2, 0.2, 0.1};
  std::vector<double> ei;
  const size_t winner = probe.ScoreCandidates(
      candidates, /*best_z=*/0.8,
      [&](const FeatureMatrix& xs, std::vector<double>* means,
          std::vector<double>* variances) {
        ASSERT_EQ(xs.size(), candidates.size());
        for (size_t c = 0; c < xs.size(); ++c) {
          EXPECT_EQ(xs[c], space.SnapUnit(candidates[c]));
        }
        *means = pred_means;
        *variances = pred_vars;
      },
      &ei);
  EXPECT_EQ(winner, 1u);
  ASSERT_EQ(ei.size(), 4u);
  EXPECT_EQ(ei[1], ei[2]);
  EXPECT_EQ(ei[1], ExpectedImprovement(1.0, 0.2, 0.8));

  const SuggestInfo& info = probe.last_suggest_info();
  EXPECT_TRUE(info.has_acquisition);
  EXPECT_EQ(info.acquisition_best, ei[1]);
  EXPECT_EQ(info.acquisition_pool, 4u);
  // Population (divide-by-n) stddev of the pool's EI values.
  double mean = 0.0;
  for (double v : ei) mean += v / 4.0;
  double var = 0.0;
  for (double v : ei) var += (v - mean) * (v - mean) / 4.0;
  EXPECT_NEAR(info.acquisition_spread, std::sqrt(var), 1e-12);
  // The winner's z-space posterior in raw score units.
  const ScoreMoments moments = ComputeScoreMoments(scores);
  EXPECT_DOUBLE_EQ(moments.mean, 5.0);
  EXPECT_DOUBLE_EQ(moments.sd, std::sqrt(13.0));
  EXPECT_TRUE(info.has_prediction);
  EXPECT_DOUBLE_EQ(info.predicted_mean, moments.mean + moments.sd * 1.0);
  EXPECT_DOUBLE_EQ(info.predicted_variance, 13.0 * 0.2);
}

void DigestSuggestion(const Configuration& c, const SuggestInfo& info,
                      Fnv1a* digest) {
  for (double v : c.values()) digest->Add(v);
  digest->Add(info.has_prediction);
  digest->Add(info.predicted_mean);
  digest->Add(info.predicted_variance);
  digest->Add(info.has_acquisition);
  digest->Add(info.acquisition_best);
  digest->Add(info.acquisition_spread);
  digest->Add(static_cast<uint64_t>(info.acquisition_pool));
}

uint64_t TrajectoryDigest(Optimizer* optimizer, size_t* model_suggestions) {
  Fnv1a digest;
  *model_suggestions = 0;
  for (int i = 0; i < 20; ++i) {
    const Configuration c = optimizer->Suggest();
    const SuggestInfo& info = optimizer->last_suggest_info();
    DigestSuggestion(c, info, &digest);
    if (info.has_acquisition) ++*model_suggestions;
    optimizer->ObserveWithMetrics(c, MixedObjective(c), MixedMetrics(c));
  }
  return digest.value();
}

TEST(TrajectoryDigestTest, SuggestionsAndInfoMatchRecordedDigests) {
  const ConfigurationSpace space = MakeMixedSpace();
  const ObservationRepository repo = MakeMixedRepository(space);
  OptimizerOptions options;
  options.seed = 89;
  options.initial_design = 5;
  options.acquisition_candidates = 96;
  struct Case {
    const char* name;
    std::unique_ptr<Optimizer> optimizer;
    uint64_t expected;
    // Model-free families (DDPG, GA) report no acquisition step.
    size_t min_model_suggestions = 10;
  };
  std::vector<Case> cases;
  cases.push_back({"vanilla_bo",
                   std::make_unique<VanillaBoOptimizer>(space, options),
                   0xdddce3fa531d9925ULL});
  cases.push_back({"mixed_kernel_bo",
                   std::make_unique<MixedKernelBoOptimizer>(space, options),
                   0x798ac409789423c1ULL});
  cases.push_back({"smac", std::make_unique<SmacOptimizer>(space, options),
                   0x9bb758a2840ff832ULL});
  cases.push_back({"turbo", std::make_unique<TurboOptimizer>(space, options),
                   0x0f3c4cc4d084a6fbULL});
  cases.push_back({"tpe", std::make_unique<TpeOptimizer>(space, options),
                   0xa5e716b6c7fe286aULL});
  cases.push_back({"rgpe_smac",
                   std::make_unique<RgpeOptimizer>(space, options, &repo,
                                                   TransferBase::kSmac),
                   0x4b9a60c111e0c944ULL});
  cases.push_back({"rgpe_mixed_kernel_bo",
                   std::make_unique<RgpeOptimizer>(
                       space, options, &repo, TransferBase::kMixedKernelBo),
                   0x553dd8c618dc89b2ULL});
  cases.push_back({"mapping_smac",
                   std::make_unique<WorkloadMappingOptimizer>(
                       space, options, &repo, TransferBase::kSmac),
                   0x3b540cdbea37409fULL});
  cases.push_back({"mapping_mixed_kernel_bo",
                   std::make_unique<WorkloadMappingOptimizer>(
                       space, options, &repo, TransferBase::kMixedKernelBo),
                   0x075fcd2793515145ULL});
  // A batch of 8 lets DDPG train (8 minibatches per observe) from the
  // eighth observation on, so the digest pins the actor/critic updates
  // and not only the initial actor's forward pass.
  DdpgOptions ddpg_options;
  ddpg_options.state_dim = 3;
  ddpg_options.batch_size = 8;
  cases.push_back({"ddpg",
                   std::make_unique<DdpgOptimizer>(space, options,
                                                   ddpg_options),
                   0xd39df26e6d31064cULL, 0});
  // A population of 6 breeds three generations within 20 suggestions.
  GeneticOptions ga_options;
  ga_options.population_size = 6;
  cases.push_back({"ga",
                   std::make_unique<GeneticOptimizer>(space, options,
                                                      ga_options),
                   0x402d4acd7942abcdULL, 0});
  for (Case& c : cases) {
    size_t model_suggestions = 0;
    const uint64_t digest =
        TrajectoryDigest(c.optimizer.get(), &model_suggestions);
    // The digest only pins the acquisition step if the model ran.
    EXPECT_GE(model_suggestions, c.min_model_suggestions) << c.name;
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, c.expected) << c.name << " digest " << hex;
  }
}

// SMAC on the 197-knob catalog: the hill climb's 394 probes per start
// touch every knob type, so a probe whose re-snapped coordinate is not
// put back on reject changes the EI of later probes. The four-knob
// space above is too coarse for the forest to notice.
TEST(TrajectoryDigestTest, SmacOnTheFullCatalogMatchesRecordedDigest) {
  const ConfigurationSpace space = MySqlKnobCatalog();
  OptimizerOptions options;
  options.seed = 97;
  options.initial_design = 5;
  SmacOptimizer smac(space, options);
  Fnv1a digest;
  for (int i = 0; i < 14; ++i) {
    const Configuration c = smac.Suggest();
    DigestSuggestion(c, smac.last_suggest_info(), &digest);
    const std::vector<double> u = space.ToUnit(c);
    double score = 0.0;
    for (size_t j = 0; j < u.size(); ++j) {
      const double target = (j % 3 == 0) ? 0.8 : 0.3;
      const double weight = static_cast<double>(1 + j % 5);
      score -= weight * (u[j] - target) * (u[j] - target);
    }
    smac.Observe(c, score);
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                static_cast<unsigned long long>(digest.value()));
  EXPECT_EQ(digest.value(), 0x2e52dc13f5d0758cULL) << "digest " << hex;
}

}  // namespace
}  // namespace dbtune
