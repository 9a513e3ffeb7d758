#include "optimizer/gp_bo.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/stats.h"

namespace dbtune {

GpBoOptimizer::GpBoOptimizer(const ConfigurationSpace& space,
                             OptimizerOptions options,
                             KernelFactory kernel_factory,
                             GaussianProcessOptions gp_options,
                             SurrogateTierOptions tier_options)
    : Optimizer(space, options),
      gp_(CreateGpSurrogate(std::move(kernel_factory), gp_options,
                            tier_options)) {}

Configuration GpBoOptimizer::Suggest() {
  static obs::Histogram& suggest_hist =
      obs::MetricsRegistry::Get().histogram("optimizer.suggest.gp_bo");
  obs::ScopedLatency suggest_latency(&suggest_hist);
  DBTUNE_TRACE_SPAN("gp_bo.suggest");
  suggest_info_ = {};
  if (InitPending()) return NextInit();
  DBTUNE_CHECK(!scores_.empty());

  const std::vector<double> z = StandardizeScores(scores_);
  Status fit = gp_->Fit(unit_history_, z);
  if (!fit.ok()) {
    // Degenerate geometry (e.g. duplicated points): fall back to random.
    return space_.SampleUniform(rng_);
  }

  // Candidate pool: global random samples plus local perturbations of the
  // incumbent.
  const size_t d = space_.dimension();
  const size_t best_index = static_cast<size_t>(
      std::max_element(z.begin(), z.end()) - z.begin());
  const std::vector<double>& incumbent = unit_history_[best_index];

  std::vector<std::vector<double>> candidates;
  candidates.reserve(options_.acquisition_candidates);
  const size_t local = options_.acquisition_candidates / 4;
  for (size_t c = 0; c < local; ++c) {
    std::vector<double> u = incumbent;
    for (size_t j = 0; j < d; ++j) {
      if (rng_.Bernoulli(std::min(1.0, 3.0 / static_cast<double>(d)))) {
        u[j] = std::clamp(u[j] + rng_.Gaussian(0.0, 0.15), 0.0, 1.0);
      }
    }
    candidates.push_back(std::move(u));
  }
  while (candidates.size() < options_.acquisition_candidates) {
    std::vector<double> u(d);
    for (double& v : u) v = rng_.Uniform();
    candidates.push_back(std::move(u));
  }

  // The GP scores the whole pool in one blocked pass over its factor.
  const size_t winner = ScoreCandidates(
      candidates, z[best_index], [&](const auto& xs, auto* means, auto* vars) {
        gp_->PredictMeanVarBatch(xs, means, vars);
      });
  return space_.FromUnit(candidates[winner]);
}

VanillaBoOptimizer::VanillaBoOptimizer(const ConfigurationSpace& space,
                                       OptimizerOptions options)
    : GpBoOptimizer(space, options,
                    [] { return std::make_unique<RbfKernel>(); }) {}

}  // namespace dbtune
