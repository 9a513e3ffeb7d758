#ifndef DBTUNE_SURROGATE_SURROGATE_FACTORY_H_
#define DBTUNE_SURROGATE_SURROGATE_FACTORY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "surrogate/gaussian_process.h"
#include "surrogate/regressor.h"
#include "surrogate/sparse_gaussian_process.h"

namespace dbtune {

/// Builds a fresh kernel instance. The tiered surrogate owns one exact
/// and one sparse model, each with its own kernel (the GP mutates the
/// kernel's lengthscale during hyperopt), so construction goes through a
/// factory rather than a single moved-in kernel.
using KernelFactory = std::function<std::unique_ptr<Kernel>()>;

/// Which GP tier a tiered surrogate uses.
enum class SurrogateTier {
  /// Exact GP while the history is at most `sparse_crossover` rows,
  /// sparse FITC GP above it.
  kAuto = 0,
  /// Always the exact O(n³) GP.
  kExact,
  /// Always the sparse O(n·m²) GP.
  kSparse,
};

const char* SurrogateTierName(SurrogateTier tier);

/// Escalation policy of the tiered GP surrogate.
struct SurrogateTierOptions {
  SurrogateTier tier = SurrogateTier::kAuto;
  /// Largest history size fitted by the exact GP under `kAuto`. At this
  /// size an exact fit costs ~n³/3 flops (≈0.4 GFLOP) while a sparse fit
  /// is >25× cheaper, and the simulator regret study (test_sparse_gp)
  /// shows no measurable regret gap at and below the crossover.
  size_t sparse_crossover = 1024;
  /// Inducing-point budget of the sparse tier.
  size_t num_inducing = 64;
};

/// GP surrogate with automatic tier escalation: every `Fit` dispatches to
/// the exact `GaussianProcess` or the `SparseGaussianProcess` per
/// `SurrogateTierOptions`, and predictions route to whichever model the
/// last fit trained. Both tiers are deterministic and bit-identical at
/// any pool size, so the composite is too. Models are created lazily —
/// a session that never crosses the threshold never builds the sparse
/// model (and vice versa).
class TieredGpSurrogate final : public Regressor {
 public:
  TieredGpSurrogate(KernelFactory kernel_factory,
                    GaussianProcessOptions gp_options = {},
                    SurrogateTierOptions tier_options = {});

  Status Fit(const FeatureMatrix& x, const std::vector<double>& y) override;
  double Predict(const std::vector<double>& x) const override;
  void PredictMeanVar(const std::vector<double>& x, double* mean,
                      double* variance) const override;
  void PredictMeanVarBatch(const FeatureMatrix& xs,
                           std::vector<double>* means,
                           std::vector<double>* variances) const override;
  std::string name() const override;

  /// True when the last `Fit` trained the sparse tier.
  bool sparse_active() const { return active_ == sparse_.get() && sparse_; }
  /// The exact tier, if it has been instantiated.
  const GaussianProcess* exact() const { return exact_.get(); }
  /// The sparse tier, if it has been instantiated.
  const SparseGaussianProcess* sparse() const { return sparse_.get(); }

 private:
  KernelFactory kernel_factory_;
  GaussianProcessOptions gp_options_;
  SurrogateTierOptions tier_options_;
  std::unique_ptr<GaussianProcess> exact_;
  std::unique_ptr<SparseGaussianProcess> sparse_;
  Regressor* active_ = nullptr;
};

/// The construction path every optimizer must use for GP surrogates
/// (enforced by the dbtune-lint `gp-construction` rule in
/// src/optimizer/ and src/transfer/): returns a tiered surrogate that
/// escalates from the exact to the sparse GP per `tier_options`.
std::unique_ptr<Regressor> CreateGpSurrogate(
    KernelFactory kernel_factory, GaussianProcessOptions gp_options = {},
    SurrogateTierOptions tier_options = {});

}  // namespace dbtune

#endif  // DBTUNE_SURROGATE_SURROGATE_FACTORY_H_
