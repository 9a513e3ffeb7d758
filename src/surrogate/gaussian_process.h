#ifndef DBTUNE_SURROGATE_GAUSSIAN_PROCESS_H_
#define DBTUNE_SURROGATE_GAUSSIAN_PROCESS_H_

#include <memory>
#include <vector>

#include "surrogate/kernels.h"
#include "surrogate/regressor.h"
#include "util/matrix.h"
#include "util/stats.h"

namespace dbtune {

/// Hyper-parameters of the Gaussian-process surrogate.
struct GaussianProcessOptions {
  /// Lengthscale candidates for marginal-likelihood grid search.
  std::vector<double> lengthscale_grid = {0.1, 0.2, 0.4, 0.8, 1.6};
  /// Noise-variance candidates (targets are standardized).
  std::vector<double> noise_grid = {1e-4, 1e-2, 5e-2};
  /// Re-run the hyper-parameter grid search only every k-th Fit; in
  /// between, reuse the last selected hyper-parameters (keeps the cubic
  /// cost of iterative BO in check). 1 = always.
  size_t hyperopt_every = 5;
  /// Extend the cached Cholesky factor by bordered append when a
  /// non-hyperopt `Fit` receives the previous training set plus new rows
  /// (O(n^2) instead of O(n^3); bit-identical to a full refit). Off is
  /// only useful as a baseline for benchmarks and equivalence tests.
  bool enable_incremental = true;
};

/// Gaussian-process regression (Eq. 3 of the paper) with a pluggable
/// kernel and grid-searched hyper-parameters. Targets are standardized
/// internally; predictive variance is reported in original units.
///
/// Sequential fits are incremental: see DESIGN.md §8 for the cache
/// state machine (when the bordered append applies, when it falls back
/// to a full refactorization).
class GaussianProcess final : public Regressor {
 public:
  /// Takes ownership of `kernel`.
  GaussianProcess(std::unique_ptr<Kernel> kernel,
                  GaussianProcessOptions options = {});

  Status Fit(const FeatureMatrix& x, const std::vector<double>& y) override;
  double Predict(const std::vector<double>& x) const override;
  void PredictMeanVar(const std::vector<double>& x, double* mean,
                      double* variance) const override;
  /// Matrix-level batched prediction: assembles K* and runs the
  /// triangular solves per query chunk with reused scratch, bit-identical
  /// to the scalar path at any pool size.
  void PredictMeanVarBatch(const FeatureMatrix& xs,
                           std::vector<double>* means,
                           std::vector<double>* variances) const override;
  std::string name() const override { return "GP-" + kernel_->name(); }

  /// Log marginal likelihood of the current fit (standardized targets).
  double log_marginal_likelihood() const { return lml_; }
  const Kernel& kernel() const { return *kernel_; }
  size_t num_observations() const { return x_.size(); }

  /// Fitted noise variance and factorization internals, exposed so the
  /// incremental-fit tests can assert bitwise equality against a full
  /// refactorization.
  double noise() const { return noise_; }
  const Matrix& cholesky_factor() const { return chol_; }
  const std::vector<double>& alpha() const { return alpha_; }

 private:
  /// A candidate factorization produced during the hyper-parameter grid
  /// sweep; the winner is installed wholesale instead of re-fitting.
  struct FitState {
    Matrix chol;
    std::vector<double> alpha;
  };

  /// Assembles K (no noise diagonal) at `lengthscale` into `k`, resizing
  /// it to n x n when its shape differs.
  void AssembleKernelMatrix(double lengthscale, Matrix* k) const;
  /// Adds the noise diagonal to the Gram matrix held in `state->chol`,
  /// factorizes it in place, and computes alpha; returns the LML. Reads
  /// only the training targets, so noise slots factorize concurrently.
  Result<double> FactorizeInPlace(double noise, FitState* state) const;
  /// Rebuilds K + noise*I at the installed hyper-parameters, factorizes,
  /// computes alpha, installs the result into member state; returns the
  /// LML.
  Result<double> Refit();
  /// Extends the cached factor with rows [old_n, x_.size()) by bordered
  /// Cholesky append, then recomputes alpha/LML (the targets are
  /// re-standardized every fit). Fails when a pivot is not positive.
  Result<double> FitIncremental(size_t old_n);

  std::unique_ptr<Kernel> kernel_;
  GaussianProcessOptions options_;

  FeatureMatrix x_;
  std::vector<double> y_standardized_;
  ScoreMoments y_moments_;

  Matrix chol_;                 // lower Cholesky factor of K + noise I
  std::vector<double> alpha_;   // (K + noise I)^-1 y
  double noise_ = 1e-4;
  double lml_ = 0.0;
  size_t fits_since_hyperopt_ = 0;
  bool fitted_ = false;
  // True only when chol_/alpha_ match x_ and the kernel's current
  // hyper-parameters (i.e. the last Fit succeeded); cleared on entry to
  // Fit so a failed fit can never seed an incremental append.
  bool factor_cached_ = false;
};

}  // namespace dbtune

#endif  // DBTUNE_SURROGATE_GAUSSIAN_PROCESS_H_
