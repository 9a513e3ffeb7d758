#ifndef DBTUNE_SURROGATE_SPARSE_GAUSSIAN_PROCESS_H_
#define DBTUNE_SURROGATE_SPARSE_GAUSSIAN_PROCESS_H_

#include <memory>
#include <vector>

#include "surrogate/kernels.h"
#include "surrogate/regressor.h"
#include "util/matrix.h"
#include "util/stats.h"

namespace dbtune {

/// Hyper-parameters of the sparse (inducing-point) GP surrogate.
struct SparseGaussianProcessOptions {
  /// Number of inducing points m; clamped to the training-set size. Fit
  /// is O(n·m²), predict O(m²) — the whole point of the sparse tier.
  size_t num_inducing = 64;
  /// Lengthscale candidates for marginal-likelihood grid search.
  std::vector<double> lengthscale_grid = {0.1, 0.2, 0.4, 0.8, 1.6};
  /// Noise-variance candidates (targets are standardized).
  std::vector<double> noise_grid = {1e-4, 1e-2, 5e-2};
  /// Re-run the hyper-parameter grid search only every k-th Fit; in
  /// between, reuse the last selected hyper-parameters. 1 = always.
  size_t hyperopt_every = 5;
};

/// FITC sparse Gaussian-process regression (Snelson & Ghahramani 2006;
/// the unifying view of Quiñonero-Candela & Rasmussen 2005): the exact
/// GP's O(n³) fit is replaced by an m-inducing-point approximation with
/// O(n·m²) fit time, O(n·m) memory during fit, and O(m²) per-query
/// predictive cost. Targets are standardized internally; predictive
/// variance is reported in original units, exactly like `GaussianProcess`.
///
/// Inducing points are selected from the training set itself by a greedy
/// farthest-point (k-center) sweep seeded at index 0 with ties resolved
/// to the lowest index — a fully deterministic rule, so fits are
/// reproducible run to run and bit-identical at any `DBTUNE_NUM_THREADS`
/// pool size (all parallel regions write index-owned state; reductions
/// run sequentially in a pool-size-independent order). See DESIGN.md §9.
class SparseGaussianProcess final : public Regressor {
 public:
  /// Takes ownership of `kernel`.
  SparseGaussianProcess(std::unique_ptr<Kernel> kernel,
                        SparseGaussianProcessOptions options = {});

  Status Fit(const FeatureMatrix& x, const std::vector<double>& y) override;
  double Predict(const std::vector<double>& x) const override;
  void PredictMeanVar(const std::vector<double>& x, double* mean,
                      double* variance) const override;
  /// Parallelizes the scalar predictive routine over the query batch;
  /// every query writes only its own slot, so the output is bitwise the
  /// scalar loop's at any pool size. Recorded under
  /// `gp.predict.sparse.batch` (one sample per batch); the scalar entry
  /// records under `gp.predict.sparse`.
  void PredictMeanVarBatch(const FeatureMatrix& xs,
                           std::vector<double>* means,
                           std::vector<double>* variances) const override;
  std::string name() const override { return "SparseGP-" + kernel_->name(); }

  /// FITC log marginal likelihood of the current fit (standardized
  /// targets).
  double log_marginal_likelihood() const { return lml_; }
  const Kernel& kernel() const { return *kernel_; }
  /// Effective number of inducing points of the current fit (min of
  /// `num_inducing` and the training-set size).
  size_t num_inducing() const { return inducing_indices_.size(); }
  /// Training-set indices chosen as inducing points, ascending.
  const std::vector<size_t>& inducing_indices() const {
    return inducing_indices_;
  }
  double noise() const { return noise_; }

 private:
  /// Per-lengthscale quantities shared across the noise grid (the sparse
  /// analogue of the exact GP's Gram cache): inducing Gram factor,
  /// cross-covariances, and the FITC diagonal correction.
  struct LengthscaleState {
    Matrix kmm;                 // m×m inducing Gram (no jitter)
    Matrix lm;                  // chol(kmm + jitter I)
    Matrix knm;                 // n×m cross-covariances
    std::vector<double> kdiag;  // k(x_i, x_i)
    std::vector<double> q;      // ||lm^-1 knm_i||², the Nyström diagonal
    double logdet_kmm = 0.0;    // log|kmm + jitter I|
  };
  /// A candidate factorization from the grid sweep; the winner is
  /// installed wholesale.
  struct FitState {
    Matrix la;                  // chol(A), A = Kmm + Knmᵀ Λ⁻¹ Knm
    std::vector<double> alpha;  // A⁻¹ Knmᵀ Λ⁻¹ y
  };

  /// Greedy farthest-point selection of min(m, n) inducing indices.
  std::vector<size_t> SelectInducingIndices(const FeatureMatrix& x,
                                            size_t m) const;
  /// Assembles the per-lengthscale state at `lengthscale` (the kernel's
  /// installed lengthscale is not touched). Fails when the inducing Gram
  /// is not positive definite.
  [[nodiscard]] Status PrepareLengthscale(const FeatureMatrix& x,
                                          double lengthscale,
                                          LengthscaleState* state) const;
  /// Builds Λ, A, and alpha for one noise level on top of `ls_state`;
  /// returns the FITC log marginal likelihood. Does not touch members.
  Result<double> FactorizeWith(const LengthscaleState& ls_state,
                               const std::vector<double>& y_std, double noise,
                               FitState* state) const;
  /// Fits at the installed hyper-parameters and installs the result.
  Result<double> Refit(const FeatureMatrix& x,
                       const std::vector<double>& y_std);
  /// The FITC posterior at one query, de-standardized. Shared by the
  /// scalar and batch entry points; records no metric.
  void PredictOne(const std::vector<double>& x, double* mean,
                  double* variance) const;

  std::unique_ptr<Kernel> kernel_;
  SparseGaussianProcessOptions options_;

  std::vector<size_t> inducing_indices_;
  FeatureMatrix xm_;            // inducing inputs (rows of the last x)
  Matrix lm_;                   // chol(Kmm + jitter I)
  Matrix la_;                   // chol(A)
  std::vector<double> alpha_;   // predictive weights, standardized units
  ScoreMoments y_moments_;
  double noise_ = 1e-4;
  double lml_ = 0.0;
  size_t fits_since_hyperopt_ = 0;
  bool fitted_ = false;
};

}  // namespace dbtune

#endif  // DBTUNE_SURROGATE_SPARSE_GAUSSIAN_PROCESS_H_
