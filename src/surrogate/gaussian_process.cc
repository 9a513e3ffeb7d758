#include "surrogate/gaussian_process.h"

#include <cmath>
#include <cstring>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace dbtune {

GaussianProcess::GaussianProcess(std::unique_ptr<Kernel> kernel,
                                 GaussianProcessOptions options)
    : kernel_(std::move(kernel)), options_(options) {
  DBTUNE_CHECK(kernel_ != nullptr);
  DBTUNE_CHECK(!options_.lengthscale_grid.empty());
  DBTUNE_CHECK(!options_.noise_grid.empty());
}

void GaussianProcess::AssembleKernelMatrix(double lengthscale,
                                           Matrix* k) const {
  const size_t n = x_.size();
  if (k->rows() != n || k->cols() != n) *k = Matrix(n, n);
  Matrix& out = *k;
  // Row i fills k(i, i..n) in one kernel block and mirrors it into
  // k(i..n, i): each (i, j) pair is owned by exactly one i, so rows
  // parallelize without overlap and every entry is written (a reused
  // buffer needs no clearing). The small grain compensates for the
  // triangular (shrinking) row cost.
  ParallelFor(GlobalPool(), 0, n, /*grain=*/8, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      double* row_i = out.RowPtr(i);
      kernel_->ComputeBlock(x_[i], &x_[i], n - i, lengthscale, row_i + i);
      for (size_t j = i + 1; j < n; ++j) out.RowPtr(j)[i] = row_i[j];
    }
  });
}

Result<double> GaussianProcess::FactorizeInPlace(double noise,
                                                 FitState* state) const {
  const size_t n = x_.size();
  Matrix& k = state->chol;
  k.AddDiagonal(noise + 1e-10);
  DBTUNE_RETURN_IF_ERROR(CholeskyFactorize(&k));
  // alpha = K^-1 y via two triangular solves.
  std::vector<double> tmp = SolveLowerTriangular(k, y_standardized_);
  state->alpha = SolveUpperTriangularFromLower(k, tmp);

  double lml = -0.5 * Dot(y_standardized_, state->alpha);
  for (size_t i = 0; i < n; ++i) lml -= std::log(k(i, i));
  lml -= 0.5 * static_cast<double>(n) * std::log(2.0 * M_PI);
  return lml;
}

Result<double> GaussianProcess::Refit() {
  FitState state;
  AssembleKernelMatrix(kernel_->lengthscale(), &state.chol);
  DBTUNE_ASSIGN_OR_RETURN(const double lml, FactorizeInPlace(noise_, &state));
  chol_ = std::move(state.chol);
  alpha_ = std::move(state.alpha);
  factor_cached_ = true;
  return lml;
}

Result<double> GaussianProcess::FitIncremental(size_t old_n) {
  static obs::Histogram& incremental_hist =
      obs::MetricsRegistry::Get().histogram("gp.fit.incremental");
  obs::ScopedLatency incremental_latency(&incremental_hist);
  const size_t n = x_.size();
  // Grow the factor: the leading old_n x old_n block of L depends only on
  // the leading block of K, so it is copied verbatim (new columns stay
  // zero, matching the zeroed upper triangle of CholeskyFactorize).
  Matrix l(n, n, 0.0);
  for (size_t r = 0; r < old_n; ++r) {
    std::memcpy(l.RowPtr(r), chol_.RowPtr(r), old_n * sizeof(double));
  }
  const double diagonal_jitter = noise_ + 1e-10;  // AddDiagonal's addend
  const double lengthscale = kernel_->lengthscale();
  for (size_t i = old_n; i < n; ++i) {
    double* row_i = l.RowPtr(i);
    // Border of the Gram matrix: k(i, j) for j <= i, the values a
    // from-scratch assembly computes (kernels are bitwise symmetric).
    ParallelFor(GlobalPool(), 0, i + 1, /*grain=*/64,
                [&](size_t begin, size_t end) {
                  kernel_->ComputeBlock(x_[i], &x_[begin], end - begin,
                                        lengthscale, row_i + begin);
                });
    row_i[i] += diagonal_jitter;
    // Forward-solve the new row against the existing factor: bitwise
    // what a full refactorization would produce.
    DBTUNE_RETURN_IF_ERROR(CholeskyAppendRow(&l, i));
  }

  // Targets are re-standardized every fit, so alpha and the LML are
  // recomputed from scratch — O(n^2), same arithmetic as FactorizeWith.
  std::vector<double> tmp = SolveLowerTriangular(l, y_standardized_);
  std::vector<double> alpha = SolveUpperTriangularFromLower(l, tmp);

  double lml = -0.5 * Dot(y_standardized_, alpha);
  for (size_t i = 0; i < n; ++i) lml -= std::log(l(i, i));
  lml -= 0.5 * static_cast<double>(n) * std::log(2.0 * M_PI);

  chol_ = std::move(l);
  alpha_ = std::move(alpha);
  factor_cached_ = true;
  return lml;
}

Status GaussianProcess::Fit(const FeatureMatrix& x,
                            const std::vector<double>& y) {
  static obs::Histogram& fit_hist =
      obs::MetricsRegistry::Get().histogram("gp.fit");
  obs::ScopedLatency fit_latency(&fit_hist);
  DBTUNE_TRACE_SPAN("gp.fit");
  DBTUNE_RETURN_IF_ERROR(ValidateTrainingData(x, y));

  // Does the new training set extend the previous one (same rows plus
  // appended ones)? Decides both the incremental-append eligibility and
  // the hyper-parameter staleness reset below; compared bitwise before
  // x_ is overwritten.
  const size_t old_n = x_.size();
  bool extends_history = fitted_ && x.size() >= old_n && old_n > 0 &&
                         x.front().size() == x_.front().size();
  for (size_t r = 0; extends_history && r < old_n; ++r) {
    extends_history = x[r] == x_[r];
  }
  const bool can_append = extends_history && factor_cached_;
  factor_cached_ = false;  // re-established only by a successful fit

  x_ = x;
  y_standardized_ = StandardizeScores(y, &y_moments_);

  // A shrunk or wholesale-replaced training set invalidates the cached
  // hyper-parameters along with the factor (e.g. a TuRBO restart must
  // not inherit a dead trust region's lengthscale): force a fresh grid
  // search instead of trusting the stale schedule.
  if (fitted_ && !extends_history) fits_since_hyperopt_ = 0;

  const bool do_hyperopt = !fitted_ || fits_since_hyperopt_ == 0;
  fits_since_hyperopt_ =
      (fits_since_hyperopt_ + 1) % std::max<size_t>(1, options_.hyperopt_every);

  if (!do_hyperopt) {
    if (options_.enable_incremental && can_append) {
      Result<double> lml = FitIncremental(old_n);
      if (lml.ok()) {
        lml_ = *lml;
        fitted_ = true;
        return Status::OK();
      }
      // Failed pivot: fall through to the full refactorization.
    }
    Result<double> lml = Refit();
    if (lml.ok()) {
      lml_ = *lml;
      fitted_ = true;
      return Status::OK();
    }
    // Fall through to a full search when the cached choice fails.
  }

  // Grid sweep. K depends on the lengthscale only, so per lengthscale it
  // is assembled once into slot 0 and copied into one slot per noise
  // value; the slots then add their noise diagonal and factorize in one
  // parallel region. Every n x n buffer is allocated here, on the calling
  // thread, and the stale factor is released first, so at most
  // |noise grid| + 1 such matrices are live (slots plus the best). The
  // reduction runs in grid order after each region, so the winner — the
  // first strictly greater LML — is the same at any pool size.
  if (obs::MetricsEnabled()) {
    static obs::Counter& hyperopt_runs =
        obs::MetricsRegistry::Get().counter("gp.hyperopt.runs");
    hyperopt_runs.Increment();
  }
  chol_ = Matrix();
  alpha_ = std::vector<double>();
  const std::vector<double>& noise_grid = options_.noise_grid;
  std::vector<FitState> slots(noise_grid.size());
  std::vector<std::optional<double>> slot_lml(noise_grid.size());
  double best_lml = -1e300;
  double best_ls = options_.lengthscale_grid.front();
  double best_noise = noise_grid.front();
  FitState best_state;
  bool any = false;
  for (double ls : options_.lengthscale_grid) {
    AssembleKernelMatrix(ls, &slots[0].chol);
    for (size_t j = 1; j < slots.size(); ++j) slots[j].chol = slots[0].chol;
    ParallelFor(GlobalPool(), 0, slots.size(), /*grain=*/1,
                [&](size_t begin, size_t end) {
                  for (size_t j = begin; j < end; ++j) {
                    Result<double> lml =
                        FactorizeInPlace(noise_grid[j], &slots[j]);
                    slot_lml[j] = lml.ok() ? std::optional<double>(*lml)
                                           : std::nullopt;
                  }
                });
    for (size_t j = 0; j < slots.size(); ++j) {
      if (!slot_lml[j]) continue;
      if (!any || *slot_lml[j] > best_lml) {
        any = true;
        best_lml = *slot_lml[j];
        best_ls = ls;
        best_noise = noise_grid[j];
        // The slot takes the previous best's buffers for reuse.
        std::swap(best_state, slots[j]);
      }
    }
  }
  if (!any) return Status::Internal("GP fit failed for all hyper-parameters");
  kernel_->set_lengthscale(best_ls);
  chol_ = std::move(best_state.chol);
  alpha_ = std::move(best_state.alpha);
  noise_ = best_noise;
  lml_ = best_lml;
  factor_cached_ = true;
  fitted_ = true;
  return Status::OK();
}

double GaussianProcess::Predict(const std::vector<double>& x) const {
  double mean = 0.0, variance = 0.0;
  PredictMeanVar(x, &mean, &variance);
  return mean;
}

void GaussianProcess::PredictMeanVar(const std::vector<double>& x,
                                     double* mean, double* variance) const {
  DBTUNE_CHECK_MSG(fitted_, "Predict before Fit");
  // No trace span here: predictions run thousands of times per suggest,
  // often from pool workers; a lock-free histogram is all it can afford.
  static obs::Histogram& predict_hist =
      obs::MetricsRegistry::Get().histogram("gp.predict");
  obs::ScopedLatency predict_latency(&predict_hist);
  const size_t n = x_.size();
  // Per-thread scratch: each calling thread owns its own pair, so
  // concurrent callers from the acquisition loops are isolated. The
  // caller's buffer outlives the blocking ParallelFor below; workers
  // must write it through a pointer captured by value — naming the
  // thread_local inside the lambda would resolve to each worker's own
  // (empty, never-resized) instance and write out of bounds.
  static thread_local std::vector<double> k_star;
  static thread_local std::vector<double> v;
  k_star.resize(n);
  double* const k_star_out = k_star.data();
  const double lengthscale = kernel_->lengthscale();
  ParallelFor(GlobalPool(), 0, n, /*grain=*/64,
              [&, k_star_out](size_t begin, size_t end) {
                kernel_->ComputeBlock(x, &x_[begin], end - begin,
                                      lengthscale, k_star_out + begin);
              });

  double mu = Dot(k_star, alpha_);
  // v = L^-1 k_star; var = k(x,x) - v'v.
  SolveLowerTriangularInto(chol_, k_star, &v);
  double var = kernel_->Compute(x, x) - Dot(v, v);
  if (var < 1e-12) var = 1e-12;

  *mean = mu * y_moments_.sd + y_moments_.mean;
  *variance = var * y_moments_.sd * y_moments_.sd;
}

void GaussianProcess::PredictMeanVarBatch(
    const FeatureMatrix& xs, std::vector<double>* means,
    std::vector<double>* variances) const {
  DBTUNE_CHECK_MSG(fitted_, "Predict before Fit");
  static obs::Histogram& batch_hist =
      obs::MetricsRegistry::Get().histogram("gp.predict.batch");
  obs::ScopedLatency batch_latency(&batch_hist);
  const size_t n = x_.size();
  means->resize(xs.size());
  variances->resize(xs.size());
  // Queries are processed in blocks of kBlock as a multi-RHS triangular
  // solve on an i-major (query-minor) buffer, so the innermost loops run
  // across the block's independent queries (SIMD-friendly without FP
  // reassociation). Every query keeps the scalar path's operation order
  // exactly — k ascending in the solve, i ascending in the dots — so
  // results are bitwise equal to PredictMeanVar at any pool size.
  constexpr size_t kBlock = 16;
  const double lengthscale = kernel_->lengthscale();
  const double* const l = n > 0 ? chol_.RowPtr(0) : nullptr;  // L(i, k)
  ParallelFor(
      GlobalPool(), 0, xs.size(), /*grain=*/kBlock,
      [&](size_t begin, size_t end) {
        std::vector<double> w(n * kBlock);  // K*(i, r), then (L^-1 K*)(i, r)
        for (size_t b = begin; b < end; b += kBlock) {
          const size_t m = std::min(kBlock, end - b);
          for (size_t i = 0; i < n; ++i) {
            kernel_->ComputeBlock(x_[i], &xs[b], m, lengthscale,
                                  w.data() + i * m);
          }
          double mu[kBlock], vv[kBlock];
          for (size_t r = 0; r < m; ++r) mu[r] = 0.0;
          for (size_t i = 0; i < n; ++i) {
            const double* ki = w.data() + i * m;
            const double ai = alpha_[i];
            for (size_t r = 0; r < m; ++r) mu[r] += ki[r] * ai;
          }
          // Right-looking forward solve in place: row k of V is final
          // once divided by L(k, k), and then updates every row below it.
          // Each entry still subtracts its terms k ascending and divides
          // last, while no update waits on the one before it.
          for (size_t k = 0; k < n; ++k) {
            double* vk = w.data() + k * m;
            const double diag = l[k * n + k];
            for (size_t r = 0; r < m; ++r) vk[r] /= diag;
            for (size_t i = k + 1; i < n; ++i) {
              const double lik = l[i * n + k];
              double* wi = w.data() + i * m;
              for (size_t r = 0; r < m; ++r) wi[r] -= lik * vk[r];
            }
          }
          for (size_t r = 0; r < m; ++r) vv[r] = 0.0;
          for (size_t i = 0; i < n; ++i) {
            const double* vi = w.data() + i * m;
            for (size_t r = 0; r < m; ++r) vv[r] += vi[r] * vi[r];
          }
          for (size_t r = 0; r < m; ++r) {
            const std::vector<double>& xq = xs[b + r];
            double var = kernel_->Compute(xq, xq) - vv[r];
            if (var < 1e-12) var = 1e-12;
            (*means)[b + r] = mu[r] * y_moments_.sd + y_moments_.mean;
            (*variances)[b + r] = var * y_moments_.sd * y_moments_.sd;
          }
        }
      });
}

}  // namespace dbtune
