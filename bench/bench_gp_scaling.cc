// GP scaling micro-bench for the incremental-fit, batched-predict, and
// sparse-tier paths (PERF acceptance: >= 5x on non-hyperopt sequential
// fits at n = 500, >= 2x on batched acquisition scoring, >= 10x on the
// sparse fit at n = 10000 against the cubic-extrapolated exact fit).
// Also times the hyper-parameter grid sweep at 1/2/4 threads and the
// Cholesky factorization of a GP Gram matrix at n = 130/250/500.
// Emits JSON lines to stdout and writes them to DBTUNE_BENCH_GP_REPORT
// (default BENCH_GP.json in the working directory) for CI artifacts.
// Every row records the effective thread-pool size (`threads`), which
// honours DBTUNE_NUM_THREADS except on hyperopt_fit and cholesky rows,
// and the load it ran under: the host's CPU count (`host_cpus`), the
// process CPU seconds the row took (`cpu_s`; the hyperopt_fit rows of
// one n share the value, their runs interleave) and the 1-minute load
// average (`load_1m`). Quick mode: DBTUNE_BENCH_SCALE below 0.3
// shrinks sizes proportionally. DBTUNE_BENCH_SIZES (comma-separated n
// list, taken literally) overrides the sparse_fit sizes, and
// DBTUNE_BENCH_EXACT_MAX caps the largest directly-measured exact fit.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "surrogate/gaussian_process.h"
#include "surrogate/sparse_gaussian_process.h"
#include "util/matrix.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace dbtune {
namespace {

// Sizes replicate the acceptance protocol at the default scale (0.3) and
// above; quick mode (e.g. the perf-labeled ctest at 0.05) shrinks them.
size_t Effective(size_t full, size_t floor_value) {
  const double factor = std::min(1.0, bench::Scale() / 0.3);
  const auto scaled = static_cast<size_t>(static_cast<double>(full) * factor);
  return std::max(floor_value, scaled);
}

FeatureMatrix RandomInputs(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  FeatureMatrix x(n, std::vector<double>(d));
  for (auto& row : x) {
    for (double& v : row) v = rng.Uniform();
  }
  return x;
}

std::vector<double> SyntheticTargets(const FeatureMatrix& x) {
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

std::string g_report;

void Emit(const char* line) {
  std::printf("%s", line);
  g_report += line;
}

uint64_t IncrementalFitCount() {
  const obs::Histogram* hist =
      obs::MetricsRegistry::Get().FindHistogram("gp.fit.incremental");
  return hist == nullptr ? 0 : hist->count();
}

// Times `appends` one-row sequential fits (grid search paid once on the
// warm-up fit, outside the timed region) with the given incremental
// setting; returns seconds and the final LML for the identity check.
struct FitRun {
  double seconds = 0.0;
  double final_lml = 0.0;
};

FitRun TimeSequentialFits(const FeatureMatrix& x, const std::vector<double>& y,
                          size_t appends, bool incremental) {
  GaussianProcessOptions options;
  options.hyperopt_every = 1u << 20;  // grid search on the warm-up fit only
  options.enable_incremental = incremental;
  GaussianProcess gp(std::make_unique<Matern52Kernel>(), options);
  const size_t n0 = x.size() - appends;
  FeatureMatrix head_x(x.begin(), x.begin() + n0);
  std::vector<double> head_y(y.begin(), y.begin() + n0);
  if (!gp.Fit(head_x, head_y).ok()) {
    std::fprintf(stderr, "warm-up fit failed\n");
    std::exit(1);
  }
  FitRun run;
  for (size_t i = 0; i < appends; ++i) {
    head_x.push_back(x[n0 + i]);
    head_y.push_back(y[n0 + i]);
    const double start = obs::MonotonicSeconds();
    if (!gp.Fit(head_x, head_y).ok()) {
      std::fprintf(stderr, "append fit failed\n");
      std::exit(1);
    }
    run.seconds += obs::MonotonicSeconds() - start;
  }
  run.final_lml = gp.log_marginal_likelihood();
  return run;
}

void BenchSequentialFits() {
  const size_t appends = Effective(20, 4);
  for (size_t full_n : {100u, 250u, 500u}) {
    const size_t n = Effective(full_n, 40);
    const FeatureMatrix x = RandomInputs(n, 20, 101 + full_n);
    const std::vector<double> y = SyntheticTargets(x);
    const bench::RowLoad load;
    const uint64_t inc_before = IncrementalFitCount();
    const FitRun incremental = TimeSequentialFits(x, y, appends, true);
    const uint64_t inc_fits = IncrementalFitCount() - inc_before;
    const FitRun full = TimeSequentialFits(x, y, appends, false);
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "{\"bench\":\"gp_scaling\",\"task\":\"sequential_fit\",\"n\":%zu,"
        "\"appends\":%zu,\"threads\":%zu,%s,"
        "\"incremental_fits\":%llu,\"full_s\":%.6f,\"incremental_s\":%.6f,"
        "\"speedup\":%.2f,\"identical\":%s}\n",
        n, appends, ExecutionContext::Get().num_threads(),
        load.Fields().c_str(), static_cast<unsigned long long>(inc_fits),
        full.seconds, incremental.seconds,
        incremental.seconds > 0.0 ? full.seconds / incremental.seconds : 0.0,
        incremental.final_lml == full.final_lml ? "true" : "false");
    Emit(line);
  }
}

// The hyper-parameter grid sweep (5 lengthscales x 3 noise values) of a
// fresh exact fit at pool sizes 1/2/4, interleaved best of `kReps` each
// after `kWarmup` untimed rounds; the pool is built before the clock
// starts. Speedup is against the threads=1 row, the best single-thread
// baseline: at one thread the sweep's region runs inline with no pool
// overhead. `identical` compares the installed LML, factor and alpha
// bitwise against the threads=1 fit.
void BenchHyperoptFit() {
  constexpr int kWarmup = 2;
  constexpr int kReps = 5;
  const std::vector<size_t> pool_sizes = {1, 2, 4};
  const size_t grid = GaussianProcessOptions().lengthscale_grid.size() *
                      GaussianProcessOptions().noise_grid.size();
  const size_t original = ExecutionContext::Get().num_threads();
  for (size_t full_n : {250u, 500u}) {
    const size_t n = Effective(full_n, 40);
    const FeatureMatrix x = RandomInputs(n, 20, 401 + full_n);
    const std::vector<double> y = SyntheticTargets(x);
    const bench::RowLoad load;
    std::vector<std::vector<double>> fits(pool_sizes.size());
    const std::vector<double> best_s = bench::InterleavedBestOf(
        pool_sizes.size(), kWarmup, kReps, [&](size_t p) {
          ExecutionContext::Get().SetNumThreads(pool_sizes[p]);
          GlobalPool();
          GaussianProcess gp(std::make_unique<Matern52Kernel>());
          const double start = obs::MonotonicSeconds();
          if (!gp.Fit(x, y).ok()) {
            std::fprintf(stderr, "hyperopt fit failed\n");
            std::exit(1);
          }
          const double seconds = obs::MonotonicSeconds() - start;
          fits[p] = gp.cholesky_factor().data();
          fits[p].insert(fits[p].end(), gp.alpha().begin(), gp.alpha().end());
          fits[p].push_back(gp.log_marginal_likelihood());
          return seconds;
        });
    const std::string load_fields = load.Fields();
    for (size_t p = 0; p < pool_sizes.size(); ++p) {
      char line[512];
      std::snprintf(
          line, sizeof(line),
          "{\"bench\":\"gp_scaling\",\"task\":\"hyperopt_fit\",\"n\":%zu,"
          "\"grid\":%zu,\"threads\":%zu,%s,\"fit_s\":%.6f,"
          "\"baseline_s\":%.6f,\"speedup\":%.2f,\"identical\":%s}\n",
          n, grid, pool_sizes[p], load_fields.c_str(), best_s[p], best_s[0],
          best_s[p] > 0.0 ? best_s[0] / best_s[p] : 0.0,
          fits[p] == fits[0] ? "true" : "false");
      Emit(line);
    }
  }
  ExecutionContext::Get().SetNumThreads(original);
}

// One Cholesky factorization of a Matérn Gram matrix (d = 20, noise
// 1e-2) at one thread, best of `kReps` after `kWarmup` untimed rounds;
// the copy of the input stays off the clock. The factorization is serial
// at any pool size; this row tracks its single-thread speed.
void BenchCholesky() {
  constexpr int kWarmup = 2;
  constexpr int kReps = 7;
  Matern52Kernel kernel;
  kernel.set_lengthscale(0.4);
  for (size_t full_n : {130u, 250u, 500u}) {
    const size_t n = Effective(full_n, 40);
    const FeatureMatrix x = RandomInputs(n, 20, 503 + full_n);
    Matrix gram(n, n);
    for (size_t i = 0; i < n; ++i) {
      kernel.ComputeBlock(x[i], x.data(), n, kernel.lengthscale(),
                          gram.RowPtr(i));
    }
    gram.AddDiagonal(1e-2);
    const bench::RowLoad load;
    Matrix factor;
    const double factor_s =
        bench::InterleavedBestOf(1, kWarmup, kReps, [&](size_t) {
          factor = gram;
          const double start = obs::MonotonicSeconds();
          if (!CholeskyFactorize(&factor).ok()) {
            std::fprintf(stderr, "cholesky failed\n");
            std::exit(1);
          }
          return obs::MonotonicSeconds() - start;
        })[0];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"bench\":\"gp_scaling\",\"task\":\"cholesky\","
                  "\"n\":%zu,\"threads\":1,%s,\"factor_s\":%.6f}\n",
                  n, load.Fields().c_str(), factor_s);
    Emit(line);
  }
}

// Acquisition scoring of `num_queries` candidates in `d` dimensions: the
// per-candidate loop against one batched call, results compared bitwise.
void BenchBatchedPredict(size_t d) {
  const size_t n = Effective(500, 40);
  const size_t num_queries = Effective(2000, 200);
  const FeatureMatrix x = RandomInputs(n, d, 211);
  const std::vector<double> y = SyntheticTargets(x);
  const FeatureMatrix queries = RandomInputs(num_queries, d, 223);
  const bench::RowLoad load;
  GaussianProcess gp(std::make_unique<Matern52Kernel>());
  if (!gp.Fit(x, y).ok()) {
    std::fprintf(stderr, "fit failed\n");
    std::exit(1);
  }

  // Scalar baseline: the per-candidate loop the optimizers used to run.
  std::vector<double> scalar_means(num_queries), scalar_vars(num_queries);
  const double scalar_start = obs::MonotonicSeconds();
  for (size_t q = 0; q < num_queries; ++q) {
    gp.PredictMeanVar(queries[q], &scalar_means[q], &scalar_vars[q]);
  }
  const double scalar_s = obs::MonotonicSeconds() - scalar_start;

  std::vector<double> batch_means, batch_vars;
  const double batch_start = obs::MonotonicSeconds();
  gp.PredictMeanVarBatch(queries, &batch_means, &batch_vars);
  const double batch_s = obs::MonotonicSeconds() - batch_start;

  const bool identical =
      batch_means == scalar_means && batch_vars == scalar_vars;
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"gp_scaling\",\"task\":\"batched_predict\",\"n\":%zu,"
      "\"d\":%zu,\"queries\":%zu,\"threads\":%zu,%s,"
      "\"scalar_s\":%.6f,\"batch_s\":%.6f,\"speedup\":%.2f,"
      "\"identical\":%s}\n",
      n, d, num_queries, ExecutionContext::Get().num_threads(),
      load.Fields().c_str(), scalar_s, batch_s,
      batch_s > 0.0 ? scalar_s / batch_s : 0.0,
      identical ? "true" : "false");
  Emit(line);
}

// Parses a comma-separated list of sizes from `env_name`; returns
// `fallback` when unset/empty.
std::vector<size_t> SizesFromEnv(const char* env_name,
                                 std::vector<size_t> fallback) {
  const char* env = std::getenv(env_name);
  if (env == nullptr || env[0] == '\0') return fallback;
  std::vector<size_t> sizes;
  size_t value = 0;
  bool in_number = false;
  for (const char* p = env;; ++p) {
    if (*p >= '0' && *p <= '9') {
      value = value * 10 + static_cast<size_t>(*p - '0');
      in_number = true;
    } else {
      if (in_number) sizes.push_back(value);
      value = 0;
      in_number = false;
      if (*p == '\0') break;
    }
  }
  return sizes.empty() ? fallback : sizes;
}

// Single-combo hyper-parameter grids so the exact baseline and the
// sparse tier pay for one factorization each — the O(n^3) vs O(n*m^2)
// comparison, not a grid-size comparison.
GaussianProcessOptions OneShotExactOptions() {
  GaussianProcessOptions options;
  options.lengthscale_grid = {0.4};
  options.noise_grid = {1e-4};
  options.enable_incremental = false;
  return options;
}

SparseGaussianProcessOptions OneShotSparseOptions() {
  SparseGaussianProcessOptions options;
  options.lengthscale_grid = {0.4};
  options.noise_grid = {1e-4};
  return options;
}

double TimeExactFit(const FeatureMatrix& x, const std::vector<double>& y) {
  GaussianProcess gp(std::make_unique<Matern52Kernel>(), OneShotExactOptions());
  const double start = obs::MonotonicSeconds();
  if (!gp.Fit(x, y).ok()) {
    std::fprintf(stderr, "exact baseline fit failed\n");
    std::exit(1);
  }
  return obs::MonotonicSeconds() - start;
}

// Fits the sparse GP at the given pool size and returns the fingerprint
// used for the cross-pool bitwise identity check: LML, inducing indices,
// and predictions on `queries`.
std::vector<double> SparseFingerprint(const FeatureMatrix& x,
                                      const std::vector<double>& y,
                                      const FeatureMatrix& queries,
                                      size_t pool_size) {
  const size_t original = ExecutionContext::Get().num_threads();
  ExecutionContext::Get().SetNumThreads(pool_size);
  SparseGaussianProcess gp(std::make_unique<Matern52Kernel>(),
                           OneShotSparseOptions());
  if (!gp.Fit(x, y).ok()) {
    std::fprintf(stderr, "sparse fit failed\n");
    std::exit(1);
  }
  std::vector<double> out = {gp.log_marginal_likelihood()};
  for (size_t id : gp.inducing_indices()) {
    out.push_back(static_cast<double>(id));
  }
  std::vector<double> means, vars;
  gp.PredictMeanVarBatch(queries, &means, &vars);
  out.insert(out.end(), means.begin(), means.end());
  out.insert(out.end(), vars.begin(), vars.end());
  ExecutionContext::Get().SetNumThreads(original);
  return out;
}

// The sparse-tier headline: fit cost at n = 10k..100k against the exact
// GP, which is measured directly up to DBTUNE_BENCH_EXACT_MAX and
// extrapolated cubically (t ∝ n³) beyond it. Each row also sweeps pool
// sizes {1, 2, 8} and checks the results are bitwise identical.
void BenchSparseFit() {
  const std::vector<size_t> sizes = SizesFromEnv(
      "DBTUNE_BENCH_SIZES",
      {Effective(10000, 1500), Effective(30000, 4000),
       Effective(100000, 12000)});
  const size_t exact_max =
      SizesFromEnv("DBTUNE_BENCH_EXACT_MAX", {Effective(2000, 400)})[0];
  const size_t d = 20;

  // Cubic calibration point for sizes past the exact ceiling.
  const FeatureMatrix cal_x = RandomInputs(exact_max, d, 307);
  const double cal_s = TimeExactFit(cal_x, SyntheticTargets(cal_x));

  for (size_t n : sizes) {
    const bench::RowLoad load;
    const FeatureMatrix x = RandomInputs(n, d, 311 + n);
    const std::vector<double> y = SyntheticTargets(x);
    const FeatureMatrix queries = RandomInputs(32, d, 313);

    SparseGaussianProcess gp(std::make_unique<Matern52Kernel>(),
                             OneShotSparseOptions());
    const double start = obs::MonotonicSeconds();
    if (!gp.Fit(x, y).ok()) {
      std::fprintf(stderr, "sparse fit failed\n");
      std::exit(1);
    }
    const double sparse_s = obs::MonotonicSeconds() - start;

    double exact_s = 0.0;
    const char* exact_mode = nullptr;
    if (n <= exact_max) {
      exact_s = TimeExactFit(x, y);
      exact_mode = "measured";
    } else {
      const double ratio =
          static_cast<double>(n) / static_cast<double>(exact_max);
      exact_s = cal_s * ratio * ratio * ratio;
      exact_mode = "extrapolated";
    }

    const std::vector<double> pool1 = SparseFingerprint(x, y, queries, 1);
    const bool identical = pool1 == SparseFingerprint(x, y, queries, 2) &&
                           pool1 == SparseFingerprint(x, y, queries, 8);

    char line[512];
    std::snprintf(
        line, sizeof(line),
        "{\"bench\":\"gp_scaling\",\"task\":\"sparse_fit\",\"n\":%zu,"
        "\"m\":%zu,\"threads\":%zu,%s,\"sparse_s\":%.6f,"
        "\"exact_s\":%.6f,\"exact_mode\":\"%s\",\"speedup_vs_exact\":%.2f,"
        "\"identical\":%s}\n",
        n, gp.num_inducing(), ExecutionContext::Get().num_threads(),
        load.Fields().c_str(), sparse_s, exact_s, exact_mode,
        sparse_s > 0.0 ? exact_s / sparse_s : 0.0,
        identical ? "true" : "false");
    Emit(line);
  }
}

void WriteReportFile() {
  const char* path = std::getenv("DBTUNE_BENCH_GP_REPORT");
  if (path == nullptr || path[0] == '\0') path = "BENCH_GP.json";
  std::FILE* file = std::fopen(path, "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open DBTUNE_BENCH_GP_REPORT path %s\n", path);
    return;
  }
  std::fwrite(g_report.data(), 1, g_report.size(), file);
  std::fclose(file);
  std::printf("report written to %s\n", path);
}

}  // namespace
}  // namespace dbtune

int main() {
  dbtune::bench::Banner("GP incremental-fit, batched-predict, and sparse-"
                        "tier scaling",
                        "sequential BO fits at n in {100,250,500}, d=20; "
                        "acquisition scoring of 2000 candidates at n=500, "
                        "d in {20,197}; "
                        "hyperopt grid sweeps at n in {250,500} on 1/2/4 "
                        "threads; Cholesky at n in {130,250,500}; "
                        "sparse (FITC) fits at n in {10k,30k,100k}");
  // The incremental-fit counter proves the bordered-append path actually
  // ran (the identity check alone would also pass on silent fallback).
  dbtune::obs::SetMetricsEnabled(true);
  dbtune::BenchSequentialFits();
  dbtune::BenchBatchedPredict(20);
  dbtune::BenchBatchedPredict(197);
  dbtune::BenchHyperoptFit();
  dbtune::BenchCholesky();
  dbtune::BenchSparseFit();
  dbtune::WriteReportFile();
  return 0;
}
