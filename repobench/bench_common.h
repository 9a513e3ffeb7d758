#ifndef REPOBENCH_BENCH_COMMON_H_
#define REPOBENCH_BENCH_COMMON_H_

// Shared pieces of the repository benchmark: run configuration, the
// report every workload fills, sample statistics, and the pass-through
// optimizer that stamps the layer boundaries of each tuning iteration.
// Everything here calls the library only through its public headers.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dbms/environment.h"
#include "optimizer/optimizer.h"

namespace repobench {

/// Command-line inputs of one benchmark invocation.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Work size: each workload derives its sizes from it (never from the
  /// clock) so that its timed phases take at most about this long on a
  /// 4-CPU host; one (seed, seconds) pair is one input.
  int seconds = 1;
  /// Per-layer run: an untraced pass, then a traced pass of the same
  /// inputs with the metrics registry enabled.
  bool trace = false;
  /// Directory for store files and session logs (created by the caller).
  std::string scratch;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: metrics plus the correctness tally.
/// Every check counts as one attempted operation, as does every tuning
/// iteration and served request; failures feed `error_rate`.
struct RunReport {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// host_cpus, pool threads, seed and sizes, printed with the result.
  std::vector<std::pair<std::string, std::string>> context;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;

  /// Counts one check; records `what` when it failed.
  void Check(bool ok, const std::string& what);
  /// Counts operations whose failures were tallied elsewhere.
  void Count(size_t operations, size_t failures_seen);
  /// Adds a metric named in EndToEndSpecs() / LayerSpecs(); the unit
  /// comes from the spec.
  void AddEndToEnd(const std::string& name, double value);
  void AddLayer(const std::string& name, double value);
  void AddContext(const std::string& key, const std::string& value);
};

/// Monotonic wall clock in seconds (steady_clock).
double Now();

/// Nearest-rank quantile of `samples` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);
double Sum(const std::vector<double>& samples);

/// The highest of the reported percentiles (p99.9, p99, p90, p50) that
/// has at least ten of `n` samples beyond it; p50 when none does.
double TailQuantile(size_t n);

/// Tail quantile capped at `cap` (e.g. 0.99 for a metric named p99).
double CappedTail(const std::vector<double>& samples, double cap);

/// `values` times `factor` (unit conversion).
std::vector<double> Scaled(std::vector<double> values, double factor);

/// Knob indices 0..n-1: the leading knobs of the catalog.
std::vector<size_t> LeadingKnobs(size_t n);

/// Deterministic 64-bit mix of (seed, stream): every generated input is
/// a function of the benchmark seed alone.
uint64_t Mix(uint64_t seed, uint64_t stream);

double PeakRssMb();
size_t HostCpus();
/// Size of a regular file in bytes; 0 when it does not exist.
double FileBytes(const std::string& path);
/// Removes `path` recursively (no error when absent).
void RemoveTree(const std::string& path);
void MakeDirs(const std::string& path);

/// Bitwise equality of observation histories (configs, scores,
/// objectives, failure flags and internal metrics).
bool SameHistory(const std::vector<dbtune::Observation>& a,
                 const std::vector<dbtune::Observation>& b);
bool AllFinite(const std::vector<double>& values);

/// True when `name` is a valid metric name: starts with a letter or a
/// digit, at most 64 of [A-Za-z0-9_.-].
bool ValidMetricName(const std::string& name);

/// Layer boundaries of one tuning iteration, stamped from outside the
/// optimizer.
struct IterationStamp {
  double suggest_begin = 0.0;
  double suggest_end = 0.0;
  double observe_begin = 0.0;
  double observe_end = 0.0;
};

/// Pass-through optimizer that times every Suggest and Observe of the
/// optimizer it wraps, forwarding like ProjectedOptimizer: the base class
/// keeps its own copy of the history, `last_suggest_info()` is copied
/// from the inner optimizer, and every call goes to the inner optimizer
/// unchanged, so a wrapped session follows the unwrapped trajectory bit
/// for bit.
class TimedOptimizer final : public dbtune::Optimizer {
 public:
  explicit TimedOptimizer(std::unique_ptr<dbtune::Optimizer> inner);

  dbtune::Configuration Suggest() override;
  void Observe(const dbtune::Configuration& config, double score) override;
  void ObserveWithMetrics(const dbtune::Configuration& config, double score,
                          const std::vector<double>& metrics) override;
  void SetReferenceScore(double score) override;
  std::string name() const override;

  const std::vector<IterationStamp>& stamps() const { return stamps_; }

 private:
  std::unique_ptr<dbtune::Optimizer> inner_;
  std::vector<IterationStamp> stamps_;
};

/// Metrics-registry totals of the surrogate, pool and serve layers, read
/// after a traced phase (the registry is reset when the phase starts).
struct RegistryTotals {
  double gp_fit_s = 0.0;
  double gp_fits = 0.0;
  double gp_fit_incremental = 0.0;
  double gp_hyperopt_runs = 0.0;
  double gp_predict_batch_s = 0.0;
  double gp_predict_s = 0.0;
  double forest_fit_s = 0.0;
  double forest_fits = 0.0;
  double pool_tasks = 0.0;
  double pool_busy_s = 0.0;
  double pool_queue_depth_peak = 0.0;
  double serve_suggest_sum_s = 0.0;
  double serve_suggest_p99_s = 0.0;
  double serve_batch_width_mean = 0.0;
};

/// Zeroes the registry and enables (or disables) recording.
void StartRegistry(bool enabled);
RegistryTotals ReadRegistry(size_t pool_threads);

/// Appends the surrogate.* and util.* layer metrics; `wall_s` is the
/// traced phase the pool utilization is taken over.
void AddRegistryLayers(const RegistryTotals& totals, size_t pool_threads,
                       double wall_s, RunReport* report);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, in output order (BENCHMARK.json lists the
/// same names and units).
const std::vector<MetricSpec>& EndToEndSpecs();
/// Every per-layer metric, in output order. A workload reports 0 for a
/// layer it does not exercise.
const std::vector<MetricSpec>& LayerSpecs();

/// Adds every per-layer metric missing from the report with the value 0
/// (the layer did no work in this workload).
void FillMissingLayers(RunReport* report);

RunReport RunTuneGp(const RunConfig& config);
RunReport RunTuneMix(const RunConfig& config);
RunReport RunServeFleet(const RunConfig& config);

/// The generated inputs of a workload, one line per session (no tuning
/// is run).
std::string DescribeTunePlan(const RunConfig& config);
std::string DescribeFleetPlan(const RunConfig& config);

/// Wrapped and unwrapped sessions of `type` (optionally projected)
/// produce bitwise-identical histories. Used by the self-test and by the
/// tune workloads' correctness checks.
bool WrapperIsTransparent(dbtune::OptimizerType type, size_t projection_dims,
                          size_t knobs, size_t iterations, uint64_t seed);

}  // namespace repobench

#endif  // REPOBENCH_BENCH_COMMON_H_
