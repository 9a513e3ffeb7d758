#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "obs/metrics.h"

namespace repobench {

using dbtune::Configuration;
using dbtune::Observation;
using dbtune::Optimizer;

namespace {

const MetricSpec* FindSpec(const std::vector<MetricSpec>& specs,
                           const std::string& name) {
  for (const MetricSpec& spec : specs) {
    if (name == spec.name) return &spec;
  }
  std::fprintf(stderr, "repobench: unknown metric '%s'\n", name.c_str());
  std::abort();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

void RunReport::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

void RunReport::Count(size_t operations, size_t failures_seen) {
  attempted += operations;
  failed += failures_seen;
}

void RunReport::AddEndToEnd(const std::string& name, double value) {
  end_to_end.push_back({name, value, FindSpec(EndToEndSpecs(), name)->unit});
}

void RunReport::AddLayer(const std::string& name, double value) {
  per_layer.push_back({name, value, FindSpec(LayerSpecs(), name)->unit});
}

void RunReport::AddContext(const std::string& key, const std::string& value) {
  context.emplace_back(key, value);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(samples.size() - 1,
                                static_cast<size_t>(rank) - 1);
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double Sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (const double v : samples) total += v;
  return total;
}

double Mean(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : Sum(samples) / static_cast<double>(samples.size());
}

double TailQuantile(size_t n) {
  // Samples beyond the nearest-rank position of q: n - ceil(q*n). The
  // rank is computed on integers (per mille) so no rounding creeps in.
  for (const size_t per_mille : {999u, 990u, 900u}) {
    const size_t rank = (per_mille * n + 999) / 1000;
    if (n - rank >= 10) return static_cast<double>(per_mille) / 1000.0;
  }
  return 0.5;
}

double CappedTail(const std::vector<double>& samples, double cap) {
  return Quantile(samples, std::min(cap, TailQuantile(samples.size())));
}

std::vector<double> Scaled(std::vector<double> values, double factor) {
  for (double& v : values) v *= factor;
  return values;
}

std::vector<size_t> LeadingKnobs(size_t n) {
  std::vector<size_t> indices(n);
  for (size_t i = 0; i < n; ++i) indices[i] = i;
  return indices;
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  // SplitMix64 over the pair.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

size_t HostCpus() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

double FileBytes(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? 0.0 : static_cast<double>(size);
}

void RemoveTree(const std::string& path) {
  std::error_code error;
  std::filesystem::remove_all(path, error);
}

void MakeDirs(const std::string& path) {
  std::error_code error;
  std::filesystem::create_directories(path, error);
}

bool SameHistory(const std::vector<Observation>& a,
                 const std::vector<Observation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i].config.values(), b[i].config.values()) ||
        !SameBits(a[i].score, b[i].score) ||
        !SameBits(a[i].objective, b[i].objective) ||
        a[i].failed != b[i].failed ||
        !SameBits(a[i].internal_metrics, b[i].internal_metrics)) {
      return false;
    }
  }
  return true;
}

bool AllFinite(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 || !std::isalnum(
          static_cast<unsigned char>(name.front()))) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

TimedOptimizer::TimedOptimizer(std::unique_ptr<Optimizer> inner)
    : Optimizer(inner->space(), dbtune::OptimizerOptions{}),
      inner_(std::move(inner)) {}

Configuration TimedOptimizer::Suggest() {
  IterationStamp stamp;
  stamp.suggest_begin = Now();
  Configuration config = inner_->Suggest();
  suggest_info_ = inner_->last_suggest_info();
  stamp.suggest_end = Now();
  stamps_.push_back(stamp);
  return config;
}

void TimedOptimizer::Observe(const Configuration& config, double score) {
  const double begin = Now();
  Optimizer::Observe(config, score);
  inner_->Observe(config, score);
  if (!stamps_.empty()) {
    stamps_.back().observe_begin = begin;
    stamps_.back().observe_end = Now();
  }
}

void TimedOptimizer::ObserveWithMetrics(const Configuration& config,
                                        double score,
                                        const std::vector<double>& metrics) {
  const double begin = Now();
  Optimizer::Observe(config, score);
  inner_->ObserveWithMetrics(config, score, metrics);
  if (!stamps_.empty()) {
    stamps_.back().observe_begin = begin;
    stamps_.back().observe_end = Now();
  }
}

void TimedOptimizer::SetReferenceScore(double score) {
  inner_->SetReferenceScore(score);
}

std::string TimedOptimizer::name() const { return inner_->name(); }

void StartRegistry(bool enabled) {
  dbtune::obs::SetMetricsEnabled(enabled);
  dbtune::obs::MetricsRegistry::Get().Reset();
}

RegistryTotals ReadRegistry(size_t pool_threads) {
  dbtune::obs::MetricsRegistry& registry = dbtune::obs::MetricsRegistry::Get();
  auto hist = [&](const char* name) -> dbtune::obs::Histogram& {
    return registry.histogram(name);
  };
  RegistryTotals totals;
  totals.gp_fit_s = hist("gp.fit").sum_seconds();
  totals.gp_fits = static_cast<double>(hist("gp.fit").count());
  totals.gp_fit_incremental =
      static_cast<double>(hist("gp.fit.incremental").count());
  totals.gp_hyperopt_runs =
      static_cast<double>(registry.counter("gp.hyperopt.runs").value());
  totals.gp_predict_batch_s = hist("gp.predict.batch").sum_seconds();
  totals.gp_predict_s = hist("gp.predict").sum_seconds();
  totals.forest_fit_s = hist("forest.fit").sum_seconds();
  totals.forest_fits = static_cast<double>(hist("forest.fit").count());
  totals.pool_tasks =
      static_cast<double>(registry.counter("pool.tasks_executed").value());
  for (size_t worker = 0; worker < pool_threads; ++worker) {
    totals.pool_busy_s +=
        registry.gauge("pool.worker_busy_seconds." + std::to_string(worker))
            .value();
  }
  totals.pool_queue_depth_peak =
      registry.gauge("pool.queue_depth_peak").value();
  dbtune::obs::Histogram& suggest = hist("serve.suggest.latency");
  totals.serve_suggest_sum_s = suggest.sum_seconds();
  totals.serve_suggest_p99_s = suggest.Percentile(0.99);
  // The scheduler records each wave's width as if it were seconds.
  dbtune::obs::Histogram& width = hist("serve.batch.width");
  totals.serve_batch_width_mean =
      width.count() == 0
          ? 0.0
          : width.sum_seconds() / static_cast<double>(width.count());
  return totals;
}

void AddRegistryLayers(const RegistryTotals& totals, size_t pool_threads,
                       double wall_s, RunReport* report) {
  report->AddLayer("surrogate.gp_fit_s", totals.gp_fit_s);
  report->AddLayer("surrogate.gp_fits", totals.gp_fits);
  report->AddLayer("surrogate.gp_fit_incremental_share",
                   totals.gp_fits > 0.0
                       ? totals.gp_fit_incremental / totals.gp_fits
                       : 0.0);
  report->AddLayer("surrogate.gp_hyperopt_runs", totals.gp_hyperopt_runs);
  report->AddLayer("surrogate.gp_predict_batch_s", totals.gp_predict_batch_s);
  report->AddLayer("surrogate.forest_fit_s", totals.forest_fit_s);
  report->AddLayer("surrogate.forest_fits", totals.forest_fits);
  report->AddLayer("util.pool_tasks", totals.pool_tasks);
  report->AddLayer("util.pool_busy_s", totals.pool_busy_s);
  report->AddLayer(
      "util.pool_utilization",
      wall_s > 0.0 ? totals.pool_busy_s /
                         (static_cast<double>(pool_threads) * wall_s)
                   : 0.0);
  report->AddLayer("util.pool_queue_depth_peak", totals.pool_queue_depth_peak);
}

const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"iters_per_s", "1/s"},       {"iter_ms_p50", "ms"},
      {"iter_ms_p99", "ms"},        {"recover_s", "s"},
      {"setup_s", "s"},             {"improvement_pct", "%"},
      {"success_rate", "ratio"},    {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& LayerSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"optimizer.suggest_ms_p50", "ms"},
      {"optimizer.suggest_ms_p99", "ms"},
      {"optimizer.observe_ms_p50", "ms"},
      {"optimizer.suggest_self_s", "s"},
      {"optimizer.suggest_s.vanilla_bo", "s"},
      {"optimizer.suggest_s.mixed_kernel_bo", "s"},
      {"optimizer.suggest_s.smac", "s"},
      {"optimizer.suggest_s.tpe", "s"},
      {"optimizer.suggest_s.turbo", "s"},
      {"optimizer.suggest_s.ddpg", "s"},
      {"optimizer.suggest_s.ga", "s"},
      {"optimizer.suggest_s.projected", "s"},
      {"optimizer.suggest_s.rgpe", "s"},
      {"optimizer.suggest_s.workload_mapping", "s"},
      {"core.loop_ms_mean", "ms"},
      {"core.unattributed_pct", "%"},
      {"surrogate.gp_fit_s", "s"},
      {"surrogate.gp_fits", "count"},
      {"surrogate.gp_fit_incremental_share", "ratio"},
      {"surrogate.gp_hyperopt_runs", "count"},
      {"surrogate.gp_predict_batch_s", "s"},
      {"surrogate.forest_fit_s", "s"},
      {"surrogate.forest_fits", "count"},
      {"util.pool_tasks", "count"},
      {"util.pool_busy_s", "s"},
      {"util.pool_utilization", "ratio"},
      {"util.pool_queue_depth_peak", "count"},
      {"serve.suggest_wave_ms_p50", "ms"},
      {"serve.suggest_wave_ms_p99", "ms"},
      {"serve.observe_wave_ms_p50", "ms"},
      {"serve.observe_wave_ms_p99", "ms"},
      {"serve.session_suggest_ms_p99", "ms"},
      {"serve.batch_width_mean", "count"},
      {"serve.wave_efficiency", "ratio"},
      {"serve.client_codec_s", "s"},
      {"serve.requests", "count"},
      {"serve.errors", "count"},
      {"serve.resurrect_ms_p50", "ms"},
      {"serve.resurrect_ms_p99", "ms"},
      {"store.open_s", "s"},
      {"store.append_ms_p50", "ms"},
      {"store.append_ms_p99", "ms"},
      {"store.records", "count"},
      {"store.checkpoints", "count"},
      {"store.replayed_records", "count"},
      {"store.wal_bytes", "bytes"},
      {"store.snapshot_bytes", "bytes"},
      {"dbms.evaluate_us_p50", "us"},
      {"obs.trace_overhead_pct", "%"},
  };
  return specs;
}

void FillMissingLayers(RunReport* report) {
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : LayerSpecs()) {
    const auto it = std::find_if(
        report->per_layer.begin(), report->per_layer.end(),
        [&](const Metric& m) { return m.name == spec.name; });
    ordered.push_back(it != report->per_layer.end()
                          ? *it
                          : Metric{spec.name, 0.0, spec.unit});
  }
  report->per_layer = std::move(ordered);
}

}  // namespace repobench
