#ifndef DBTUNE_BENCH_BENCH_UTIL_H_
#define DBTUNE_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment-reproduction benches. Every bench
// follows the paper's protocol but scales budgets by DBTUNE_BENCH_SCALE
// (default 0.3) so the full suite runs in minutes on a laptop; set
// DBTUNE_BENCH_SCALE=1 to replicate the paper's iteration counts exactly.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.h"
#include "core/tuning_session.h"
#include "dbms/environment.h"
#include "importance/importance.h"
#include "sampling/latin_hypercube.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace dbtune::bench {

/// Budget multiplier from DBTUNE_BENCH_SCALE (clamped to [0.05, 2]).
inline double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("DBTUNE_BENCH_SCALE");
    double value = env ? std::atof(env) : 0.3;
    if (value <= 0.0) value = 0.3;
    return std::clamp(value, 0.05, 2.0);
  }();
  return scale;
}

/// Paper iteration count scaled down, with a floor.
inline size_t ScaledIters(size_t paper_iterations, size_t floor = 40) {
  const auto scaled =
      static_cast<size_t>(static_cast<double>(paper_iterations) * Scale());
  return std::max(scaled, std::min(floor, paper_iterations));
}

/// Paper sample count scaled down, with a floor.
inline size_t ScaledSamples(size_t paper_samples, size_t floor = 300) {
  const auto scaled =
      static_cast<size_t>(static_cast<double>(paper_samples) * Scale());
  return std::max(scaled, std::min(floor, paper_samples));
}

/// Paper repetition count scaled (>= 2 so quartiles exist).
inline int ScaledRuns(int paper_runs) {
  return std::max(2, static_cast<int>(paper_runs * Scale() + 0.5));
}

/// Logical CPUs of the host (at least 1), recorded in bench rows so a
/// thread-scaling figure can be read against what the host offers.
inline size_t HostCpus() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// User plus system CPU seconds this process has consumed so far.
inline double ProcessCpuSeconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// The host's 1-minute load average (-1 when unavailable).
inline double LoadAverage1m() {
  double load[1];
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

/// The load a bench row was measured under, started when the row's work
/// starts: `Fields()` renders `"host_cpus":N,"cpu_s":S,"load_1m":L` with
/// the process CPU seconds spent since then. A row whose CPU seconds fall
/// well short of its threads times its wall seconds, or whose load
/// exceeds `host_cpus`, ran on a contended host.
class RowLoad {
 public:
  RowLoad() : cpu_start_(ProcessCpuSeconds()) {}

  std::string Fields() const {
    char fields[128];
    std::snprintf(fields, sizeof(fields),
                  "\"host_cpus\":%zu,\"cpu_s\":%.4f,\"load_1m\":%.2f",
                  HostCpus(), ProcessCpuSeconds() - cpu_start_,
                  LoadAverage1m());
    return fields;
  }

 private:
  double cpu_start_;
};

/// Best-of-`reps` seconds for each of `variants`, after `warmup` untimed
/// rounds. Repetitions cycle through the variants, so drift in host speed
/// hits all of them alike. `run(v)` does variant v's work once and returns
/// the seconds it measured, keeping its own setup off the clock.
template <typename Run>
std::vector<double> InterleavedBestOf(size_t variants, int warmup, int reps,
                                      Run run) {
  std::vector<double> best(variants, 0.0);
  for (int rep = -warmup; rep < reps; ++rep) {
    for (size_t v = 0; v < variants; ++v) {
      const double seconds = run(v);
      if (rep < 0) continue;
      if (rep == 0 || seconds < best[v]) best[v] = seconds;
    }
  }
  return best;
}

/// Prints the standard bench banner.
inline void Banner(const char* experiment, const char* paper_setup) {
  std::printf("=== %s ===\n", experiment);
  std::printf("paper setup: %s\n", paper_setup);
  std::printf("scale: %.2f (set DBTUNE_BENCH_SCALE to change)\n\n", Scale());
}

/// Collects an importance-measurement training set over the full catalog:
/// LHS samples evaluated on the simulator (the paper's 6250-sample
/// protocol, scaled).
struct ImportanceData {
  std::vector<Configuration> configs;
  std::vector<double> scores;
  double default_score = 0.0;
};

inline ImportanceData CollectImportanceData(DbmsSimulator* sim,
                                            size_t samples, uint64_t seed) {
  TuningEnvironment env(sim);
  Rng rng(seed);
  ImportanceData data;
  for (const Configuration& c :
       LatinHypercubeSample(sim->space(), samples, rng)) {
    const Observation obs = env.Evaluate(c);
    data.configs.push_back(obs.config);
    data.scores.push_back(obs.score);
  }
  data.default_score = env.default_score();
  return data;
}

/// Median final improvement over several seeded sessions of one optimizer
/// on one knob subset; optionally fills best-so-far traces (median run).
struct SessionSummary {
  double median_improvement = 0.0;
  double median_best_iteration = 0.0;
  std::vector<SessionResult> runs;
};

inline SessionSummary RunSessions(WorkloadId workload,
                                  HardwareInstance hardware,
                                  const std::vector<size_t>& knobs,
                                  OptimizerType optimizer, size_t iterations,
                                  int num_runs, uint64_t seed_base) {
  SessionSummary summary;
  summary.runs.resize(static_cast<size_t>(num_runs));
  // Replications are fully independent (each owns its simulator and its
  // seed) and land in their run slot, so the summary is identical to the
  // sequential loop at any pool size.
  ParallelFor(GlobalPool(), 0, static_cast<size_t>(num_runs), /*grain=*/1,
              [&](size_t begin, size_t end) {
                for (size_t run = begin; run < end; ++run) {
                  DbmsSimulator sim(workload, hardware,
                                    seed_base + 1000 * run);
                  summary.runs[run] = RunTuningSession(
                      &sim, knobs, optimizer, iterations, seed_base + run);
                }
              });
  std::vector<double> improvements, best_iters;
  for (const SessionResult& run : summary.runs) {
    improvements.push_back(run.final_improvement);
    best_iters.push_back(static_cast<double>(run.best_iteration));
  }
  summary.median_improvement = Median(improvements);
  summary.median_best_iteration = Median(best_iters);
  return summary;
}

}  // namespace dbtune::bench

#endif  // DBTUNE_BENCH_BENCH_UTIL_H_
