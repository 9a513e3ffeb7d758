// Standalone tuning workloads: `tune_gp` (exact-GP cost at growing
// history, pool of 2) and `tune_mix` (every optimizer family, HeSBO
// projection, transfer learning, 197 knobs, store + diagnostics +
// session log, pool of 1). Both drive RunTuningSession with each
// optimizer wrapped in a TimedOptimizer, which stamps the suggest and
// observe boundaries of every iteration from outside the library.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/tuning_session.h"
#include "dbms/environment.h"
#include "dbms/simulator.h"
#include "optimizer/projected_optimizer.h"
#include "store/observation_store.h"
#include "transfer/repository.h"
#include "transfer/rgpe.h"
#include "transfer/workload_mapping.h"
#include "util/thread_pool.h"

namespace repobench {
namespace {

using dbtune::DbmsSimulator;
using dbtune::ExecutionContext;
using dbtune::HardwareInstance;
using dbtune::Observation;
using dbtune::ObservationRepository;
using dbtune::Optimizer;
using dbtune::OptimizerOptions;
using dbtune::OptimizerType;
using dbtune::SessionControls;
using dbtune::SessionResult;
using dbtune::TuningEnvironment;
using dbtune::WorkloadId;
using dbtune::store::ObservationStore;

/// Optimizer families; the key names the per-family suggest metric.
enum class Family {
  kVanillaBo,
  kMixedKernelBo,
  kSmac,
  kTpe,
  kTurbo,
  kDdpg,
  kGa,
  kProjected,
  kRgpe,
  kWorkloadMapping,
};

const char* FamilyKey(Family family) {
  switch (family) {
    case Family::kVanillaBo: return "vanilla_bo";
    case Family::kMixedKernelBo: return "mixed_kernel_bo";
    case Family::kSmac: return "smac";
    case Family::kTpe: return "tpe";
    case Family::kTurbo: return "turbo";
    case Family::kDdpg: return "ddpg";
    case Family::kGa: return "ga";
    case Family::kProjected: return "projected";
    case Family::kRgpe: return "rgpe";
    case Family::kWorkloadMapping: return "workload_mapping";
  }
  return "unknown";
}

constexpr Family kAllFamilies[] = {
    Family::kVanillaBo, Family::kMixedKernelBo, Family::kSmac,
    Family::kTpe,       Family::kTurbo,         Family::kDdpg,
    Family::kGa,        Family::kProjected,     Family::kRgpe,
    Family::kWorkloadMapping};

/// Dimension of the HeSBO box in tune_mix (LlamaTune's setting).
constexpr size_t kProjectionDims = 16;
/// Setups per pass; setup_s is the median over all passes of a run.
constexpr size_t kSetupRepeats = 8;
/// Store reopenings per replica; the fastest one counts.
constexpr size_t kReopenRepeats = 5;
/// Warm restarts per tune_gp session; the fastest one counts.
constexpr size_t kRestartRepeats = 3;

struct SessionSpec {
  std::string id;
  Family family = Family::kVanillaBo;
  WorkloadId workload = WorkloadId::kSysbench;
  uint64_t simulator_seed = 0;
  uint64_t optimizer_seed = 0;
  size_t iterations = 0;
  /// Sealed into the store as a transfer base task when it finishes.
  bool seal = false;
};

struct TunePlan {
  size_t pool_threads = 1;
  /// Leading knobs tuned; 0 tunes the full 197-knob catalog.
  size_t knobs = 0;
  /// Store, diagnostics and session log on.
  bool store = false;
  std::vector<SessionSpec> sessions;
};

/// A run executes `sets` session plans with distinct optimizer seeds
/// (more sessions steady the mean improvement), each `replicas` times.
/// The sessions are deterministic, so the replicas of a set do identical
/// work; each iteration's time is its minimum over the replicas, which
/// keeps host stalls that hit some replicas out of the metrics.
struct RunShape {
  size_t sets = 1;
  size_t replicas = 1;
};

RunShape ShapeFor(const RunConfig& config) {
  if (config.workload == "tune_gp") return RunShape{1, 3};
  // ≈2.7 s per set and replica at 50 iterations per session on a 4-CPU
  // host; the timed phases take about 70% of `seconds`.
  return RunShape{static_cast<size_t>(
                      std::max(1L, std::lround(config.seconds / 7.5))),
                  2};
}

/// Optimizer seed of session `index` in set `set`. The simulated DBMS
/// instances are a fixed testbed; the run seed drives the tuners.
uint64_t OptimizerSeed(uint64_t seed, size_t set, size_t index) {
  return Mix(seed, 1000 * set + index) % 1000003;
}

TunePlan MakeGpPlan(uint64_t seed, int seconds, size_t set) {
  // ≈0.75 s per 250-iteration session at 2 threads on a 4-CPU host; the
  // timed phases of all replicas take about 60% of `seconds`.
  TunePlan plan;
  plan.pool_threads = 2;
  plan.knobs = 20;
  const size_t sessions =
      static_cast<size_t>(std::max(1L, std::lround(seconds / 3.75)));
  const size_t iterations = seconds >= 2 ? 250 : 100;
  for (size_t i = 0; i < sessions; ++i) {
    SessionSpec spec;
    spec.id = "gp-" + std::to_string(i);
    spec.simulator_seed = 7000 + i;
    spec.optimizer_seed = OptimizerSeed(seed, set, i);
    spec.iterations = iterations;
    plan.sessions.push_back(spec);
  }
  return plan;
}

TunePlan MakeMixPlan(uint64_t seed, int seconds, size_t set) {
  // The Fig. 7 set plus a HeSBO-projected Vanilla BO, one per workload,
  // then RGPE and workload mapping over the sealed sessions.
  const struct {
    Family family;
    WorkloadId workload;
  } kSealed[] = {
      {Family::kVanillaBo, WorkloadId::kTpcc},
      {Family::kMixedKernelBo, WorkloadId::kSeats},
      {Family::kSmac, WorkloadId::kSmallbank},
      {Family::kTpe, WorkloadId::kTatp},
      {Family::kTurbo, WorkloadId::kVoter},
      {Family::kDdpg, WorkloadId::kTwitter},
      {Family::kGa, WorkloadId::kSibench},
      {Family::kProjected, WorkloadId::kJob},
  };
  TunePlan plan;
  plan.pool_threads = 1;
  plan.knobs = 0;
  plan.store = true;
  const size_t iterations =
      static_cast<size_t>(std::clamp(5 * seconds, 12, 50));
  size_t index = 0;
  auto add = [&](Family family, WorkloadId workload, bool seal) {
    SessionSpec spec;
    spec.id = std::string("mix-") + FamilyKey(family);
    spec.family = family;
    spec.workload = workload;
    spec.simulator_seed = 7000 + index;
    spec.optimizer_seed = OptimizerSeed(seed, set, index);
    spec.iterations = iterations;
    spec.seal = seal;
    plan.sessions.push_back(spec);
    ++index;
  };
  for (const auto& sealed : kSealed) add(sealed.family, sealed.workload, true);
  add(Family::kRgpe, WorkloadId::kSysbench, false);
  add(Family::kWorkloadMapping, WorkloadId::kSysbench, false);
  return plan;
}

TunePlan PlanFor(const RunConfig& config, size_t set) {
  return config.workload == "tune_gp"
             ? MakeGpPlan(config.seed, config.seconds, set)
             : MakeMixPlan(config.seed, config.seconds, set);
}

std::unique_ptr<Optimizer> MakeOptimizer(
    Family family, const dbtune::ConfigurationSpace& space, uint64_t seed,
    const ObservationRepository* tasks) {
  OptimizerOptions options;
  options.seed = seed;
  switch (family) {
    case Family::kVanillaBo:
      return dbtune::CreateOptimizer(OptimizerType::kVanillaBo, space, options);
    case Family::kMixedKernelBo:
      return dbtune::CreateOptimizer(OptimizerType::kMixedKernelBo, space,
                                     options);
    case Family::kSmac:
      return dbtune::CreateOptimizer(OptimizerType::kSmac, space, options);
    case Family::kTpe:
      return dbtune::CreateOptimizer(OptimizerType::kTpe, space, options);
    case Family::kTurbo:
      return dbtune::CreateOptimizer(OptimizerType::kTurbo, space, options);
    case Family::kDdpg:
      return dbtune::CreateOptimizer(OptimizerType::kDdpg, space, options);
    case Family::kGa:
      return dbtune::CreateOptimizer(OptimizerType::kGa, space, options);
    case Family::kProjected: {
      dbtune::ProjectionOptions projection;
      projection.dims = kProjectionDims;
      projection.seed = seed;
      return std::make_unique<dbtune::ProjectedOptimizer>(
          space, options, OptimizerType::kVanillaBo, projection);
    }
    case Family::kRgpe:
      return std::make_unique<dbtune::RgpeOptimizer>(
          space, options, tasks, dbtune::TransferBase::kMixedKernelBo);
    case Family::kWorkloadMapping:
      return std::make_unique<dbtune::WorkloadMappingOptimizer>(
          space, options, tasks, dbtune::TransferBase::kSmac);
  }
  return nullptr;
}

std::unique_ptr<TuningEnvironment> MakeEnvironment(DbmsSimulator* simulator,
                                                   size_t knobs) {
  return knobs == 0
             ? std::make_unique<TuningEnvironment>(simulator)
             : std::make_unique<TuningEnvironment>(simulator,
                                                   LeadingKnobs(knobs));
}

/// Live objects of one pass: built by the (timed, repeated) setup.
struct Fixture {
  struct Session {
    std::unique_ptr<DbmsSimulator> simulator;
    std::unique_ptr<TuningEnvironment> env;
    std::unique_ptr<TimedOptimizer> optimizer;
  };
  /// Transfer base tasks; filled from the store once the sealed sessions
  /// finished (the transfer optimizers read it lazily).
  std::unique_ptr<ObservationRepository> tasks;
  std::unique_ptr<ObservationStore> store;
  std::vector<Session> sessions;
};

std::string StorePath(const std::string& dir) { return dir + "/store.wal"; }

Fixture BuildFixture(const TunePlan& plan, const std::string& dir,
                     RunReport* report) {
  Fixture fixture;
  fixture.tasks = std::make_unique<ObservationRepository>();
  if (plan.store) {
    auto opened = ObservationStore::Open(StorePath(dir));
    report->Check(opened.ok(), "open store");
    if (opened.ok()) fixture.store = std::move(opened).value();
  }
  for (const SessionSpec& spec : plan.sessions) {
    Fixture::Session session;
    session.simulator = std::make_unique<DbmsSimulator>(
        spec.workload, HardwareInstance::kB, spec.simulator_seed);
    session.env = MakeEnvironment(session.simulator.get(), plan.knobs);
    session.optimizer = std::make_unique<TimedOptimizer>(
        MakeOptimizer(spec.family, session.env->space(), spec.optimizer_seed,
                      fixture.tasks.get()));
    fixture.sessions.push_back(std::move(session));
  }
  return fixture;
}

struct SessionOutcome {
  SessionResult result;
  std::vector<IterationStamp> stamps;
  double end = 0.0;
  std::vector<Observation> history;
};

struct TunePass {
  std::vector<double> setup_s;
  double timed_s = 0.0;
  std::vector<SessionOutcome> outcomes;
  RegistryTotals registry;
  dbtune::store::StoreStats store_stats;
};

/// Runs every session of the plan once. The setup is built
/// kSetupRepeats times (each from scratch) and the last one is used.
TunePass RunPass(const TunePlan& plan, const std::string& dir, bool traced,
                 RunReport* report) {
  ExecutionContext::Get().SetNumThreads(plan.pool_threads);
  TunePass pass;
  Fixture fixture;
  std::vector<double> setups;
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
    fixture = Fixture();
    RemoveTree(dir);
    MakeDirs(dir);
    RunReport scratch_checks;
    const double start = Now();
    fixture = BuildFixture(plan, dir, &scratch_checks);
    setups.push_back(Now() - start);
    if (rep + 1 == kSetupRepeats) {
      report->Count(scratch_checks.attempted, scratch_checks.failed);
      for (const std::string& failure : scratch_checks.failures) {
        report->failures.push_back(failure);
      }
    }
  }
  pass.setup_s = setups;

  if (traced) StartRegistry(true);
  const double start = Now();
  for (size_t i = 0; i < plan.sessions.size(); ++i) {
    const SessionSpec& spec = plan.sessions[i];
    Fixture::Session& session = fixture.sessions[i];
    if ((spec.family == Family::kRgpe ||
         spec.family == Family::kWorkloadMapping) &&
        fixture.tasks->empty() && fixture.store != nullptr) {
      fixture.store->ExportTasks(fixture.tasks.get());
    }
    SessionControls controls;
    if (plan.store && fixture.store != nullptr) {
      controls.store = fixture.store.get();
      controls.store_session_id = spec.id;
      controls.session_label = spec.id;
      controls.diagnostics = true;
      controls.session_log_path = dir + "/" + spec.id + ".jsonl";
    }
    SessionOutcome outcome;
    outcome.result = dbtune::RunTuningSession(
        session.env.get(), session.optimizer.get(), spec.iterations, controls);
    outcome.end = Now();
    if (spec.seal && fixture.store != nullptr) {
      report->Check(fixture.store
                        ->FinishSession(spec.id, session.env->space(), spec.id)
                        .ok(),
                    "seal " + spec.id);
    }
    outcome.stamps = session.optimizer->stamps();
    outcome.history = session.env->history();
    pass.outcomes.push_back(std::move(outcome));
  }
  pass.timed_s = Now() - start;
  if (traced) {
    pass.registry = ReadRegistry(plan.pool_threads);
    StartRegistry(false);
  }
  if (fixture.store != nullptr) pass.store_stats = fixture.store->stats();

  for (size_t i = 0; i < plan.sessions.size(); ++i) {
    const SessionSpec& spec = plan.sessions[i];
    const SessionOutcome& outcome = pass.outcomes[i];
    const bool complete =
        outcome.result.improvement_trace.size() == spec.iterations &&
        outcome.result.objective_trace.size() == spec.iterations &&
        outcome.history.size() == spec.iterations &&
        outcome.stamps.size() == spec.iterations;
    report->Check(complete, spec.id + " completed its iterations");
    report->Check(AllFinite(outcome.result.improvement_trace) &&
                      AllFinite(outcome.result.objective_trace),
                  spec.id + " traces are finite");
    report->Count(outcome.history.size(), 0);
  }
  return pass;
}

/// Per-iteration layer times (seconds) of one pass.
struct IterationTimes {
  std::vector<double> iteration;
  std::vector<double> suggest;
  std::vector<double> observe;
  std::vector<double> loop;  // evaluate + WAL append + diagnostics + log
};

IterationTimes SplitIterations(const TunePass& pass) {
  IterationTimes times;
  for (const SessionOutcome& outcome : pass.outcomes) {
    const auto& stamps = outcome.stamps;
    for (size_t k = 0; k < stamps.size(); ++k) {
      const IterationStamp& s = stamps[k];
      const double next =
          k + 1 < stamps.size() ? stamps[k + 1].suggest_begin : outcome.end;
      times.iteration.push_back(next - s.suggest_begin);
      times.suggest.push_back(s.suggest_end - s.suggest_begin);
      times.observe.push_back(s.observe_end - s.observe_begin);
      times.loop.push_back((s.observe_begin - s.suggest_end) +
                           (next - s.observe_end));
    }
  }
  return times;
}

double MeanImprovement(const TunePass& pass) {
  std::vector<double> finals;
  for (const SessionOutcome& outcome : pass.outcomes) {
    finals.push_back(outcome.result.final_improvement);
  }
  return Mean(finals);
}

/// Each iteration's time, minimum over the replicas.
std::vector<double> FastestOf(const std::vector<TunePass>& passes) {
  std::vector<double> fastest = SplitIterations(passes.front()).iteration;
  for (size_t k = 1; k < passes.size(); ++k) {
    const std::vector<double> other = SplitIterations(passes[k]).iteration;
    for (size_t i = 0; i < fastest.size(); ++i) {
      fastest[i] = std::min(fastest[i], other[i]);
    }
  }
  return fastest;
}

size_t TotalIterations(const TunePass& pass) {
  size_t total = 0;
  for (const SessionOutcome& outcome : pass.outcomes) {
    total += outcome.stamps.size();
  }
  return total;
}

/// tune_gp recovery: a fresh optimizer is fed each session's recorded
/// history and asked for its next suggestion (the warm restart of a
/// standalone session that keeps no store). Each session restarts
/// kRestartRepeats times; the median over sessions of their fastest
/// restart is reported.
double WarmRestartSeconds(const TunePlan& plan, const TunePass& pass) {
  std::vector<double> times;
  for (size_t i = 0; i < plan.sessions.size(); ++i) {
    const SessionSpec& spec = plan.sessions[i];
    DbmsSimulator simulator(spec.workload, HardwareInstance::kB,
                            spec.simulator_seed);
    const auto env = MakeEnvironment(&simulator, plan.knobs);
    OptimizerOptions options;
    options.seed = spec.optimizer_seed;
    // The recorded history replaces the warm-start design, so the first
    // Suggest after the restart is model-based.
    options.initial_design = 0;
    double fastest = 0.0;
    for (size_t rep = 0; rep < kRestartRepeats; ++rep) {
      const double start = Now();
      std::unique_ptr<Optimizer> optimizer = dbtune::CreateOptimizer(
          OptimizerType::kVanillaBo, env->space(), options);
      optimizer->SetReferenceScore(env->default_score());
      for (const Observation& observation : pass.outcomes[i].history) {
        optimizer->ObserveWithMetrics(observation.config, observation.score,
                                      observation.internal_metrics);
      }
      optimizer->Suggest();
      const double elapsed = Now() - start;
      fastest = rep == 0 ? elapsed : std::min(fastest, elapsed);
    }
    times.push_back(fastest);
  }
  return Median(times);
}

struct Reopen {
  double recover_s = 0.0;  // Open + ExportTasks + ListSessions
  double open_s = 0.0;     // Open alone
  double replayed_records = 0.0;
};

/// tune_mix recovery: reopen the store and read back every sealed task
/// and session (fastest of kReopenRepeats), checking the counts.
Reopen ReopenStore(const TunePlan& plan, const std::string& dir,
                   RunReport* report) {
  std::vector<double> recovers;
  std::vector<double> opens;
  Reopen reopen;
  for (size_t rep = 0; rep < kReopenRepeats; ++rep) {
    const double start = Now();
    auto opened = ObservationStore::Open(StorePath(dir));
    const double opened_at = Now();
    if (!opened.ok()) {
      report->Check(false, "reopen store: " + opened.status().ToString());
      return reopen;
    }
    const std::unique_ptr<ObservationStore> store = std::move(opened).value();
    ObservationRepository tasks;
    store->ExportTasks(&tasks);
    const std::vector<dbtune::store::StoredSessionInfo> sessions =
        store->ListSessions();
    recovers.push_back(Now() - start);
    opens.push_back(opened_at - start);
    reopen.replayed_records =
        static_cast<double>(store->stats().wal_records_replayed);
    if (rep > 0) continue;

    size_t sealed = 0;
    for (const SessionSpec& spec : plan.sessions) {
      const auto info = std::find_if(
          sessions.begin(), sessions.end(),
          [&](const dbtune::store::StoredSessionInfo& s) {
            return s.id == spec.id;
          });
      report->Check(info != sessions.end() &&
                        info->observations == spec.iterations &&
                        info->finished == spec.seal,
                    "reopened store holds session " + spec.id);
      if (!spec.seal) continue;
      ++sealed;
      const auto task = std::find_if(
          tasks.tasks().begin(), tasks.tasks().end(),
          [&](const dbtune::SourceTask& t) { return t.name == spec.id; });
      report->Check(task != tasks.tasks().end() &&
                        task->scores.size() == spec.iterations,
                    "reopened store holds sealed task " + spec.id);
    }
    report->Check(tasks.size() == sealed,
                  "reopened store holds exactly the sealed tasks");
  }
  reopen.recover_s = *std::min_element(recovers.begin(), recovers.end());
  reopen.open_s = *std::min_element(opens.begin(), opens.end());
  return reopen;
}

/// Appends the pass's observation stream, session by session, to a fresh
/// store and times each append from outside (automatic checkpoints
/// included). Returns the append latencies in seconds.
std::vector<double> ProbeStoreAppends(const TunePlan& plan,
                                      const TunePass& pass,
                                      const std::string& dir,
                                      RunReport* report) {
  RemoveTree(dir);
  MakeDirs(dir);
  std::vector<double> latencies;
  auto opened = ObservationStore::Open(StorePath(dir));
  report->Check(opened.ok(), "open probe store");
  if (!opened.ok()) return latencies;
  const std::unique_ptr<ObservationStore> store = std::move(opened).value();
  bool ok = true;
  for (size_t i = 0; i < plan.sessions.size(); ++i) {
    const SessionSpec& spec = plan.sessions[i];
    const auto& history = pass.outcomes[i].history;
    if (history.empty()) continue;
    ok = ok && store->BeginSession(spec.id, history.front().config.size()).ok();
    for (size_t k = 0; k < history.size(); ++k) {
      const double start = Now();
      ok = ok && store->AppendObservation(spec.id, k + 1, history[k]).ok();
      latencies.push_back(Now() - start);
    }
    if (spec.seal) {
      DbmsSimulator simulator(spec.workload, HardwareInstance::kB,
                              spec.simulator_seed);
      const auto env = MakeEnvironment(&simulator, plan.knobs);
      ok = ok && store->FinishSession(spec.id, env->space(), spec.id).ok();
    }
  }
  report->Check(ok, "store probe appends");
  RemoveTree(dir);
  return latencies;
}

void AddContext(const TunePlan& plan, const RunConfig& config,
                RunReport* report) {
  report->AddContext("host_cpus", std::to_string(HostCpus()));
  report->AddContext("pool_threads", std::to_string(plan.pool_threads));
  report->AddContext("seed", std::to_string(config.seed));
  report->AddContext("sessions", std::to_string(plan.sessions.size()));
  report->AddContext("iterations_per_session",
                     std::to_string(plan.sessions.front().iterations));
  report->AddContext("knobs", plan.knobs == 0 ? "197" :
                                                std::to_string(plan.knobs));
}

/// `untraced_rate` is the median raw iterations/s of the untraced
/// replicas, the base of the tracing overhead.
void AddTracedLayers(const TunePlan& plan, double untraced_rate,
                     const TunePass& traced, const std::string& dir,
                     RunReport* report) {
  const IterationTimes times = SplitIterations(traced);
  report->AddLayer("optimizer.suggest_ms_p50",
                   Median(Scaled(times.suggest, 1e3)));
  report->AddLayer("optimizer.suggest_ms_p99",
                   CappedTail(Scaled(times.suggest, 1e3), 0.99));
  report->AddLayer("optimizer.observe_ms_p50",
                   Median(Scaled(times.observe, 1e3)));
  const RegistryTotals& registry = traced.registry;
  const double surrogate_s = registry.gp_fit_s + registry.gp_predict_batch_s +
                             registry.gp_predict_s + registry.forest_fit_s;
  report->AddLayer("optimizer.suggest_self_s",
                   Sum(times.suggest) - surrogate_s);
  for (const Family family : kAllFamilies) {
    double total = 0.0;
    for (size_t i = 0; i < plan.sessions.size(); ++i) {
      if (plan.sessions[i].family != family) continue;
      for (const IterationStamp& s : traced.outcomes[i].stamps) {
        total += s.suggest_end - s.suggest_begin;
      }
    }
    report->AddLayer(std::string("optimizer.suggest_s.") + FamilyKey(family),
                     total);
  }
  report->AddLayer("core.loop_ms_mean", Mean(Scaled(times.loop, 1e3)));
  const double iteration_s = Sum(times.iteration);
  const double accounted =
      Sum(times.suggest) + Sum(times.observe) + Sum(times.loop);
  report->AddLayer("core.unattributed_pct",
                   iteration_s > 0.0
                       ? (iteration_s - accounted) / iteration_s * 100.0
                       : 0.0);
  AddRegistryLayers(registry, plan.pool_threads, traced.timed_s, report);

  if (plan.store) {
    const std::vector<double> appends =
        ProbeStoreAppends(plan, traced, dir + "/probe", report);
    report->AddLayer("store.append_ms_p50", Median(Scaled(appends, 1e3)));
    report->AddLayer("store.append_ms_p99",
                     CappedTail(Scaled(appends, 1e3), 0.99));
    report->AddLayer("store.records",
                     static_cast<double>(traced.store_stats.last_lsn));
    report->AddLayer("store.checkpoints",
                     static_cast<double>(traced.store_stats.checkpoints));
    report->AddLayer("store.wal_bytes", FileBytes(StorePath(dir)));
    report->AddLayer("store.snapshot_bytes",
                     FileBytes(StorePath(dir) + ".snapshot"));
  }
  const double traced_rate =
      static_cast<double>(TotalIterations(traced)) / traced.timed_s;
  report->AddLayer("obs.trace_overhead_pct",
                   (untraced_rate - traced_rate) / untraced_rate * 100.0);
}

RunReport RunTune(const RunConfig& config) {
  RunReport report;
  const RunShape shape = ShapeFor(config);
  const TunePlan plan = PlanFor(config, 0);
  AddContext(plan, config, &report);
  report.AddContext("sets", std::to_string(shape.sets));
  report.AddContext("replicas", std::to_string(shape.replicas));

  std::vector<double> iteration_s;  // fastest replica, all sets
  std::vector<double> setups;
  std::vector<double> raw_rates;
  std::vector<double> finals;
  std::vector<double> recovers;     // fastest replica, per set
  TunePass first;                   // set 0, replica 0
  for (size_t set = 0; set < shape.sets; ++set) {
    const TunePlan set_plan = PlanFor(config, set);
    const std::string dir = config.scratch + "/tune-" + std::to_string(set);
    std::vector<TunePass> passes;
    double recovered = 0.0;
    for (size_t k = 0; k < shape.replicas; ++k) {
      passes.push_back(RunPass(set_plan, dir, /*traced=*/false, &report));
      const TunePass& pass = passes.back();
      setups.insert(setups.end(), pass.setup_s.begin(), pass.setup_s.end());
      raw_rates.push_back(static_cast<double>(TotalIterations(pass)) /
                          pass.timed_s);
      const double restart = set_plan.store
                                 ? ReopenStore(set_plan, dir, &report).recover_s
                                 : WarmRestartSeconds(set_plan, pass);
      recovered = k == 0 ? restart : std::min(recovered, restart);
    }
    recovers.push_back(recovered);
    for (size_t k = 1; k < passes.size(); ++k) {
      bool same = true;
      for (size_t i = 0; i < passes[0].outcomes.size(); ++i) {
        same = same && SameHistory(passes[0].outcomes[i].history,
                                   passes[k].outcomes[i].history);
      }
      report.Check(same, "replica histories are identical");
    }
    const std::vector<double> fastest = FastestOf(passes);
    iteration_s.insert(iteration_s.end(), fastest.begin(), fastest.end());
    for (const SessionOutcome& outcome : passes[0].outcomes) {
      finals.push_back(outcome.result.final_improvement);
    }
    if (set == 0) first = std::move(passes[0]);
    if (set > 0) RemoveTree(dir);
  }
  // The wrapper sits outside the library's optimizers (the projected one
  // included) and must not change what they do.
  report.Check(WrapperIsTransparent(OptimizerType::kVanillaBo,
                                    plan.store ? kProjectionDims : 0,
                                    plan.knobs, 24, Mix(config.seed, 99)),
               "wrapped session history equals the unwrapped one");

  if (!config.trace) {
    const std::vector<double> iteration_ms = Scaled(iteration_s, 1e3);
    report.AddContext("iteration_samples",
                      std::to_string(iteration_ms.size()));
    report.AddContext("iter_tail_quantile",
                      std::to_string(std::min(
                          0.99, TailQuantile(iteration_ms.size()))));
    report.AddEndToEnd("iters_per_s", static_cast<double>(
                                          iteration_ms.size()) /
                                          (Sum(iteration_ms) / 1e3));
    report.AddEndToEnd("iter_ms_p50", Median(iteration_ms));
    report.AddEndToEnd("iter_ms_p99", CappedTail(iteration_ms, 0.99));
    report.AddEndToEnd("recover_s", Median(recovers));
    report.AddEndToEnd("setup_s", Median(setups));
    report.AddEndToEnd("improvement_pct", Mean(finals));
    return report;
  }

  // Traced pass: set 0 again, registry on.
  const std::string dir = config.scratch + "/tune-0";
  const TunePass traced = RunPass(plan, dir, /*traced=*/true, &report);
  report.Check(MeanImprovement(traced) == MeanImprovement(first),
               "improvement_pct equal in the traced and untraced runs");
  bool same = true;
  for (size_t i = 0; i < first.outcomes.size(); ++i) {
    same = same &&
           SameHistory(first.outcomes[i].history, traced.outcomes[i].history);
  }
  report.Check(same, "traced histories equal the untraced ones");
  AddTracedLayers(plan, Median(raw_rates), traced, dir, &report);
  if (plan.store) {
    const Reopen traced_reopen = ReopenStore(plan, dir, &report);
    report.AddLayer("store.open_s", traced_reopen.open_s);
    report.AddLayer("store.replayed_records", traced_reopen.replayed_records);
  }
  return report;
}

}  // namespace

bool WrapperIsTransparent(OptimizerType type, size_t projection_dims,
                          size_t knobs, size_t iterations, uint64_t seed) {
  auto history = [&](bool wrap) {
    DbmsSimulator simulator(WorkloadId::kSysbench, HardwareInstance::kB,
                            seed);
    const auto env = MakeEnvironment(&simulator, knobs);
    OptimizerOptions options;
    options.seed = seed;
    std::unique_ptr<Optimizer> optimizer;
    if (projection_dims > 0) {
      dbtune::ProjectionOptions projection;
      projection.dims = projection_dims;
      projection.seed = seed;
      optimizer = std::make_unique<dbtune::ProjectedOptimizer>(
          env->space(), options, type, projection);
    } else {
      optimizer = dbtune::CreateOptimizer(type, env->space(), options);
    }
    if (wrap) {
      optimizer = std::make_unique<TimedOptimizer>(std::move(optimizer));
    }
    dbtune::RunTuningSession(env.get(), optimizer.get(), iterations);
    return env->history();
  };
  return SameHistory(history(false), history(true));
}

RunReport RunTuneGp(const RunConfig& config) { return RunTune(config); }

RunReport RunTuneMix(const RunConfig& config) { return RunTune(config); }

std::string DescribeTunePlan(const RunConfig& config) {
  const RunShape shape = ShapeFor(config);
  std::string text;
  for (size_t set = 0; set < shape.sets; ++set) {
    const TunePlan plan = PlanFor(config, set);
    text += "set=" + std::to_string(set) +
            " replicas=" + std::to_string(shape.replicas) +
            " pool_threads=" + std::to_string(plan.pool_threads) +
            " knobs=" + std::to_string(plan.knobs) +
            " store=" + std::to_string(plan.store) + "\n";
    for (const SessionSpec& spec : plan.sessions) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%s family=%s workload=%s simulator_seed=%llu "
                    "optimizer_seed=%llu iterations=%zu seal=%d\n",
                    spec.id.c_str(), FamilyKey(spec.family),
                    dbtune::WorkloadName(spec.workload),
                    static_cast<unsigned long long>(spec.simulator_seed),
                    static_cast<unsigned long long>(spec.optimizer_seed),
                    spec.iterations, spec.seal ? 1 : 0);
      text += line;
    }
  }
  return text;
}

}  // namespace repobench
