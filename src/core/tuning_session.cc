#include "core/tuning_session.h"

#include "core/session_engine.h"
#include "obs/diagnostics.h"
#include "obs/metrics.h"
#include "obs/metrics_export.h"
#include "obs/session_log.h"
#include "obs/trace.h"
#include "store/observation_store.h"
#include "util/logging.h"

namespace dbtune {

store::ObservationStore* ResolveSessionStore(
    const SessionControls& controls,
    std::unique_ptr<store::ObservationStore>* owned) {
  if (controls.store != nullptr) return controls.store;
  const std::string path =
      store::ObservationStore::ResolvePath(controls.store_path);
  if (path.empty()) return nullptr;
  store::StoreOptions options;
  options.snapshot_every = store::ObservationStore::ResolveSnapshotEvery();
  auto opened = store::ObservationStore::Open(path, options);
  if (!opened.ok()) {
    DBTUNE_LOG(kWarning) << "observation store disabled: "
                         << opened.status().ToString();
    return nullptr;
  }
  *owned = std::move(opened).value();
  return owned->get();
}

std::string SessionStoreId(const SessionControls& controls) {
  if (!controls.store_session_id.empty()) return controls.store_session_id;
  if (!controls.session_label.empty()) return controls.session_label;
  return "default";
}

SessionResult RunTuningSession(TuningEnvironment* env, Optimizer* optimizer,
                               size_t iterations, SessionControls controls) {
  DBTUNE_CHECK(env != nullptr && optimizer != nullptr);
  DBTUNE_CHECK(optimizer->space().dimension() == env->space().dimension());

  static obs::Histogram& evaluate_hist =
      obs::MetricsRegistry::Get().histogram("session.evaluate");
  obs::SessionLogger session_log(
      obs::SessionLogger::ResolvePath(controls.session_log_path));
  std::unique_ptr<obs::TuningDiagnostics> diagnostics;
  if (controls.diagnostics || obs::DiagnosticsEnvEnabled()) {
    obs::TuningDiagnosticsOptions diag_options;
    diag_options.session_label = controls.session_label;
    diagnostics = std::make_unique<obs::TuningDiagnostics>(diag_options);
  }
  obs::MetricsExporter exporter(
      obs::MetricsExporter::ResolvePath(controls.metrics_export_path),
      obs::MetricsExporter::ResolveIntervalSeconds());

  SessionEngineOptions engine_options;
  engine_options.session_log = &session_log;
  engine_options.diagnostics = diagnostics.get();
  engine_options.exporter = &exporter;
  engine_options.best_effort_store = true;
  SessionEngine engine(engine_options);
  engine.Start(optimizer, env->default_score());

  SessionResult result;
  result.improvement_trace.reserve(iterations);
  result.objective_trace.reserve(iterations);
  const double sim_seconds_start = env->simulator().simulated_seconds();

  // A best-effort engine warns about store failures and tunes on, so
  // none of its calls below can fail.
  std::unique_ptr<store::ObservationStore> owned_store;
  store::ObservationStore* store = ResolveSessionStore(controls, &owned_store);
  if (store != nullptr) {
    const Status bound =
        engine.BindStore(store, SessionStoreId(controls), iterations);
    DBTUNE_CHECK_MSG(bound.ok(), bound.ToString());
  }

  for (size_t iter = 0; iter < iterations; ++iter) {
    DBTUNE_TRACE_SPAN("session.iteration");
    const Configuration config = engine.Suggest().value();
    // While the engine replays a recovered prefix, Replay() re-applies
    // the recorded outcome and keeps the simulator noise stream aligned,
    // so the session continues on a bitwise-identical trajectory.
    const Observation observation = [&] {
      obs::ScopedLatency latency(&evaluate_hist);
      DBTUNE_TRACE_SPAN("session.evaluate");
      const Observation* recorded = engine.recorded();
      return recorded != nullptr ? env->Replay(*recorded)
                                 : env->Evaluate(config);
    }();
    const Status observed = engine.Observe(observation, env);
    DBTUNE_CHECK_MSG(observed.ok(), observed.ToString());

    const double overhead = engine.overhead_seconds();
    result.algorithm_overhead_seconds += overhead;
    if (controls.record_overhead) {
      result.per_iteration_overhead.push_back(overhead);
    }
    result.improvement_trace.push_back(env->ImprovementPercent());
    result.objective_trace.push_back(env->best_objective());
  }

  result.replayed_iterations = engine.replayed();
  result.final_improvement = env->ImprovementPercent();
  result.final_objective = env->best_objective();
  result.best_iteration = env->best_iteration();
  result.simulated_evaluation_seconds =
      env->simulator().simulated_seconds() - sim_seconds_start;
  if (diagnostics != nullptr) {
    result.has_diagnostics = true;
    result.final_diagnostics = diagnostics->last();
  }
  if (exporter.enabled()) {
    const Status exported = exporter.ExportNow();
    if (!exported.ok()) {
      DBTUNE_LOG(kWarning) << "metrics not exported: "
                           << exported.ToString();
    }
  }

  const std::string trace_path =
      controls.trace_path.empty() ? obs::TraceEnvPath() : controls.trace_path;
  if (!trace_path.empty()) {
    const Status written = obs::WriteTrace(trace_path);
    if (!written.ok()) {
      DBTUNE_LOG(kWarning) << "trace not written: " << written.ToString();
    }
  }
  return result;
}

SessionResult RunTuningSession(DbmsSimulator* simulator,
                               const std::vector<size_t>& knob_indices,
                               OptimizerType optimizer_type, size_t iterations,
                               uint64_t seed, SessionControls controls) {
  TuningEnvironment env(simulator, knob_indices);
  OptimizerOptions options;
  options.seed = seed;
  std::unique_ptr<Optimizer> optimizer =
      CreateOptimizer(optimizer_type, env.space(), options);
  return RunTuningSession(&env, optimizer.get(), iterations, controls);
}

}  // namespace dbtune
