#ifndef DBTUNE_CORE_TUNING_SESSION_H_
#define DBTUNE_CORE_TUNING_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "dbms/environment.h"
#include "obs/diagnostics.h"
#include "optimizer/optimizer.h"

namespace dbtune {

namespace store {
class ObservationStore;
}  // namespace store

/// Outcome of one tuning session (the unit of all paper experiments).
struct SessionResult {
  /// Best-so-far improvement (%) against the default after each iteration.
  std::vector<double> improvement_trace;
  /// Best-so-far raw objective after each iteration.
  std::vector<double> objective_trace;
  double final_improvement = 0.0;
  double final_objective = 0.0;
  /// 1-based iteration at which the best configuration was found.
  size_t best_iteration = 0;
  /// Total optimizer overhead (wall-clock seconds spent in Suggest +
  /// Observe, excluding evaluation) — Figure 9's quantity.
  double algorithm_overhead_seconds = 0.0;
  /// Per-iteration overhead (seconds), recorded when requested.
  std::vector<double> per_iteration_overhead;
  /// Simulated DBMS-side seconds (restarts + stress tests).
  double simulated_evaluation_seconds = 0.0;
  /// Final iteration's tuner-quality diagnostics (calibration, regret,
  /// model health), set when diagnostics were enabled for the session.
  bool has_diagnostics = false;
  obs::IterationDiagnostics final_diagnostics;
  /// Iterations recovered from the durable store instead of evaluated
  /// live (0 when no store was attached or the session started fresh).
  size_t replayed_iterations = 0;
};

/// Extra controls for `RunTuningSession`.
struct SessionControls {
  /// Record per-iteration optimizer overhead (Figure 9).
  bool record_overhead = false;
  /// When non-empty, one JSON line per iteration is written here (see
  /// obs::SessionLogger). Empty → fall back to `DBTUNE_SESSION_LOG`.
  std::string session_log_path;
  /// When non-empty, the Chrome trace buffer is written here at session
  /// end. Empty → fall back to the path form of `DBTUNE_TRACE`.
  std::string trace_path;
  /// Collect per-iteration tuner-quality diagnostics (calibration,
  /// regret, model health). Also enabled by `DBTUNE_SESSION_DIAGNOSTICS`.
  /// Diagnostics never perturb the tuning trajectory.
  bool diagnostics = false;
  /// Labels this session's per-session registry metrics and report rows.
  /// Empty → "default".
  std::string session_label;
  /// When non-empty, Prometheus text-format snapshots of the metrics
  /// registry are written here (atomic rename) on the exporter's cadence
  /// plus once at session end. Empty → fall back to
  /// `DBTUNE_METRICS_EXPORT`.
  std::string metrics_export_path;
  /// When non-empty, the session opens the durable observation store at
  /// this path, replays any history recorded under `store_session_id`,
  /// and appends each new observation to the write-ahead log. Empty →
  /// fall back to `DBTUNE_STORE`; still empty → no store.
  std::string store_path;
  /// Durable-store session id. Empty → `session_label`, else "default".
  std::string store_session_id;
  /// Borrowed already-open store; takes precedence over `store_path`
  /// (never open two handles onto one WAL). The caller keeps ownership
  /// and must outlive the session.
  store::ObservationStore* store = nullptr;
};

/// The durable store a session with `controls` binds: the borrowed
/// `controls.store`, else a store opened at the resolved `store_path`
/// (owned by `*owned`), else null. An open failure warns and returns null
/// — tuning results still matter on a broken disk.
store::ObservationStore* ResolveSessionStore(
    const SessionControls& controls,
    std::unique_ptr<store::ObservationStore>* owned);

/// The durable-store session id: `store_session_id`, else
/// `session_label`, else "default".
std::string SessionStoreId(const SessionControls& controls);

/// Drives `iterations` suggest/evaluate/observe rounds of `optimizer`
/// against `env` (the paper's Figure 2 workflow loop, stepped by a
/// SessionEngine) and reports the traces every experiment consumes. The
/// optimizer must have been built over `env->space()`.
SessionResult RunTuningSession(TuningEnvironment* env, Optimizer* optimizer,
                               size_t iterations,
                               SessionControls controls = {});

/// Convenience: builds the environment over `knob_indices`, creates the
/// optimizer, and runs the session.
SessionResult RunTuningSession(DbmsSimulator* simulator,
                               const std::vector<size_t>& knob_indices,
                               OptimizerType optimizer_type, size_t iterations,
                               uint64_t seed, SessionControls controls = {});

}  // namespace dbtune

#endif  // DBTUNE_CORE_TUNING_SESSION_H_
