#ifndef DBTUNE_CORE_SESSION_ENGINE_H_
#define DBTUNE_CORE_SESSION_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dbms/environment.h"
#include "obs/diagnostics.h"
#include "obs/metrics.h"
#include "obs/metrics_export.h"
#include "obs/session_log.h"
#include "optimizer/optimizer.h"
#include "store/observation_store.h"

namespace dbtune {

struct SessionEngineOptions {
  /// Per-iteration sinks, borrowed; null → off (served sessions).
  obs::SessionLogger* session_log = nullptr;
  obs::TuningDiagnostics* diagnostics = nullptr;
  obs::MetricsExporter* exporter = nullptr;
  /// false: a store failure is returned and the step is not applied, so a
  /// served client is never told an unpersisted observation was recorded.
  /// true: it warns and the session tunes on without durability.
  bool best_effort_store = false;
};

/// The suggest/evaluate/observe stepper behind every durable tuning loop
/// (the paper's Figure 2): `RunTuningSession` and each served session.
/// It owns the optimizer call sequence, the store binding (BeginSession,
/// replay of the recovered prefix, WAL append) and the per-iteration
/// hooks (`session.*` metrics, diagnostics, session log, exporter tick).
/// The caller evaluates between Suggest and Observe (timing it into
/// `session.evaluate`), or re-applies `recorded()` while the recovered
/// prefix replays.
///
/// One divergence policy: a recorded configuration that differs from the
/// re-suggested one was produced under other code, seed or options, so
/// the stale suffix is truncated durably and the session continues live.
/// Suggest and Observe alternate (FailedPrecondition otherwise).
class SessionEngine {
 public:
  explicit SessionEngine(SessionEngineOptions options = {});

  /// Installs `optimizer` (borrowed or owned) and resets the counts and
  /// the store binding; an issued suggestion survives for ReplayStored.
  void Start(Optimizer* optimizer, double reference_score);
  void Start(std::unique_ptr<Optimizer> optimizer, double reference_score);

  /// Declares `id` in `store`; up to `max_replay` recorded observations
  /// become the prefix to replay.
  [[nodiscard]] Status BindStore(store::ObservationStore* store,
                                 const std::string& id,
                                 size_t max_replay = SIZE_MAX);

  /// Feeds the rest of the recovered prefix through Suggest/Observe with
  /// no caller evaluating (served resurrection). On divergence the next
  /// Suggest issues the suggestion drawn at the kept prefix; otherwise a
  /// suggestion issued before Evict is re-derived.
  [[nodiscard]] Status ReplayStored();

  [[nodiscard]] Result<Configuration> Suggest();

  /// The recorded outcome of the outstanding suggestion while replaying,
  /// else null.
  const Observation* recorded() const;

  /// Rejects a wrong-dimension, non-finite or out-of-domain outcome, and
  /// one whose internal-metrics length differs from the session's first
  /// observation (InvalidArgument); WAL-appends it unless replayed, lets
  /// the optimizer learn and runs the hooks. `env` (nullable) supplies
  /// the best-so-far standing.
  [[nodiscard]] Status Observe(const Observation& observation,
                               const TuningEnvironment* env = nullptr);

  /// Drops the optimizer (idle eviction); the counts and an issued
  /// suggestion survive.
  void Evict();

  bool resident() const { return optimizer_ != nullptr; }
  size_t observed() const { return observed_; }
  size_t replayed() const { return replayed_; }
  /// Suggest + observe seconds of the latest iteration (Figure 9).
  double overhead_seconds() const { return suggest_s_ + observe_s_; }

 private:
  [[nodiscard]] Status StoreFailure(const Status& status);

  const SessionEngineOptions options_;
  Optimizer* optimizer_ = nullptr;
  std::unique_ptr<Optimizer> owned_optimizer_;
  store::ObservationStore* store_ = nullptr;
  std::string store_id_;
  /// Recovered prefix being replayed; cleared on divergence.
  std::vector<Observation> recovered_;
  /// Drawn and not yet observed; `issued_` once Suggest handed it out.
  std::optional<Configuration> pending_;
  bool issued_ = false;
  /// Internal-metrics length of the session's first observation.
  std::optional<size_t> metrics_arity_;
  size_t observed_ = 0;
  size_t replayed_ = 0;
  double suggest_end_ = 0.0;
  double suggest_s_ = 0.0;
  double observe_s_ = 0.0;
};

}  // namespace dbtune

#endif  // DBTUNE_CORE_SESSION_ENGINE_H_
