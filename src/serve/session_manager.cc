#include "serve/session_manager.h"

#include <utility>

#include "core/session_engine.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "store/observation_store.h"

namespace dbtune::serve {

/// Per-session state. Guarded by its own mutex so requests for distinct
/// sessions never serialize on the manager lock during optimizer work;
/// `last_touch_seconds` is the exception (guarded by the manager mutex,
/// written on lookup and read by the eviction sweep).
struct ServedSession {
  Mutex mu;
  ServedSessionOptions options DBTUNE_GUARDED_BY(mu);
  /// The session's own copy of the registered space (stable even if the
  /// registry entry is later replaced).
  ConfigurationSpace space DBTUNE_GUARDED_BY(mu);
  /// Not resident while evicted; resurrection replays the durable history
  /// into a fresh optimizer.
  SessionEngine engine DBTUNE_GUARDED_BY(mu);
  bool closed DBTUNE_GUARDED_BY(mu) = false;
  /// Guarded by the manager mutex, not `mu` (see above).
  double last_touch_seconds = 0.0;
};

namespace {

obs::Gauge& ActiveGauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Get().gauge("serve.sessions.active");
  return gauge;
}

/// Rebuilds the optimizer of a fresh or evicted session and replays the
/// durable history through its engine, so the resurrected optimizer state
/// is bitwise identical to the pre-eviction one. No-op when resident.
[[nodiscard]] Status ResurrectLocked(store::ObservationStore* store,
                                     const std::string& id, ServedSession* s,
                                     size_t* replayed)
    DBTUNE_REQUIRES(s->mu) {
  SessionEngine& engine = s->engine;
  if (engine.resident()) return Status::OK();
  if (store == nullptr && engine.observed() > 0) {
    return Status::FailedPrecondition(
        "session '" + id + "' was evicted after " +
        std::to_string(engine.observed()) +
        " observations and no durable store can restore it");
  }
  OptimizerOptions optimizer_options;
  optimizer_options.seed = s->options.seed;
  optimizer_options.initial_design = s->options.initial_design;
  optimizer_options.acquisition_candidates = s->options.acquisition_candidates;
  engine.Start(CreateOptimizer(s->options.optimizer_type, s->space,
                               optimizer_options),
               s->options.reference_score);
  Status resumed =
      store == nullptr ? Status::OK() : engine.BindStore(store, id);
  if (resumed.ok()) resumed = engine.ReplayStored();
  if (!resumed.ok()) {
    engine.Evict();
    return resumed;
  }
  if (replayed != nullptr) *replayed = engine.replayed();
  return Status::OK();
}

}  // namespace

SessionManager::SessionManager(SessionManagerOptions manager_options)
    : options_(manager_options) {}

SessionManager::~SessionManager() = default;

void SessionManager::RegisterSpace(const std::string& name,
                                   const ConfigurationSpace& definition) {
  MutexLock lock(&mu_);
  spaces_.insert_or_assign(name, definition);
}

ServedSession* SessionManager::FindSessionLocked(const std::string& id)
    DBTUNE_REQUIRES(mu_) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return nullptr;
  it->second->last_touch_seconds = obs::MonotonicSeconds();
  return it->second.get();
}

Result<ServedSession*> SessionManager::FindSession(const std::string& id) {
  MutexLock lock(&mu_);
  ServedSession* session = FindSessionLocked(id);
  if (session == nullptr) {
    return Status::NotFound("unknown session '" + id + "'");
  }
  return session;
}

Status SessionManager::CreateSession(const std::string& id,
                                     const ServedSessionOptions& options,
                                     size_t* replayed) {
  if (replayed != nullptr) *replayed = 0;
  ServedSession* session = nullptr;
  {
    MutexLock lock(&mu_);
    auto space_it = spaces_.find(options.space_name);
    if (space_it == spaces_.end()) {
      return Status::NotFound("unknown configuration space '" +
                              options.space_name + "'");
    }
    session = FindSessionLocked(id);
    if (session == nullptr) {
      auto created = std::make_unique<ServedSession>();
      created->last_touch_seconds = obs::MonotonicSeconds();
      session = created.get();
      sessions_.emplace(id, std::move(created));
      ++open_sessions_;
      if (obs::MetricsEnabled()) {
        ActiveGauge().Set(static_cast<double>(open_sessions_));
      }
    }
    MutexLock session_lock(&session->mu);
    if (session->closed) {
      return Status::FailedPrecondition("session '" + id + "' is closed");
    }
    if (session->engine.resident()) {
      return Status::FailedPrecondition("session '" + id +
                                        "' already exists");
    }
    // New or evicted: adopt the (re)creation parameters and resurrect
    // below. Divergent parameters truncate the stored history at the
    // first mismatch and the session continues live from the kept prefix.
    session->options = options;
    session->space = space_it->second;
  }
  MutexLock session_lock(&session->mu);
  return ResurrectLocked(options_.store, id, session, replayed);
}

Result<Configuration> SessionManager::Suggest(const std::string& id) {
  static obs::Histogram& latency_hist =
      obs::MetricsRegistry::Get().histogram("serve.suggest.latency");
  obs::ScopedLatency latency(&latency_hist);
  DBTUNE_ASSIGN_OR_RETURN(ServedSession* const session, FindSession(id));
  MutexLock session_lock(&session->mu);
  if (session->closed) {
    return Status::FailedPrecondition("session '" + id + "' is closed");
  }
  DBTUNE_RETURN_IF_ERROR(ResurrectLocked(options_.store, id, session, nullptr));
  return session->engine.Suggest();
}

Status SessionManager::Observe(const std::string& id,
                               const Observation& observation) {
  DBTUNE_ASSIGN_OR_RETURN(ServedSession* const session, FindSession(id));
  MutexLock session_lock(&session->mu);
  if (session->closed) {
    return Status::FailedPrecondition("session '" + id + "' is closed");
  }
  DBTUNE_RETURN_IF_ERROR(ResurrectLocked(options_.store, id, session, nullptr));
  return session->engine.Observe(observation);
}

Status SessionManager::CloseSession(const std::string& id) {
  DBTUNE_ASSIGN_OR_RETURN(ServedSession* const session, FindSession(id));
  {
    MutexLock session_lock(&session->mu);
    if (session->closed) {
      return Status::FailedPrecondition("session '" + id +
                                        "' is already closed");
    }
    // Seal non-empty trajectories as a transfer base task named after
    // the session; empty sessions just close (no useless empty task).
    if (options_.store != nullptr && session->engine.observed() > 0) {
      DBTUNE_RETURN_IF_ERROR(
          options_.store->FinishSession(id, session->space, id));
    }
    session->engine.Evict();
    session->closed = true;
  }
  MutexLock lock(&mu_);
  --open_sessions_;
  if (obs::MetricsEnabled()) {
    ActiveGauge().Set(static_cast<double>(open_sessions_));
  }
  return Status::OK();
}

size_t SessionManager::EvictIdle() {
  return EvictIdle(options_.idle_timeout_seconds);
}

size_t SessionManager::EvictIdle(double idle_timeout_seconds) {
  if (idle_timeout_seconds <= 0.0) return 0;
  const double now = obs::MonotonicSeconds();
  MutexLock lock(&mu_);
  size_t evicted = 0;
  for (auto& entry : sessions_) {
    ServedSession* session = entry.second.get();
    if (now - session->last_touch_seconds < idle_timeout_seconds) continue;
    MutexLock session_lock(&session->mu);
    if (session->closed || !session->engine.resident()) continue;
    session->engine.Evict();
    ++evicted;
  }
  return evicted;
}

size_t SessionManager::num_open() const {
  MutexLock lock(&mu_);
  return open_sessions_;
}

size_t SessionManager::num_resident() const {
  MutexLock lock(&mu_);
  size_t resident = 0;
  for (const auto& entry : sessions_) {
    ServedSession* session = entry.second.get();
    MutexLock session_lock(&session->mu);
    if (!session->closed && session->engine.resident()) ++resident;
  }
  return resident;
}

}  // namespace dbtune::serve
