#include "core/session_engine.h"

#include <algorithm>
#include <cmath>

#include "obs/clock.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace dbtune {

SessionEngine::SessionEngine(SessionEngineOptions options)
    : options_(options) {}

void SessionEngine::Start(Optimizer* optimizer, double reference_score) {
  optimizer_ = optimizer;
  optimizer_->SetReferenceScore(reference_score);
  store_ = nullptr;
  recovered_.clear();
  pending_.reset();
  metrics_arity_.reset();
  observed_ = replayed_ = 0;
}

void SessionEngine::Start(std::unique_ptr<Optimizer> optimizer,
                          double reference_score) {
  owned_optimizer_ = std::move(optimizer);
  Start(owned_optimizer_.get(), reference_score);
}

Status SessionEngine::StoreFailure(const Status& status) {
  if (status.ok() || !options_.best_effort_store) return status;
  DBTUNE_LOG(kWarning) << "observation store disabled: " << status.ToString();
  store_ = nullptr;
  return Status::OK();
}

Status SessionEngine::BindStore(store::ObservationStore* store,
                                const std::string& id, size_t max_replay) {
  const Status begun =
      store->BeginSession(id, optimizer_->space().dimension());
  if (!begun.ok()) return StoreFailure(begun);
  store_ = store;
  store_id_ = id;
  const store::StoredSession* stored = store->FindSession(id);
  if (stored != nullptr) {
    const auto& history = stored->observations;
    recovered_.assign(history.begin(),
                      history.begin() + std::min(history.size(), max_replay));
  }
  return Status::OK();
}

Status SessionEngine::ReplayStored() {
  const bool held = issued_;
  issued_ = false;
  while (observed_ < recovered_.size()) {
    DBTUNE_RETURN_IF_ERROR(Suggest().status());
    if (recorded() == nullptr) {
      // Diverged: a suggestion the client held is void.
      issued_ = false;
      return Status::OK();
    }
    DBTUNE_RETURN_IF_ERROR(Observe(*recorded()));
  }
  return held ? Suggest().status() : Status::OK();
}

Result<Configuration> SessionEngine::Suggest() {
  static obs::Histogram& suggest_hist =
      obs::MetricsRegistry::Get().histogram("session.suggest");
  if (issued_) {
    return Status::FailedPrecondition(
        "an unobserved suggestion is outstanding");
  }
  issued_ = true;
  if (pending_.has_value()) return *pending_;
  const double start = obs::MonotonicSeconds();
  pending_ = [&] {
    obs::ScopedLatency latency(&suggest_hist);
    DBTUNE_TRACE_SPAN("session.suggest");
    return optimizer_->Suggest();
  }();
  suggest_end_ = obs::MonotonicSeconds();
  suggest_s_ = suggest_end_ - start;
  if (observed_ < recovered_.size() &&
      !(optimizer_->space().Clip(*pending_) ==
        recovered_[observed_].config)) {
    DBTUNE_LOG(kWarning) << "store replay diverged for session '"
                         << store_id_ << "' at iteration " << (observed_ + 1)
                         << "; truncating stored history and continuing live";
    recovered_ = std::vector<Observation>();
    DBTUNE_RETURN_IF_ERROR(
        StoreFailure(store_->TruncateSession(store_id_, observed_)));
  }
  return *pending_;
}

const Observation* SessionEngine::recorded() const {
  if (!pending_.has_value() || observed_ >= recovered_.size()) return nullptr;
  return &recovered_[observed_];
}

Status SessionEngine::Observe(const Observation& observation,
                              const TuningEnvironment* env) {
  static obs::Histogram& observe_hist =
      obs::MetricsRegistry::Get().histogram("session.observe");
  static obs::Counter& iteration_counter =
      obs::MetricsRegistry::Get().counter("session.iterations");
  static obs::Gauge& best_score_gauge =
      obs::MetricsRegistry::Get().gauge("session.best_score");
  if (!issued_) {
    return Status::FailedPrecondition("no outstanding suggestion to observe");
  }
  // A non-finite score poisons a GP surrogate for good, a non-finite
  // metric poisons DDPG's state, and the WAL would replay either into
  // every resurrection.
  const auto finite = [](const std::vector<double>& v) {
    return std::all_of(v.begin(), v.end(),
                       [](double x) { return std::isfinite(x); });
  };
  if (observation.config.size() != optimizer_->space().dimension() ||
      !std::isfinite(observation.score) ||
      !std::isfinite(observation.objective) ||
      !finite(observation.config.values()) ||
      !finite(observation.internal_metrics)) {
    return Status::InvalidArgument(
        "observation must be finite and match the session space dimension " +
        std::to_string(optimizer_->space().dimension()));
  }
  // An out-of-domain knob or a metrics vector of another length would be
  // WAL-appended and replayed into every resurrection.
  const Status in_domain = optimizer_->space().Validate(observation.config);
  if (!in_domain.ok()) return Status::InvalidArgument(in_domain.message());
  if (metrics_arity_.has_value() &&
      observation.internal_metrics.size() != *metrics_arity_) {
    return Status::InvalidArgument(
        "observation carries " +
        std::to_string(observation.internal_metrics.size()) +
        " internal metrics; the session's first carried " +
        std::to_string(*metrics_arity_));
  }
  // Durable append before the optimizer learns: a crash between the two
  // re-learns from the WAL on resume.
  if (recorded() != nullptr) {
    ++replayed_;
  } else if (store_ != nullptr) {
    DBTUNE_RETURN_IF_ERROR(StoreFailure(
        store_->AppendObservation(store_id_, observed_ + 1, observation)));
  }
  const double observe_start = obs::MonotonicSeconds();
  {
    obs::ScopedLatency latency(&observe_hist);
    DBTUNE_TRACE_SPAN("session.observe");
    optimizer_->ObserveWithMetrics(observation.config, observation.score,
                                   observation.internal_metrics);
  }
  observe_s_ = obs::MonotonicSeconds() - observe_start;
  if (!metrics_arity_.has_value()) {
    metrics_arity_ = observation.internal_metrics.size();
  }
  ++observed_;
  pending_.reset();
  issued_ = false;

  if (obs::MetricsEnabled()) {
    iteration_counter.Increment();
    if (env != nullptr) best_score_gauge.Set(env->best_objective());
  }
  // Diagnostics observe the session; they never feed back into it (no
  // RNG draws, no clock reads inside Record), so enabling them leaves
  // the tuning trajectory bitwise unchanged.
  if (options_.diagnostics != nullptr) {
    const SuggestInfo& info = optimizer_->last_suggest_info();
    obs::DiagnosticsPrediction prediction;
    prediction.has_prediction = info.has_prediction;
    prediction.mean = info.predicted_mean;
    prediction.variance = info.predicted_variance;
    prediction.has_acquisition = info.has_acquisition;
    prediction.acquisition_best = info.acquisition_best;
    prediction.acquisition_spread = info.acquisition_spread;
    options_.diagnostics->Record(prediction, observation.score);
  }
  if (options_.session_log != nullptr && options_.session_log->enabled() &&
      env != nullptr) {
    obs::SessionIterationRecord record;
    record.iteration = observed_;
    record.suggest_seconds = suggest_s_;
    record.evaluate_seconds = observe_start - suggest_end_;
    record.observe_seconds = observe_s_;
    record.score = observation.score;
    record.best_score = env->best_objective();
    record.improvement_percent = env->ImprovementPercent();
    if (options_.diagnostics != nullptr) {
      record.has_diagnostics = true;
      record.diagnostics = options_.diagnostics->last();
    }
    options_.session_log->Log(record);
  }
  if (options_.exporter != nullptr) options_.exporter->MaybeExport();
  // Last: `observation` may be an element of the prefix being released.
  if (observed_ == recovered_.size()) recovered_ = std::vector<Observation>();
  return Status::OK();
}

void SessionEngine::Evict() {
  optimizer_ = nullptr;
  owned_optimizer_.reset();
  store_ = nullptr;
  recovered_ = std::vector<Observation>();
  pending_.reset();
}

}  // namespace dbtune
