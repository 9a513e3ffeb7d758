// `serve_fleet`: 64 closed-loop tuning clients served through the
// protocol codec, LoopbackTransport, FrameServer, a batched
// BatchScheduler and a SessionManager with the durable store attached,
// followed by a restart that reopens the store and resurrects every
// session. A 1-thread standalone replay of every session is the
// correctness oracle.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/tuning_session.h"
#include "dbms/environment.h"
#include "dbms/simulator.h"
#include "serve/batch_scheduler.h"
#include "serve/frame_server.h"
#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "store/observation_store.h"
#include "util/thread_pool.h"

namespace repobench {
namespace {

using dbtune::Configuration;
using dbtune::DbmsSimulator;
using dbtune::ExecutionContext;
using dbtune::HardwareInstance;
using dbtune::Observation;
using dbtune::OptimizerType;
using dbtune::TuningEnvironment;
using dbtune::WorkloadId;
using dbtune::store::ObservationStore;
namespace serve = dbtune::serve;

constexpr size_t kSessions = 64;
constexpr size_t kKnobs = 20;
constexpr size_t kPoolThreads = 2;
/// Identical replicas of the fleet per run. The fleet is deterministic,
/// so every replica does the same work; each round's time, each
/// request's latency and each restart step counts with its fastest
/// replica, which keeps host stalls that hit some replicas out of the
/// metrics.
constexpr size_t kReplicas = 4;
/// Setups per replica; setup_s is the median over all of them.
constexpr size_t kSetupRepeats = 3;
constexpr const char* kSpaceName = "sysbench20";
constexpr OptimizerType kRoundRobin[] = {
    OptimizerType::kVanillaBo, OptimizerType::kSmac, OptimizerType::kTpe,
    OptimizerType::kMixedKernelBo};

struct SessionInput {
  std::string id;
  OptimizerType type = OptimizerType::kVanillaBo;
  uint64_t simulator_seed = 0;
  uint64_t optimizer_seed = 0;
};

struct FleetPlan {
  size_t rounds = 0;
  std::vector<SessionInput> sessions;
};

FleetPlan MakeFleetPlan(uint64_t seed, int seconds) {
  FleetPlan plan;
  // ≈30 ms per round of 64 sessions (suggest + observe waves, store on)
  // at 2 threads on a 4-CPU host, plus ≈80 ms per round for the restart;
  // the timed phases of all replicas take about half of `seconds`.
  plan.rounds = static_cast<size_t>(std::max(4L, std::lround(seconds * 1.2)));
  for (size_t s = 0; s < kSessions; ++s) {
    SessionInput input;
    char id[32];
    std::snprintf(id, sizeof(id), "client-%02zu", s);
    input.id = id;
    input.type = kRoundRobin[s % std::size(kRoundRobin)];
    // The clients' DBMS instances are a fixed testbed; the run seed
    // drives the tuners.
    input.simulator_seed = 2000 + s;
    input.optimizer_seed = Mix(seed, s) % 1000003;
    plan.sessions.push_back(input);
  }
  return plan;
}

/// The tuned DBMS of one client: it evaluates what the server suggests.
struct Client {
  std::unique_ptr<DbmsSimulator> simulator;
  std::unique_ptr<TuningEnvironment> env;
};

Client MakeClient(const SessionInput& input) {
  Client client;
  client.simulator = std::make_unique<DbmsSimulator>(
      WorkloadId::kSysbench, HardwareInstance::kB, input.simulator_seed);
  client.env = std::make_unique<TuningEnvironment>(client.simulator.get(),
                                                   LeadingKnobs(kKnobs));
  return client;
}

serve::ServedSessionOptions SessionOptions(const SessionInput& input,
                                           const Client& client) {
  serve::ServedSessionOptions options;
  options.space_name = kSpaceName;
  options.optimizer_type = input.type;
  options.seed = input.optimizer_seed;
  options.reference_score = client.env->default_score();
  return options;
}

/// The serving stack; the restart drops all of it.
struct Server {
  std::unique_ptr<ObservationStore> store;
  std::unique_ptr<serve::SessionManager> manager;
  std::unique_ptr<serve::BatchScheduler> scheduler;
  std::unique_ptr<serve::FrameServer> frames;
  serve::LoopbackTransport transport;

  void Reset() {
    frames.reset();
    scheduler.reset();
    manager.reset();
    store.reset();
  }
};

std::string StorePath(const std::string& dir) { return dir + "/fleet.wal"; }

/// Tallies served requests and the ones answered with an error.
struct RequestTally {
  size_t requests = 0;
  size_t errors = 0;
  double codec_s = 0.0;
};

/// Decodes `count` response frames from the client inbox and hands each
/// to `on_frame`, stamping the moment it was decoded. Returns false when
/// the stream is malformed or short.
template <typename OnFrame>
bool ReadResponses(serve::LoopbackTransport* transport, size_t count,
                   OnFrame on_frame) {
  serve::FrameReader reader;
  reader.Append(transport->DrainClientInbox());
  serve::Frame frame;
  for (size_t i = 0; i < count; ++i) {
    dbtune::Result<bool> got = reader.Next(&frame);
    if (!got.ok() || !*got) return false;
    on_frame(i, frame);
  }
  return reader.pending_bytes() == 0;
}

void BuildServer(const FleetPlan& plan, const std::vector<Client>& clients,
                 const std::string& dir, Server* server, RequestTally* tally,
                 RunReport* report) {
  auto opened = ObservationStore::Open(StorePath(dir));
  report->Check(opened.ok(), "open fleet store");
  if (!opened.ok()) return;
  server->store = std::move(opened).value();
  serve::SessionManagerOptions manager_options;
  manager_options.store = server->store.get();
  server->manager = std::make_unique<serve::SessionManager>(manager_options);
  server->manager->RegisterSpace(kSpaceName, clients.front().env->space());
  serve::SchedulerOptions scheduler_options;
  scheduler_options.batch_width = kSessions;
  scheduler_options.batched = true;
  server->scheduler = std::make_unique<serve::BatchScheduler>(
      server->manager.get(), scheduler_options);
  server->frames = std::make_unique<serve::FrameServer>(
      server->manager.get(), server->scheduler.get());

  for (size_t s = 0; s < plan.sessions.size(); ++s) {
    const SessionInput& input = plan.sessions[s];
    const serve::ServedSessionOptions options =
        SessionOptions(input, clients[s]);
    serve::CreateSessionRequest request;
    request.session_id = input.id;
    request.space_name = options.space_name;
    request.optimizer_type = static_cast<uint8_t>(options.optimizer_type);
    request.seed = options.seed;
    request.reference_score = options.reference_score;
    request.initial_design = static_cast<uint32_t>(options.initial_design);
    request.acquisition_candidates =
        static_cast<uint32_t>(options.acquisition_candidates);
    server->transport.SendToServer(serve::EncodeCreateSession(s, request));
  }
  report->Check(server->frames->ServeBuffered(&server->transport).ok(),
                "serve create frames");
  size_t created = 0;
  const bool read = ReadResponses(
      &server->transport, plan.sessions.size(),
      [&](size_t, const serve::Frame& frame) {
        auto response = serve::DecodeCreateSessionResponse(frame);
        if (response.ok() && response->header.status_code == 0) ++created;
      });
  tally->requests += plan.sessions.size();
  tally->errors += plan.sessions.size() - created;
  report->Check(read && created == plan.sessions.size(),
                "every session created");
}

struct FleetPass {
  std::vector<double> setup_s;
  double timed_s = 0.0;
  std::vector<Client> clients;
  std::vector<double> round_s;
  /// Suggest RTT + observe RTT, round-major then session order.
  std::vector<double> iteration_s;
  std::vector<double> suggest_wave_s;
  std::vector<double> observe_wave_s;
  std::vector<double> evaluate_s;
  RequestTally tally;
  RegistryTotals registry;
  dbtune::store::StoreStats store_stats;
  double wal_bytes = 0.0;
  double snapshot_bytes = 0.0;
  // Restart.
  double open_s = 0.0;
  double replayed_records = 0.0;
  std::vector<double> resurrect_s;
};

/// One wave of requests: encodes one frame per session, serves the
/// buffer, and decodes the responses. `encode(s)` returns session s's
/// request frame; `decode(s, frame)` returns false on an error response.
/// Per-session round trips are added to `rtt`; returns the time spent in
/// ServeBuffered.
template <typename Encode, typename Decode>
double Wave(Server* server, size_t sessions, Encode encode, Decode decode,
            std::vector<double>* rtt, RequestTally* tally, RunReport* report) {
  std::vector<double> sent_at(sessions);
  const double encode_start = Now();
  for (size_t s = 0; s < sessions; ++s) {
    sent_at[s] = Now();
    server->transport.SendToServer(encode(s));
  }
  const double serve_start = Now();
  const bool served = server->frames->ServeBuffered(&server->transport).ok();
  const double serve_end = Now();
  size_t errors = sessions;
  const bool read = ReadResponses(
      &server->transport, sessions, [&](size_t s, const serve::Frame& frame) {
        if (decode(s, frame)) --errors;
        (*rtt)[s] += Now() - sent_at[s];
      });
  tally->codec_s += (serve_start - encode_start) + (Now() - serve_end);
  tally->requests += sessions;
  tally->errors += errors;
  report->Check(served && read, "serve wave");
  return serve_end - serve_start;
}

FleetPass RunPass(const FleetPlan& plan, const std::string& dir, bool traced,
                  RunReport* report) {
  ExecutionContext::Get().SetNumThreads(kPoolThreads);
  FleetPass pass;
  Server server;
  std::vector<double> setups;
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
    server.Reset();
    pass.clients.clear();
    pass.tally = RequestTally();
    RemoveTree(dir);
    MakeDirs(dir);
    RunReport scratch_checks;
    const double start = Now();
    for (const SessionInput& input : plan.sessions) {
      pass.clients.push_back(MakeClient(input));
    }
    BuildServer(plan, pass.clients, dir, &server, &pass.tally,
                &scratch_checks);
    setups.push_back(Now() - start);
    if (rep + 1 == kSetupRepeats || scratch_checks.failed > 0) {
      report->Count(scratch_checks.attempted, scratch_checks.failed);
      for (const std::string& failure : scratch_checks.failures) {
        report->failures.push_back(failure);
      }
    }
    if (scratch_checks.failed > 0) return pass;
  }
  pass.setup_s = setups;

  const size_t sessions = plan.sessions.size();
  std::vector<Configuration> suggested(sessions);
  std::vector<Observation> outcomes(sessions);
  uint64_t request_id = sessions;
  if (traced) StartRegistry(true);
  const double start = Now();
  for (size_t round = 0; round < plan.rounds; ++round) {
    const double round_start = Now();
    std::vector<double> rtt(sessions, 0.0);
    pass.suggest_wave_s.push_back(Wave(
        &server, sessions,
        [&](size_t s) {
          return serve::EncodeSuggest(request_id++, {plan.sessions[s].id});
        },
        [&](size_t s, const serve::Frame& frame) {
          auto response = serve::DecodeSuggestResponse(frame);
          if (!response.ok() || response->header.status_code != 0) {
            return false;
          }
          suggested[s] = Configuration(std::move(response->config));
          return true;
        },
        &rtt, &pass.tally, report));
    for (size_t s = 0; s < sessions; ++s) {
      const double evaluate_start = Now();
      outcomes[s] = pass.clients[s].env->Evaluate(suggested[s]);
      pass.evaluate_s.push_back(Now() - evaluate_start);
    }
    pass.observe_wave_s.push_back(Wave(
        &server, sessions,
        [&](size_t s) {
          serve::ObserveRequest request;
          request.session_id = plan.sessions[s].id;
          request.config = outcomes[s].config.values();
          request.score = outcomes[s].score;
          request.objective = outcomes[s].objective;
          request.failed = outcomes[s].failed ? 1 : 0;
          request.internal_metrics = outcomes[s].internal_metrics;
          return serve::EncodeObserve(request_id++, request);
        },
        [&](size_t, const serve::Frame& frame) {
          auto response = serve::DecodeObserveResponse(frame);
          return response.ok() && response->header.status_code == 0;
        },
        &rtt, &pass.tally, report));
    pass.iteration_s.insert(pass.iteration_s.end(), rtt.begin(), rtt.end());
    pass.round_s.push_back(Now() - round_start);
  }
  pass.timed_s = Now() - start;
  if (traced) {
    pass.registry = ReadRegistry(kPoolThreads);
    StartRegistry(false);
  }

  // Restart: drop the whole serving stack, reopen the store and
  // resurrect every session from it.
  pass.store_stats = server.store->stats();
  pass.wal_bytes = FileBytes(StorePath(dir));
  pass.snapshot_bytes = FileBytes(StorePath(dir) + ".snapshot");
  std::map<std::string, size_t> stored;
  for (const auto& info : server.store->ListSessions()) {
    stored[info.id] = info.observations;
  }
  server.Reset();
  const double restart = Now();
  auto opened = ObservationStore::Open(StorePath(dir));
  pass.open_s = Now() - restart;
  report->Check(opened.ok(), "reopen fleet store");
  if (!opened.ok()) return pass;
  const std::unique_ptr<ObservationStore> store = std::move(opened).value();
  serve::SessionManagerOptions manager_options;
  manager_options.store = store.get();
  serve::SessionManager manager(manager_options);
  manager.RegisterSpace(kSpaceName, pass.clients.front().env->space());
  for (size_t s = 0; s < sessions; ++s) {
    const SessionInput& input = plan.sessions[s];
    size_t replayed = 0;
    const double created = Now();
    const bool ok =
        manager
            .CreateSession(input.id, SessionOptions(input, pass.clients[s]),
                           &replayed)
            .ok();
    pass.resurrect_s.push_back(Now() - created);
    report->Check(ok && replayed == stored[input.id] &&
                      replayed == plan.rounds,
                  "resurrected " + input.id + " replays its stored records");
  }
  pass.replayed_records =
      static_cast<double>(store->stats().wal_records_replayed);
  report->Count(pass.tally.requests, pass.tally.errors);
  return pass;
}

double MeanImprovement(const FleetPass& pass) {
  std::vector<double> finals;
  for (const Client& client : pass.clients) {
    finals.push_back(client.env->ImprovementPercent());
  }
  return Mean(finals);
}

/// Served histories must equal the standalone loop's, session by
/// session, on a 1-thread pool.
void CheckAgainstStandalone(const FleetPlan& plan, const FleetPass& pass,
                            RunReport* report) {
  ExecutionContext::Get().SetNumThreads(1);
  for (size_t s = 0; s < plan.sessions.size(); ++s) {
    const SessionInput& input = plan.sessions[s];
    Client client = MakeClient(input);
    dbtune::OptimizerOptions options;
    options.seed = input.optimizer_seed;
    std::unique_ptr<dbtune::Optimizer> optimizer =
        dbtune::CreateOptimizer(input.type, client.env->space(), options);
    dbtune::RunTuningSession(client.env.get(), optimizer.get(), plan.rounds);
    report->Check(SameHistory(client.env->history(),
                              pass.clients[s].env->history()),
                  input.id + " served history equals the standalone loop");
  }
}

/// Replays the pass's observation stream (round by round, sessions in id
/// order, as the scheduler applied it) into a fresh store and times each
/// append from outside; automatic checkpoints included.
std::vector<double> ProbeStoreAppends(const FleetPlan& plan,
                                      const FleetPass& pass,
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
  for (const SessionInput& input : plan.sessions) {
    ok = ok && store->BeginSession(input.id, kKnobs).ok();
  }
  for (size_t round = 0; round < plan.rounds; ++round) {
    for (size_t s = 0; s < plan.sessions.size(); ++s) {
      const auto& history = pass.clients[s].env->history();
      if (round >= history.size()) continue;
      const double start = Now();
      ok = ok && store->AppendObservation(plan.sessions[s].id, round + 1,
                                          history[round])
                     .ok();
      latencies.push_back(Now() - start);
    }
  }
  report->Check(ok, "store probe appends");
  RemoveTree(dir);
  return latencies;
}

}  // namespace

RunReport RunServeFleet(const RunConfig& config) {
  const FleetPlan plan = MakeFleetPlan(config.seed, config.seconds);
  RunReport report;
  report.AddContext("host_cpus", std::to_string(HostCpus()));
  report.AddContext("pool_threads", std::to_string(kPoolThreads));
  report.AddContext("seed", std::to_string(config.seed));
  report.AddContext("sessions", std::to_string(plan.sessions.size()));
  report.AddContext("rounds", std::to_string(plan.rounds));
  report.AddContext("replicas", std::to_string(kReplicas));
  report.AddContext("knobs", std::to_string(kKnobs));
  report.AddContext("batch_width", std::to_string(kSessions));
  const std::string dir = config.scratch + "/fleet";

  std::vector<FleetPass> replicas;
  for (size_t k = 0; k < kReplicas; ++k) {
    replicas.push_back(RunPass(plan, dir, /*traced=*/false, &report));
    if (report.failed > 0) return report;
  }
  const FleetPass& first = replicas.front();
  for (size_t k = 1; k < kReplicas; ++k) {
    bool same = true;
    for (size_t s = 0; s < plan.sessions.size(); ++s) {
      same = same && SameHistory(first.clients[s].env->history(),
                                 replicas[k].clients[s].env->history());
    }
    report.Check(same, "replica histories are identical");
  }
  const double improvement = MeanImprovement(first);

  // Per-unit minimum over the replicas.
  auto fastest = [&](auto member, size_t index) {
    double value = (first.*member)[index];
    for (const FleetPass& replica : replicas) {
      value = std::min(value, (replica.*member)[index]);
    }
    return value;
  };
  std::vector<double> round_s;
  for (size_t r = 0; r < plan.rounds; ++r) {
    round_s.push_back(fastest(&FleetPass::round_s, r));
  }
  std::vector<double> iteration_ms;
  for (size_t i = 0; i < first.iteration_s.size(); ++i) {
    iteration_ms.push_back(fastest(&FleetPass::iteration_s, i) * 1e3);
  }
  std::vector<double> setups;
  double recover_s = first.open_s;
  for (const FleetPass& replica : replicas) {
    setups.insert(setups.end(), replica.setup_s.begin(),
                  replica.setup_s.end());
    recover_s = std::min(recover_s, replica.open_s);
  }
  for (size_t s = 0; s < first.resurrect_s.size(); ++s) {
    recover_s += fastest(&FleetPass::resurrect_s, s);
  }
  const double iterations = static_cast<double>(iteration_ms.size());
  std::vector<double> raw_rates;
  for (const FleetPass& replica : replicas) {
    raw_rates.push_back(iterations / Sum(replica.round_s));
  }

  std::string raw;
  for (const double rate : raw_rates) {
    raw += (raw.empty() ? "" : " ") + std::to_string(rate);
  }
  report.AddContext("replica_iters_per_s", raw);

  if (!config.trace) {
    CheckAgainstStandalone(plan, first, &report);
    report.AddContext("iteration_samples", std::to_string(iteration_ms.size()));
    report.AddContext("iter_tail_quantile",
                      std::to_string(std::min(
                          0.99, TailQuantile(iteration_ms.size()))));
    report.AddEndToEnd("iters_per_s", iterations / Sum(round_s));
    report.AddEndToEnd("iter_ms_p50", Median(iteration_ms));
    report.AddEndToEnd("iter_ms_p99", CappedTail(iteration_ms, 0.99));
    report.AddEndToEnd("recover_s", recover_s);
    report.AddEndToEnd("setup_s", Median(setups));
    report.AddEndToEnd("improvement_pct", improvement);
    return report;
  }

  const FleetPass traced = RunPass(plan, dir, /*traced=*/true, &report);
  if (report.failed > 0) return report;
  report.Check(MeanImprovement(traced) == improvement,
               "improvement_pct equal in the traced and untraced runs");
  bool same = true;
  for (size_t s = 0; s < plan.sessions.size(); ++s) {
    same = same && SameHistory(first.clients[s].env->history(),
                               traced.clients[s].env->history());
  }
  report.Check(same, "traced histories equal the untraced ones");
  CheckAgainstStandalone(plan, traced, &report);

  // Span percentiles pool the untraced replicas (one pass has only one
  // wave of each kind per round); registry metrics come from the traced
  // pass.
  auto pooled_ms = [&](std::vector<double> FleetPass::*member) {
    std::vector<double> values;
    for (const FleetPass& replica : replicas) {
      for (const double v : replica.*member) values.push_back(v * 1e3);
    }
    return values;
  };
  const std::vector<double> suggest_waves =
      pooled_ms(&FleetPass::suggest_wave_s);
  const std::vector<double> observe_waves =
      pooled_ms(&FleetPass::observe_wave_s);
  const std::vector<double> resurrect = pooled_ms(&FleetPass::resurrect_s);
  report.AddLayer("serve.suggest_wave_ms_p50", Median(suggest_waves));
  report.AddLayer("serve.suggest_wave_ms_p99", CappedTail(suggest_waves, 0.99));
  report.AddLayer("serve.observe_wave_ms_p50", Median(observe_waves));
  report.AddLayer("serve.observe_wave_ms_p99", CappedTail(observe_waves, 0.99));
  const RegistryTotals& registry = traced.registry;
  report.AddLayer("serve.session_suggest_ms_p99",
                  registry.serve_suggest_p99_s * 1e3);
  report.AddLayer("serve.batch_width_mean", registry.serve_batch_width_mean);
  report.AddLayer("serve.wave_efficiency",
                  registry.serve_suggest_sum_s /
                      (static_cast<double>(kPoolThreads) *
                       Sum(traced.suggest_wave_s)));
  report.AddLayer("serve.client_codec_s", traced.tally.codec_s);
  report.AddLayer("serve.requests", static_cast<double>(traced.tally.requests));
  report.AddLayer("serve.errors", static_cast<double>(traced.tally.errors));
  report.AddLayer("serve.resurrect_ms_p50", Median(resurrect));
  report.AddLayer("serve.resurrect_ms_p99", CappedTail(resurrect, 0.99));
  AddRegistryLayers(registry, kPoolThreads, traced.timed_s, &report);

  const std::vector<double> appends =
      Scaled(ProbeStoreAppends(plan, traced, dir + "/probe", &report), 1e3);
  report.AddLayer("store.open_s", traced.open_s);
  report.AddLayer("store.append_ms_p50", Median(appends));
  report.AddLayer("store.append_ms_p99", CappedTail(appends, 0.99));
  report.AddLayer("store.records",
                  static_cast<double>(traced.store_stats.last_lsn));
  report.AddLayer("store.checkpoints",
                  static_cast<double>(traced.store_stats.checkpoints));
  report.AddLayer("store.replayed_records", traced.replayed_records);
  report.AddLayer("store.wal_bytes", traced.wal_bytes);
  report.AddLayer("store.snapshot_bytes", traced.snapshot_bytes);
  report.AddLayer("dbms.evaluate_us_p50",
                  Median(Scaled(traced.evaluate_s, 1e6)));
  const double untraced_rate = Median(raw_rates);
  const double traced_rate = iterations / Sum(traced.round_s);
  report.AddLayer("obs.trace_overhead_pct",
                  (untraced_rate - traced_rate) / untraced_rate * 100.0);
  return report;
}

std::string DescribeFleetPlan(const RunConfig& config) {
  const FleetPlan plan = MakeFleetPlan(config.seed, config.seconds);
  std::string text = "replicas=" + std::to_string(kReplicas) +
                     " pool_threads=" + std::to_string(kPoolThreads) +
                     " knobs=" + std::to_string(kKnobs) +
                     " rounds=" + std::to_string(plan.rounds) + "\n";
  for (const SessionInput& input : plan.sessions) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s optimizer=%s simulator_seed=%llu optimizer_seed=%llu\n",
                  input.id.c_str(), dbtune::OptimizerTypeName(input.type),
                  static_cast<unsigned long long>(input.simulator_seed),
                  static_cast<unsigned long long>(input.optimizer_seed));
    text += line;
  }
  return text;
}

}  // namespace repobench
