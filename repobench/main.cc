// Repository benchmark binary.
//
//   repobench --workload <tune_gp|tune_mix|serve_fleet> --seed <n>
//             --seconds <s> --trace <0|1> --scratch <dir>
//   repobench --plan --workload <name> --seed <n> --seconds <s>
//   repobench --selftest
//
// A run prints context lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones. The
// exit code is 1 when any correctness check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "bench_common.h"
#include "optimizer/optimizer.h"
#include "util/thread_pool.h"

namespace repobench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: repobench --workload <tune_gp|tune_mix|serve_fleet> "
               "--seed <n> --seconds <s> --trace <0|1> --scratch <dir>\n"
               "       repobench --plan --workload <name> --seed <n> "
               "--seconds <s>\n"
               "       repobench --selftest\n");
  return 2;
}

bool ValidUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (const char c : unit) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '/' && c != '%' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

int SelfTest() {
  RunReport report;
  // Percentile helper: the highest of p99.9/p99/p90 with at least ten
  // samples beyond it, else the median.
  const struct {
    size_t n;
    double q;
  } kTails[] = {{0, 0.5},     {19, 0.5},     {100, 0.9},   {999, 0.9},
                {1000, 0.99}, {9999, 0.99}, {10000, 0.999}};
  for (const auto& tail : kTails) {
    report.Check(TailQuantile(tail.n) == tail.q,
                 "TailQuantile(" + std::to_string(tail.n) + ")");
  }
  std::vector<double> ramp;
  for (int i = 1; i <= 100; ++i) ramp.push_back(101 - i);
  report.Check(Quantile(ramp, 0.5) == 50 && Quantile(ramp, 0.99) == 99 &&
                   Quantile(ramp, 1.0) == 100 && Quantile(ramp, 0.0) == 1,
               "nearest-rank quantiles");
  report.Check(CappedTail(ramp, 0.99) == 90, "capped tail of 100 samples");

  std::set<std::string> names;
  for (const auto* specs : {&EndToEndSpecs(), &LayerSpecs()}) {
    for (const MetricSpec& spec : *specs) {
      report.Check(ValidMetricName(spec.name) && ValidUnit(spec.unit) &&
                       names.insert(spec.name).second,
                   std::string("metric name and unit ") + spec.name);
    }
  }
  report.Check(!ValidMetricName("bad name") && !ValidMetricName(".x") &&
                   !ValidMetricName(std::string(65, 'a')),
               "invalid names are rejected");

  for (const char* workload : {"tune_gp", "tune_mix", "serve_fleet"}) {
    RunConfig a{workload, 7, 12, false, ""};
    RunConfig b{workload, 8, 12, false, ""};
    const bool fleet = std::string(workload) == "serve_fleet";
    auto describe = [&](const RunConfig& c) {
      return fleet ? DescribeFleetPlan(c) : DescribeTunePlan(c);
    };
    report.Check(describe(a) == describe(a) && describe(a) != describe(b),
                 std::string("inputs are a function of the seed: ") +
                     workload);
  }

  // The pass-through wrapper leaves trajectories bitwise unchanged, on a
  // pool of 1 and of 2, with the projection inside it.
  for (const size_t threads : {1, 2}) {
    dbtune::ExecutionContext::Get().SetNumThreads(threads);
    report.Check(WrapperIsTransparent(dbtune::OptimizerType::kVanillaBo, 0,
                                      20, 24, 5),
                 "wrapped Vanilla BO equals unwrapped");
    report.Check(WrapperIsTransparent(dbtune::OptimizerType::kSmac, 0, 20,
                                      16, 6),
                 "wrapped SMAC equals unwrapped");
    report.Check(WrapperIsTransparent(dbtune::OptimizerType::kDdpg, 0, 20,
                                      16, 7),
                 "wrapped DDPG equals unwrapped");
    report.Check(WrapperIsTransparent(dbtune::OptimizerType::kVanillaBo, 16,
                                      0, 16, 8),
                 "wrapped projected Vanilla BO equals unwrapped");
  }

  for (const std::string& failure : report.failures) {
    std::fprintf(stderr, "selftest FAILED: %s\n", failure.c_str());
  }
  std::printf("selftest: %zu checks, %zu failed\n", report.attempted,
              report.failed);
  return report.failed == 0 ? 0 : 1;
}

std::string Number(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

int Emit(const RunConfig& config, RunReport report) {
  FillMissingLayers(&report);
  const std::vector<Metric>& metrics =
      config.trace ? report.per_layer : report.end_to_end;
  if (!config.trace) {
    // Reported last so the other checks count toward it; the JSON's
    // `failed`/`attempted` carry the same ratio as error_rate.
    report.AddEndToEnd(
        "success_rate",
        report.attempted == 0
            ? 0.0
            : 1.0 - static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted));
    report.AddEndToEnd("peak_rss_mb", PeakRssMb());
  }
  for (const Metric& metric : metrics) {
    report.Check(std::isfinite(metric.value), metric.name + " is finite");
  }
  if (!config.trace) {
    for (const MetricSpec& spec : EndToEndSpecs()) {
      bool present = false;
      for (const Metric& metric : metrics) present |= metric.name == spec.name;
      report.Check(present, std::string("reported ") + spec.name);
    }
  }

  std::string context = "{";
  for (const auto& [key, value] : report.context) {
    if (context.size() > 1) context += ", ";
    context += "\"" + key + "\": \"" + value + "\"";
  }
  context += "}";
  std::printf("context %s\n", context.c_str());
  for (const std::string& failure : report.failures) {
    std::printf("FAILED check: %s\n", failure.c_str());
  }
  std::printf("error_rate %s (%zu failed of %zu attempted)\n",
              Number(report.attempted == 0
                         ? 0.0
                         : static_cast<double>(report.failed) /
                               static_cast<double>(report.attempted))
                  .c_str(),
              report.failed, report.attempted);
  for (const Metric& metric : metrics) {
    std::printf("metric %-40s %s %s\n", metric.name.c_str(),
                Number(metric.value).c_str(), metric.unit.c_str());
  }

  const bool correct = report.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + metric.name + "\": {\"value\": " +
            (std::isfinite(metric.value) ? Number(metric.value) : "null") +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace repobench

int main(int argc, char** argv) {
  using namespace repobench;  // dbtune-lint: allow(using-namespace)
  RunConfig config;
  bool plan = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") return SelfTest();
    if (arg == "--plan") {
      plan = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::atoi(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--scratch" && has_value) {
      config.scratch = argv[++i];
    } else {
      return Usage();
    }
  }
  const bool tune =
      config.workload == "tune_gp" || config.workload == "tune_mix";
  if (!have_workload || (!tune && config.workload != "serve_fleet") ||
      config.seconds < 1) {
    return Usage();
  }
  if (plan) {
    std::printf("%s", (tune ? DescribeTunePlan(config)
                            : DescribeFleetPlan(config))
                          .c_str());
    return 0;
  }
  if (config.scratch.empty()) return Usage();
  MakeDirs(config.scratch);
  RunReport report = config.workload == "tune_gp"    ? RunTuneGp(config)
                     : config.workload == "tune_mix" ? RunTuneMix(config)
                                                     : RunServeFleet(config);
  return Emit(config, std::move(report));
}
