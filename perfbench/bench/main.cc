/// hgm_perfbench: runs one benchmark workload and writes what it measured
/// as an hgm.run_report envelope (host, build and seed provenance plus a
/// payload of raw samples, checks and layer numbers).  perfbench/run.py
/// builds and drives it:
///
///   hgm_perfbench --workload quest_batch --seed 1 --seconds 12 --trace 0
///                 --out result.json [--spans spans.json] [--scratch dir]
///
/// Exit status 0 means the envelope was written; whether the run's checks
/// passed is in its payload ("failures").

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/run_report.h"

namespace {

using hgm::obs::JsonValue;
using perfbench::RunArgs;
using perfbench::RunResult;
using perfbench::SpanLog;

struct Workload {
  const char* name;
  void (*run)(const RunArgs&, SpanLog*, RunResult*);
};

constexpr Workload kWorkloads[] = {
    {"quest_batch", &perfbench::RunQuestBatch},
    {"long_borders", &perfbench::RunLongBorders},
    {"stream_window", &perfbench::RunStreamWindow},
    {"serve_mixed", &perfbench::RunServeMixed},
};

int Usage(const std::string& problem) {
  std::fprintf(stderr,
               "hgm_perfbench: %s\nusage: hgm_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --out PATH [--spans PATH] "
               "[--scratch DIR]\n",
               problem.c_str());
  return 2;
}

JsonValue Numbers(const std::vector<double>& values) {
  std::vector<JsonValue> out;
  out.reserve(values.size());
  for (double v : values) out.push_back(JsonValue::Number(v));
  return JsonValue::Array(std::move(out));
}

JsonValue NumberMap(const std::map<std::string, double>& values) {
  std::vector<std::pair<std::string, JsonValue>> out;
  for (const auto& [name, v] : values) {
    out.emplace_back(name, JsonValue::Number(v));
  }
  return JsonValue::Object(std::move(out));
}

/// The payload members (an object body without braces) run.py reads.
std::string PayloadMembers(const RunArgs& args, const RunResult& r) {
  std::vector<std::pair<std::string, JsonValue>> ops;
  for (const auto& [name, samples] : r.ops_ms) {
    ops.emplace_back(name, Numbers(samples));
  }
  std::vector<JsonValue> failures;
  for (const std::string& f : r.failures) {
    failures.push_back(JsonValue::String(f));
  }
  std::vector<JsonValue> ladder;
  for (const auto& [row, ms] : r.ladder) {
    ladder.push_back(
        JsonValue::Array({JsonValue::String(row), JsonValue::Number(ms)}));
  }
  const std::string body = hgm::obs::DumpJson(JsonValue::Object({
      {"workload", JsonValue::String(args.workload)},
      {"seed", JsonValue::Number(static_cast<double>(args.seed))},
      {"trace", JsonValue::Bool(args.trace)},
      {"setup_s", Numbers(r.setup_s)},
      {"ops_ms", JsonValue::Object(std::move(ops))},
      {"work_units", JsonValue::Number(r.work_units)},
      {"work_seconds", JsonValue::Number(r.work_seconds)},
      {"attempted", JsonValue::Number(static_cast<double>(r.attempted))},
      {"failures", JsonValue::Array(std::move(failures))},
      {"layers", NumberMap(r.layers)},
      {"detail", NumberMap(r.detail)},
      {"ladder", JsonValue::Array(std::move(ladder))},
      {"peak_rss_kb",
       JsonValue::Number(static_cast<double>(hgm::obs::ReadPeakRssKb()))},
  }));
  return body.substr(1, body.size() - 2);
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string out_path;
  std::string spans_path;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else if (flag == "--scratch") {
      args.scratch_dir = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage("unknown workload '" + args.workload + "'");
  if (out_path.empty()) return Usage("--out is required");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");

  RunResult result;
  SpanLog spans;
  const perfbench::Clock::time_point start = perfbench::Clock::now();
  try {
    workload->run(args, args.trace ? &spans : nullptr, &result);
  } catch (const std::exception& e) {
    result.failures.push_back(std::string("exception: ") + e.what());
  }

  hgm::obs::RunReport report;
  report.kind = "bench";
  report.name = std::string("hgm_perfbench.") + args.workload;
  report.host = hgm::obs::CollectHostInfo();
  report.build = hgm::obs::CollectBuildInfo();
  report.args.assign(argv + 1, argv + argc);
  report.AddConfig("workload", args.workload);
  report.AddConfig("seed", args.seed);
  report.AddConfig("seconds", args.seconds);
  report.AddConfig("trace", args.trace);
  report.wall_ms = perfbench::MsSince(start);
  report.memory = hgm::obs::ReadMemory();
  if (hgm::obs::MetricsOn()) {
    report.metrics = hgm::obs::MetricsRegistry::Global().Snapshot();
  }
  report.payload_members = PayloadMembers(args, result);

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  report.WriteJson(out);
  out << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "hgm_perfbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (args.trace && !spans_path.empty()) {
    std::ofstream span_out(spans_path, std::ios::binary | std::ios::trunc);
    spans.WriteJson(span_out);
  }
  return 0;
}
