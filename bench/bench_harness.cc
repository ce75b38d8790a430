#include "bench_harness.h"

#include <fstream>
#include <iostream>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace hgm {
namespace bench {

namespace {

/// "bench_partition" -> "BENCH_partition.json"; names without the prefix
/// keep their full stem.
std::string DefaultOutPath(const std::string& name) {
  const std::string prefix = "bench_";
  std::string stem = name;
  if (stem.rfind(prefix, 0) == 0) stem = stem.substr(prefix.size());
  return "BENCH_" + stem + ".json";
}

}  // namespace

BenchHarness::BenchHarness(const std::string& name, int argc,
                           char* const* argv)
    : start_(std::chrono::steady_clock::now()) {
  report_.kind = "bench";
  report_.name = name;
  report_.host = obs::CollectHostInfo();
  report_.build = obs::CollectBuildInfo();
  out_path_ = DefaultOutPath(name);
  const std::string flag = "--bench-out=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    report_.args.push_back(arg);
    if (arg.rfind(flag, 0) == 0) {
      out_path_ = arg.substr(flag.size());
      out_path_forced_ = true;
    }
  }
}

void BenchHarness::SetDefaultOutPath(const std::string& path) {
  if (!out_path_forced_) out_path_ = path;
}

void BenchHarness::AddPayload(const std::string& key,
                              const std::string& raw_json) {
  report_.payload_members +=
      report_.payload_members.empty() ? "\n    " : ",\n    ";
  report_.payload_members +=
      "\"" + obs::JsonEscapeString(key) + "\": " + raw_json;
}

int BenchHarness::Finish(int failures) {
  if (failures != 0) {
    // A run that failed its own checks must not leave an artifact that
    // could pass for (or overwrite) a committed baseline.
    std::cerr << report_.name << ": " << failures
              << " check(s) failed; not writing " << out_path_ << "\n";
    return 1;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  report_.wall_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  report_.memory = obs::ReadMemory();  // raw read: works with metrics off
  if (obs::AllocationCountingAvailable()) {
    report_.alloc = obs::GlobalAllocStats();
  }
  if (obs::MetricsOn()) {
    report_.metrics = obs::MetricsRegistry::Global().Snapshot();
  }
  report_.phases = obs::Tracer::Global().PhaseTotals();
  report_.flight = obs::FlightRecorder::Global().Snapshot();

  if (out_path_ == "-") {
    report_.WriteJson(std::cout);
  } else {
    std::ofstream out(out_path_);
    if (!out) {
      std::cerr << "bench_harness: cannot open " << out_path_
                << " for writing\n";
      return 1;
    }
    report_.WriteJson(out);
    std::cout << "\nwrote " << out_path_ << " (hgm.run_report schema v"
              << obs::RunReport::kSchemaVersion << ")\n";
  }
  return 0;
}

}  // namespace bench
}  // namespace hgm
