#pragma once

/// \file bench_harness.h
/// \brief The shared envelope emitter for every bench binary.
///
/// Before this harness each bench invented its own output: three wrote
/// ad-hoc JSON files, the rest printed tables and vanished, and none
/// recorded *where* they ran — so a BENCH_*.json from a 1-CPU container
/// was silently compared against one from an 8-core laptop.  The harness
/// fixes that by wrapping every bench main in the same obs::RunReport
/// envelope (kind "bench"): host/build fingerprint, wall clock, metrics
/// snapshot, memory telemetry, tracer phase totals, and the bench's own
/// tables under a "payload" object.  scripts/bench_compare.py understands
/// the envelope and refuses to diff mismatched fingerprints loudly
/// instead of wrongly.
///
/// Usage:
///
///   int main(int argc, char** argv) {
///     hgm::bench::BenchHarness harness("bench_foo", argc, argv);
///     ... measure, print tables ...
///     harness.AddPayload("runs", runs_json_array);
///     return harness.Finish(failures);
///   }
///
/// `--bench-out=<path|->` overrides the default BENCH_<suffix>.json
/// destination; everything else in argv is left for the bench to parse.

#include <chrono>
#include <string>

#include "obs/run_report.h"

namespace hgm {
namespace bench {

class BenchHarness {
 public:
  /// \p name is the binary's canonical name ("bench_partition"); the
  /// default output path strips the "bench_" prefix and becomes
  /// BENCH_partition.json.  Scans argv for --bench-out=<path> (or "-"
  /// for stdout); other arguments are not consumed.
  BenchHarness(const std::string& name, int argc = 0,
               char* const* argv = nullptr);

  /// Overrides the destination (the --quick fixtures write
  /// BENCH_<suffix>_quick.json).  --bench-out still wins.
  void SetDefaultOutPath(const std::string& path);
  const std::string& out_path() const { return out_path_; }

  /// The envelope under construction, for config/dataset/budget fields.
  obs::RunReport& report() { return report_; }

  /// Adds one member to the payload object; \p raw_json is a complete
  /// JSON value (array, object, number...), inserted verbatim.
  void AddPayload(const std::string& key, const std::string& raw_json);

  /// With \p failures == 0: stamps wall clock, metrics snapshot, memory,
  /// tracer phase totals, and the flight ring into the envelope, writes it
  /// to out_path(), prints a one-line note, and returns 0.  Otherwise
  /// writes nothing (an existing file at out_path() stays as it was),
  /// says so on stderr, and returns 1.  Benches end with
  /// `return harness.Finish(failures);`.
  int Finish(int failures);

 private:
  obs::RunReport report_;
  std::string out_path_;
  bool out_path_forced_ = false;  // --bench-out beats SetDefaultOutPath
  std::chrono::steady_clock::time_point start_;
};

}  // namespace bench
}  // namespace hgm
