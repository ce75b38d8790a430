#pragma once

/// \file run_report.h
/// \brief The self-describing run artifact: a schema-versioned JSON
/// envelope capturing *what a whole run was*.
///
/// The registry answers "how much", the tracer "how long", the flight
/// recorder "what just happened" — a RunReport bundles all of them plus
/// the context needed to interpret the numbers later, on another machine,
/// against another revision:
///
///   * host fingerprint — nproc (the ROADMAP's "this box has 1 CPU"
///     caveat, machine-readable at last), page size, OS;
///   * build fingerprint — compiler, build type, git revision, audit
///     mode, sanitizer;
///   * dataset fingerprint — rows/items plus an FNV-1a digest of the
///     transaction contents, so two envelopes are comparable only when
///     they mined the same data;
///   * effective config, per-phase wall times (from the tracer), the
///     metrics snapshot, every BoundReport, the RunBudget outcome and
///     StopReason, checkpoint lineage, memory telemetry, and the flight
///     ring.
///
/// Emitters: `hgmine_cli --report=<path|->`, bench/bench_harness.h (so
/// every BENCH_*.json carries the same envelope, with bench-specific
/// tables under "payload") and the serve drain report; all three fill
/// the runtime sections through CaptureRuntime.
/// scripts/bench_compare.py diffs two envelopes;
/// tests/run_report_test.cc round-trips one through obs/json.h.
///
/// Schema versioning rules (also in DESIGN.md): the envelope carries
/// `"schema": "hgm.run_report"` and an integer `"schema_version"`.
/// Adding an optional key is backward compatible and does NOT bump the
/// version; renaming/removing a key, changing a type, or changing a
/// unit DOES.  Consumers must ignore unknown keys and refuse unknown
/// major versions.

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/bound_report.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace hgm {
namespace obs {

/// Incremental FNV-1a 64-bit hash, for dataset fingerprints.
class Fnv1a64 {
 public:
  void Update(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void UpdateU64(uint64_t v) {
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    Update(bytes, sizeof(bytes));
  }
  uint64_t Digest() const { return h_; }
  /// 16 lowercase hex digits.
  std::string HexDigest() const;

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Where the run happened.
struct HostInfo {
  uint32_t nproc = 0;
  int64_t page_kb = 0;
  std::string os;      // uname sysname, e.g. "Linux"
  std::string kernel;  // uname release
};

/// What binary produced the run.
struct BuildInfo {
  std::string compiler;    // "gcc 12.2.0" / "clang 17.0.1"
  std::string build_type;  // CMAKE_BUILD_TYPE at configure time
  std::string git_rev;     // configure-time `git rev-parse --short HEAD`
  bool audit = false;      // -DHGMINE_AUDIT=ON
  std::string sanitizer;   // "none" / "address" / "thread"
};

/// What data the run mined.
struct DatasetInfo {
  std::string path;
  uint64_t rows = 0;
  uint64_t items = 0;
  std::string fingerprint;  // Fnv1a64 hex of the transaction contents
};

/// How the run's RunBudget resolved.
struct BudgetOutcome {
  std::string stop_reason = "completed";  // StopReasonName
  uint64_t queries = 0;                   // Is-interesting evaluations
  uint64_t deadline_ms = 0;               // configured caps (0 = off)
  uint64_t max_queries = 0;
};

/// Where the run's state came from / went to.
struct CheckpointLineage {
  std::string resumed_from;  // empty = fresh run
  std::string written_to;    // empty = no checkpoint persisted
  std::string kind;          // "apriori" / "partition" / ...
};

/// The envelope.  Populate what applies; optional sections render as
/// absent keys, never as misleading zeros.
struct RunReport {
  static constexpr int kSchemaVersion = 1;
  static constexpr const char* kSchemaName = "hgm.run_report";

  std::string kind;  // "cli" or "bench"
  std::string name;  // "hgmine_cli", "bench_partition", ...
  HostInfo host;
  BuildInfo build;
  std::vector<std::string> args;
  /// Effective config as (key, raw JSON value) pairs — use the AddConfig
  /// helpers so quoting stays correct.
  std::vector<std::pair<std::string, std::string>> config;
  std::optional<DatasetInfo> dataset;
  double wall_ms = 0;
  /// Per-phase totals pulled from the tracer (empty when tracing was off).
  std::vector<PhaseTotal> phases;
  MemoryStats memory;
  std::optional<AllocStats> alloc;  // only when counting was available
  std::optional<BudgetOutcome> budget;
  std::optional<CheckpointLineage> checkpoint;
  /// Named bound reports ("levelwise", "dualize_advance", "partition").
  std::vector<std::pair<std::string, BoundReport>> bounds;
  std::optional<MetricsSnapshot> metrics;
  /// Flight-ring snapshot at emission time (empty = omitted).
  std::vector<FlightEvent> flight;
  /// Raw JSON object *body* (members without braces) for bench-specific
  /// tables; rendered under "payload".
  std::string payload_members;

  void AddConfig(const std::string& key, uint64_t value);
  void AddConfig(const std::string& key, double value);
  void AddConfig(const std::string& key, bool value);
  void AddConfig(const std::string& key, const std::string& value);

  /// Serializes the envelope (one self-contained JSON object).
  void WriteJson(std::ostream& os) const;
};

/// Fills host/build from the running process (uname, sysconf, compile-
/// time defines).
HostInfo CollectHostInfo();
BuildInfo CollectBuildInfo();

/// Fills \p report's runtime sections from the process-wide collectors:
/// the tracer's phase totals, memory (a raw read, so it works with
/// metrics off), allocation counts when the counting hook is linked, the
/// metrics snapshot when metrics are on, and the flight ring.  Every
/// envelope writer (hgmine_cli, the bench harness, the serve drain
/// report) calls this once, right before WriteRunReport; the caller
/// owns wall_ms, config, dataset, budget, checkpoint and bounds.
void CaptureRuntime(RunReport* report);

/// Writes \p report to \p dest: "-" is stdout, anything else a file,
/// created or truncated.  The error names the path it could not open.
Status WriteRunReport(const RunReport& report, const std::string& dest);

/// Structural lint of an emitted envelope: parses \p json and checks the
/// required keys (schema, schema_version, kind, name, host.nproc,
/// build.git_rev, wall_ms) exist with the right types, and that
/// schema_version is one this binary understands.  The round-trip tests
/// and the obs smoke call this.
Status ValidateRunReportJson(const std::string& json);

/// JSON string escaping shared by the obs emitters.
std::string JsonEscapeString(const std::string& s);

}  // namespace obs
}  // namespace hgm
