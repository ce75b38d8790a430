// hgmine_cli: command-line frequent-set / maximal-set / rule miner.
//
// Usage (Usage() below prints every flag):
//   hgmine_cli mine <basket-file> <min-support> [mine flags] [shared flags]
//   hgmine_cli follow <basket-file|-> <min-support> --window=N
//                     [follow flags] [shared flags]
//   hgmine_cli demo
//
// Both commands run one pipeline: one flag table (each command's own
// flags plus the shared ones), one telemetry setup, one envelope writer,
// one partial exit and one epilogue.  `mine` and `follow` differ only in
// what they run and what they print.
//
// Basket format: one transaction per line, whitespace-separated item ids;
// '#' comments.  `demo` writes a small file and mines it, so the tool is
// runnable with no inputs.
//
// `follow` consumes an append-only basket stream ('-' reads stdin) through
// the incremental StreamMiner: a sliding window of N rows advancing M rows
// at a time (default M = N, a tumbling window), the borders repaired at
// each boundary instead of re-mined.  One summary line is printed per
// window boundary; --report emits one run-report envelope per boundary
// ('-' streams them to stdout, a path gets a .w<k>.json suffix per
// boundary).  --deadline-ms / --max-queries budget each boundary's repair;
// a trip prints the certified prefix, saves --checkpoint if given, and
// exits 3.  No command resumes that stream checkpoint yet: `follow` has
// no --resume and `mine --resume` rejects kind "stream".  --cross-check
// re-derives Bd- from Th via the Theorem-7 Berge dualization at every
// boundary and aborts on drift.
//
// --shards=K       mines through the sharded partition backend (K row
//                  shards, two-phase confirmation) instead of the
//                  single-database Apriori; output is bit-identical;
// --metrics=-      prints the telemetry registry as a table, plus the
//                  paper-bound report (Theorem 10 / Corollary 13 ratios)
//                  of every engine that populated its gauges;
// --metrics=<path> writes the same data as JSON;
// --trace=<path>   writes Chrome/Perfetto trace-event JSON (load it in
//                  chrome://tracing or ui.perfetto.dev);
// --report=<path|-> emits the schema-versioned hgm.run_report envelope
//                  (host/build/dataset fingerprints, effective config,
//                  per-phase wall times, metrics, bound reports, budget
//                  outcome, checkpoint lineage, memory telemetry, and
//                  the flight ring); implies metrics + tracing.  Written
//                  for completed AND budget-tripped runs;
// --flight=<path>  arms crash forensics: installs the HGMINE_CHECK and
//                  fatal-signal (SIGSEGV/SIGABRT) handlers and dumps the
//                  flight-recorder ring to <path> on a crash or budget
//                  trip — the always-on ring means the events leading up
//                  to the failure are already buffered;
// --deadline-ms=N  wall-clock budget: the miner stops at the next level
//                  boundary after N ms and reports its certified prefix;
// --max-queries=N  support-count budget, same anytime semantics;
// --checkpoint=<p> where to write the resume state when a budget trips
//                  (exit code 3 marks the partial run);
// --resume=<p>     continue a checkpointed run; the combined output is
//                  bit-identical to one uninterrupted run;
// --chaos-seed=N   (with --shards) injects seeded transient shard faults
//                  into phase 1 to exercise the retry/failover path; the
//                  mined output must be identical to a fault-free run.
//
// Exit codes: 0 complete, 1 I/O or internal error, 2 usage error,
// 3 budget tripped (partial result; checkpoint written if requested).
// SIGTERM/SIGINT cancel the run's budget token, so an interrupted run
// takes the same exit-3 path: certified prefix printed, checkpoint
// written when --checkpoint is given, resumable with --resume.

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "common/parse.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/checkpoint.h"
#include "mining/apriori.h"
#include "mining/closed.h"
#include "mining/max_miner.h"
#include "mining/partition.h"
#include "mining/rules.h"
#include "mining/sharded_db.h"
#include "mining/stream.h"
#include "mining/transaction_db.h"
#include "obs/bound_report.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "testing/fault_injection.h"

namespace {

/// Flipped by SIGTERM/SIGINT.  Every budgeted engine run carries a token
/// from this source, so an interrupt is just one more budget trip: the
/// miner stops at the next safe boundary, prints the certified prefix,
/// writes --checkpoint if given, and exits 3 — a ^C'd run is resumable
/// with --resume exactly like a deadline-tripped one.
hgm::CancellationSource g_interrupt;

void OnInterrupt(int) { g_interrupt.RequestCancel(); }

void InstallInterruptHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnInterrupt;  // RequestCancel is one atomic store
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

int Usage() {
  std::cerr
      << "usage: hgmine_cli mine <basket-file> <min-support>\n"
         "           [--rules <min-conf>] [--maximal] [--closed]\n"
         "           [--algo levelwise|dualize|dfs]\n"
         "           [--shards=K] [--resume=<path>] [--chaos-seed=N]\n"
         "           [shared flags]\n"
         "       hgmine_cli follow <basket-file|-> <min-support> --window=N\n"
         "           [--slide=M] [--items=U] [--cross-check] [shared flags]\n"
         "       hgmine_cli demo\n"
         "shared flags: [--metrics=<path|->] [--trace=<path>]\n"
         "           [--report=<path|->] [--flight=<path>]\n"
         "           [--deadline-ms=N] [--max-queries=N]\n"
         "           [--checkpoint=<path>]\n";
  return 2;
}

/// Strict flag-value parsing: --foo=12x, --foo=-3, and --foo=99999999...
/// are all usage errors with one-line messages, not silent zeros.
bool ParseFlagUint(const std::string& flag, const std::string& value,
                   uint64_t max_value, uint64_t* out) {
  hgm::Status s = hgm::ParseUnsignedToken(value, max_value, flag, 0, out);
  if (!s.ok()) {
    std::cerr << "error: " << s.message() << "\n";
    return false;
  }
  return true;
}

/// The largest --max-queries / --chaos-seed value.
constexpr uint64_t kMaxCount = std::numeric_limits<uint64_t>::max() - 1;

/// One row of a command's flag table.  A kSwitch flag is the bare name,
/// a kInline one is `--name=value`, and the two older flags (`--rules`,
/// `--algo`) take the next word.  `set` returns false on a usage error it
/// has already reported.
struct Flag {
  enum class Form { kSwitch, kInline, kNextWord };
  std::string name;
  Form form;
  std::function<bool(const std::string& value)> set;
};

Flag SwitchFlag(const std::string& name, bool* out) {
  return {name, Flag::Form::kSwitch,
          [out](const std::string&) { return *out = true; }};
}

/// \p min_value > 0 rejects smaller values ("--shards must be >= 1").
Flag UintFlag(const std::string& name, uint64_t max_value, uint64_t* out,
              uint64_t min_value = 0) {
  return {name, Flag::Form::kInline, [=](const std::string& value) {
            if (!ParseFlagUint(name, value, max_value, out)) return false;
            if (*out >= min_value) return true;
            std::cerr << "error: " << name << " must be >= " << min_value
                      << "\n";
            return false;
          }};
}

/// An empty path (`--trace=`) is a usage error.
Flag PathFlag(const std::string& name, std::string* out) {
  return {name, Flag::Form::kInline, [out](const std::string& value) {
            *out = value;
            if (value.empty()) Usage();
            return !value.empty();
          }};
}

/// Exports the metrics registry (plus every populated bound report) to
/// stdout as tables, or to a file as one JSON object.
int ExportMetrics(const std::string& dest) {
  using namespace hgm;
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  const auto bounds = obs::BoundReportsFromRegistry(snap);
  if (dest == "-") {
    std::cout << "\ntelemetry:\n";
    obs::PrintMetricsTable(snap, std::cout);
    for (const auto& [name, report] : bounds) {
      std::string title = name;  // "dualize_advance" -> "dualize-advance"
      std::replace(title.begin(), title.end(), '_', '-');
      std::cout << "\n" << title << " bound report"
                << (name == "stream" ? " (last boundary)" : "") << ":\n";
      report.Print(std::cout);
    }
    return 0;
  }
  std::ofstream out(dest);
  if (!out) {
    std::cerr << "error: cannot write metrics to " << dest << "\n";
    return 1;
  }
  out << "{\"metrics\": ";
  obs::WriteJsonSnapshot(snap, out, 2);
  for (const auto& [name, report] : bounds) {
    out << ",\n\"" << name << "_bounds\": ";
    report.WriteJson(out, 2);
  }
  out << "}\n";
  return 0;
}

/// The envelope's dataset section: rows and items plus an FNV-1a digest
/// of the transaction contents, so two envelopes are known to have mined
/// the same data before anyone diffs their timings.
hgm::obs::DatasetInfo DescribeDataset(const std::string& path,
                                      const hgm::TransactionDatabase& db) {
  hgm::obs::DatasetInfo ds;
  ds.path = path;
  ds.rows = db.num_transactions();
  ds.items = db.num_items();
  hgm::obs::Fnv1a64 hash;
  hash.UpdateU64(db.num_items());
  for (const hgm::Bitset& row : db.rows()) {
    for (uint64_t w : row.words()) hash.UpdateU64(w);
  }
  ds.fingerprint = hash.HexDigest();
  return ds;
}

/// The pipeline `mine` and `follow` share: the positional basket path
/// and minimum support, the seven shared flags, telemetry, the envelope,
/// the partial exit and the epilogue.
class CliRun {
 public:
  /// \p kind and \p name label the envelope ("cli" / "stream"); a
  /// "stream" run's checkpoints cannot be resumed by any command.
  CliRun(std::string kind, std::string name, std::vector<std::string> args)
      : kind_(std::move(kind)),
        name_(std::move(name)),
        args_(std::move(args)) {}

  /// Parses `<command> <path> <min-support>` and the flags after them
  /// against \p table plus the shared flags.  Returns 0, or 2 after
  /// reporting a usage error.
  int Parse(std::vector<Flag> table) {
    if (args_.size() < 3) return Usage();
    path = args_[1];
    if (!ParseFlagUint("min-support", args_[2],
                       std::numeric_limits<uint32_t>::max(), &min_support)) {
      return 2;
    }
    table.insert(
        table.end(),
        {UintFlag("--deadline-ms", std::numeric_limits<uint32_t>::max(),
                  &deadline_ms),
         UintFlag("--max-queries", kMaxCount, &max_queries),
         PathFlag("--checkpoint", &checkpoint_path),
         PathFlag("--metrics", &metrics_dest_),
         PathFlag("--trace", &trace_path_),
         PathFlag("--report", &report_path),
         PathFlag("--flight", &flight_path_)});
    for (size_t i = 3; i < args_.size(); ++i) {
      const std::string& arg = args_[i];
      auto flag = std::find_if(table.begin(), table.end(), [&](const Flag& f) {
        return f.form == Flag::Form::kInline
                   ? arg.rfind(f.name + "=", 0) == 0
                   : arg == f.name && (f.form == Flag::Form::kSwitch ||
                                       i + 1 < args_.size());
      });
      if (flag == table.end()) {
        std::cerr << "error: unknown argument '" << arg << "'\n";
        return Usage();
      }
      std::string value;
      if (flag->form == Flag::Form::kInline) {
        value = arg.substr(flag->name.size() + 1);
      } else if (flag->form == Flag::Form::kNextWord) {
        value = args_[++i];
      }
      if (!flag->set(value)) return 2;
    }
    return 0;
  }

  /// Turns on what the shared flags ask for.  A run report needs the
  /// metrics snapshot and the tracer's phase totals, so --report implies
  /// both collectors.
  void ArmTelemetry() const {
    using namespace hgm;
    const bool want_report = !report_path.empty();
    if (!metrics_dest_.empty() || want_report) obs::EnableMetrics(true);
    if (!trace_path_.empty() || want_report) obs::Tracer::Global().Start();
    if (!flight_path_.empty()) {
      obs::FlightRecorder::Global().SetDumpPath(flight_path_.c_str());
      obs::FlightRecorder::Global().EnableDumpOnTrip(true);
      obs::InstallCrashHandlers();
    }
  }

  hgm::RunBudget Budget() const {
    hgm::RunBudget budget;
    budget.max_duration = std::chrono::milliseconds(deadline_ms);
    budget.max_queries = max_queries;
    budget.cancel = g_interrupt.token();
    return budget;
  }

  /// Completes \p report (identity, host, build, args, budget outcome,
  /// checkpoint lineage, runtime sections and the populated bound
  /// reports) and writes it to \p dest.  A tripped stream boundary
  /// published no stream gauges (the registry still holds the previous
  /// boundary's), so its envelope carries no bounds.  Only an envelope at
  /// the --report path itself is announced on stdout; follow's
  /// per-boundary files are not.  A no-op without --report.
  int WriteReport(hgm::obs::RunReport report, const std::string& dest,
                  hgm::StopReason stop, uint64_t queries) {
    using namespace hgm;
    if (report_path.empty()) return 0;
    report.kind = kind_;
    report.name = name_;
    report.host = obs::CollectHostInfo();
    report.build = obs::CollectBuildInfo();
    report.args = args_;
    report.budget = obs::BudgetOutcome{StopReasonName(stop), queries,
                                       deadline_ms, max_queries};
    if (!resumed_from.empty() || !checkpoint_written_.empty()) {
      report.checkpoint = obs::CheckpointLineage{
          resumed_from, checkpoint_written_, checkpoint_kind};
    }
    obs::CaptureRuntime(&report);
    if (report.metrics &&
        (stop == StopReason::kCompleted || kind_ != "stream")) {
      report.bounds = obs::BoundReportsFromRegistry(*report.metrics);
    }
    Status s = obs::WriteRunReport(report, dest);
    if (!s.ok()) {
      std::cerr << "error: " << s.message() << "\n";
      return 1;
    }
    if (dest == report_path && dest != "-") {
      std::cout << "wrote run report to " << dest
                << " (hgm.run_report schema v"
                << obs::RunReport::kSchemaVersion << ")\n";
    }
    return 0;
  }

  /// The partial exit of a budget trip or interrupt, after the caller
  /// printed its stop line: save the checkpoint when --checkpoint asks,
  /// write the envelope, and exit 3 so scripts can tell "partial" from
  /// "failed".  `mine --resume` takes apriori and partition checkpoints;
  /// no command resumes a stream one.
  int FinishPartial(hgm::obs::RunReport report, const std::string& dest,
                    hgm::StopReason stop, uint64_t queries,
                    const std::optional<hgm::Checkpoint>& cp) {
    using namespace hgm;
    if (!checkpoint_path.empty()) {
      if (!cp) {
        std::cerr << "error: budget tripped but no checkpoint was produced\n";
        return 1;
      }
      Status s = SaveCheckpointFile(*cp, checkpoint_path);
      if (!s.ok()) {
        std::cerr << "error: " << s.ToString() << "\n";
        return 1;
      }
      checkpoint_written_ = checkpoint_path;
      std::cout << "checkpoint written to " << checkpoint_path;
      if (kind_ != "stream") {
        std::cout << " (resume with --resume=" << checkpoint_path << ")";
      }
      std::cout << "\n";
    }
    return WriteReport(std::move(report), dest, stop, queries) != 0 ? 1 : 3;
  }

  /// The epilogue of a completed run: the trace, the --metrics export
  /// and, when \p report is given, its envelope at the --report path.
  int Finish(hgm::obs::RunReport* report, uint64_t queries) {
    using namespace hgm;
    int rc = 0;
    if (!trace_path_.empty()) {
      obs::Tracer::Global().Stop();
      std::ofstream out(trace_path_);
      if (out) {
        obs::Tracer::Global().WriteJson(out);
        std::cout << "\nwrote " << obs::Tracer::Global().num_events()
                  << " trace events to " << trace_path_ << "\n";
      } else {
        std::cerr << "error: cannot write trace to " << trace_path_ << "\n";
        rc = 1;
      }
    }
    if (!metrics_dest_.empty()) rc = std::max(rc, ExportMetrics(metrics_dest_));
    if (report != nullptr) {
      rc = std::max(rc, WriteReport(std::move(*report), report_path,
                                    StopReason::kCompleted, queries));
    }
    return rc;
  }

  std::string path;  // basket file, or "-" for follow's stdin
  uint64_t min_support = 0;
  uint64_t deadline_ms = 0;
  uint64_t max_queries = 0;
  std::string checkpoint_path;  // where a budget trip saves its state
  std::string report_path;      // envelope destination; "-" = stdout
  std::string checkpoint_kind;  // "apriori", "partition" or "stream"
  std::string resumed_from;     // mine --resume

 private:
  std::string kind_;
  std::string name_;
  std::vector<std::string> args_;
  std::string metrics_dest_;  // empty = not requested; "-" = stdout
  std::string trace_path_;
  std::string flight_path_;   // crash-forensics dump destination
  std::string checkpoint_written_;  // set by FinishPartial on save
};

/// Per-boundary report destination: "-" streams envelopes to stdout; a
/// path (with or without a trailing .json) becomes <base>.w<k>.json.
std::string BoundaryReportPath(const std::string& base, size_t boundary) {
  if (base == "-") return base;
  std::string stem = base;
  const std::string ext = ".json";
  if (stem.size() > ext.size() &&
      stem.compare(stem.size() - ext.size(), ext.size(), ext) == 0) {
    stem.resize(stem.size() - ext.size());
  }
  return stem + ".w" + std::to_string(boundary) + ".json";
}

/// The `follow` subcommand: incremental border maintenance over an
/// append-only basket stream (see the file comment for semantics).
int RunFollow(const std::vector<std::string>& args) {
  using namespace hgm;
  CliRun cli("stream", "hgmine_cli follow", args);
  cli.checkpoint_kind = "stream";
  uint64_t window_rows = 0, slide_rows = 0, num_items = 0;
  bool cross_check = false;
  if (int rc = cli.Parse({UintFlag("--window", 1u << 30, &window_rows),
                          UintFlag("--slide", 1u << 30, &slide_rows),
                          UintFlag("--items", 1u << 20, &num_items),
                          SwitchFlag("--cross-check", &cross_check)})) {
    return rc;
  }
  if (window_rows == 0) {
    std::cerr << "error: follow requires --window=N (rows per window)\n";
    return 2;
  }
  if (slide_rows == 0) slide_rows = window_rows;  // tumbling
  if (window_rows % slide_rows != 0) {
    std::cerr << "error: --slide must divide --window (expiry drops whole "
                 "buckets)\n";
    return 2;
  }
  cli.ArmTelemetry();

  // The append-only stream, replayed in arrival order.  '-' reads stdin
  // to EOF; a declared --items universe lets rows mention items the
  // early stream prefix has not shown yet.
  Result<TransactionDatabase> loaded = [&]() {
    if (cli.path != "-") {
      return TransactionDatabase::LoadBasketFile(
          cli.path, static_cast<size_t>(num_items));
    }
    std::ostringstream text;
    text << std::cin.rdbuf();
    return TransactionDatabase::ParseBasketText(
        text.str(), static_cast<size_t>(num_items), "<stdin>");
  }();
  if (!loaded.ok()) {
    std::cerr << "error: " << loaded.status().ToString() << "\n";
    return 1;
  }
  TransactionDatabase feed = std::move(loaded.value());
  std::cout << "following " << feed.num_transactions() << " rows over "
            << feed.num_items() << " items from " << cli.path << " (window "
            << window_rows << ", slide " << slide_rows << ")\n";

  StreamOptions sopts;
  sopts.slide_rows = static_cast<size_t>(slide_rows);
  sopts.cross_check_borders = cross_check;
  sopts.budget = cli.Budget();
  StreamMiner miner(feed.num_items(), cli.min_support,
                    static_cast<size_t>(window_rows), sopts);

  // One envelope per boundary: fingerprint of the window's rows, the
  // boundary's border/accounting stats, and the cumulative telemetry and
  // flight ring at that point.
  auto boundary_report = [&](const StreamWindowResult& r, double wall_ms) {
    obs::RunReport report;
    if (cli.report_path.empty()) return report;
    report.wall_ms = wall_ms;
    report.AddConfig("min_support", cli.min_support);
    report.AddConfig("window_rows", window_rows);
    report.AddConfig("slide_rows", slide_rows);
    report.AddConfig("window_index", static_cast<uint64_t>(r.window_index));
    report.AddConfig("frequent", static_cast<uint64_t>(r.frequent.size()));
    report.AddConfig("maximal", static_cast<uint64_t>(r.maximal.size()));
    report.AddConfig("negative_border",
                     static_cast<uint64_t>(r.negative_border.size()));
    report.AddConfig("evaluations", r.evaluations);
    report.AddConfig("reused", r.reused);
    report.AddConfig("promoted", static_cast<uint64_t>(r.promoted));
    report.AddConfig("demoted", static_cast<uint64_t>(r.demoted));
    report.dataset = DescribeDataset(cli.path, miner.WindowSnapshot());
    return report;
  };

  int rc = 0;
  size_t boundaries = 0;
  for (const Bitset& row : feed.rows()) {
    if (!miner.Push(row)) continue;
    StopWatch watch;
    StreamWindowResult r = miner.AdvanceWindow();
    const double wall_ms = watch.Millis();
    const std::string dest =
        BoundaryReportPath(cli.report_path, r.window_index);
    if (r.stop_reason != StopReason::kCompleted) {
      std::cout << "window " << r.window_index << ": stopped early ("
                << StopReasonName(r.stop_reason)
                << "); borders above level "
                << (r.frequent.empty() ? 0
                                       : r.frequent.back().items.Count())
                << " are the certified prefix\n";
      return cli.FinishPartial(boundary_report(r, wall_ms), dest,
                               r.stop_reason, r.evaluations, r.checkpoint);
    }
    std::cout << "window " << r.window_index << ": rows="
              << r.rows_in_window << " frequent=" << r.frequent.size()
              << " bd+=" << r.maximal.size()
              << " bd-=" << r.negative_border.size() << " fresh="
              << r.evaluations << " reused=" << r.reused << " (+"
              << r.promoted << "/-" << r.demoted << ")\n";
    if (cli.WriteReport(boundary_report(r, wall_ms), dest,
                        StopReason::kCompleted, r.evaluations) != 0) {
      rc = 1;
    }
    ++boundaries;
  }
  if (boundaries == 0) {
    std::cerr << "error: stream ended before the first slide filled ("
              << feed.num_transactions() << " rows < " << slide_rows
              << ")\n";
    return 1;
  }
  const size_t buffered =
      feed.num_transactions() - boundaries * static_cast<size_t>(slide_rows);
  if (buffered > 0) {
    std::cout << buffered << " trailing rows buffered (slide not full)\n";
  }
  std::vector<TiltedSummary> history = miner.TiltedHistory();
  if (!history.empty()) {
    std::cout << "tilted history (oldest first):";
    for (const TiltedSummary& cell : history) {
      std::cout << " " << cell.rows << "r/" << cell.buckets << "b";
    }
    std::cout << "\n";
  }
  return std::max(rc, cli.Finish(nullptr, 0));
}

/// The `mine` subcommand: one batch run (Apriori, or partition with
/// --shards), then the optional maximal, closed and rule passes.
int RunMine(const std::vector<std::string>& args) {
  using namespace hgm;
  CliRun cli("cli", "hgmine_cli", args);
  bool want_maximal = false, want_closed = false, want_rules = false;
  double min_conf = 0.5;
  uint64_t num_shards = 0;  // 0 = single-database Apriori path
  constexpr uint64_t kNoChaos = std::numeric_limits<uint64_t>::max();
  uint64_t chaos_seed = kNoChaos;  // above every seed --chaos-seed takes
  MaxMinerAlgorithm algo = MaxMinerAlgorithm::kDualizeAdvance;
  int parse_rc = cli.Parse({
      SwitchFlag("--maximal", &want_maximal),
      SwitchFlag("--closed", &want_closed),
      UintFlag("--shards", 1u << 20, &num_shards, /*min_value=*/1),
      PathFlag("--resume", &cli.resumed_from),
      UintFlag("--chaos-seed", kMaxCount, &chaos_seed),
      {"--rules", Flag::Form::kNextWord,
       [&](const std::string& value) {
         want_rules = true;
         char* end = nullptr;
         min_conf = std::strtod(value.c_str(), &end);
         // NaN fails every comparison, so test finiteness explicitly.
         if (end == value.c_str() || *end != '\0' ||
             !std::isfinite(min_conf) || min_conf < 0 || min_conf > 1) {
           std::cerr << "error: --rules confidence must be a number in "
                        "[0,1], got '"
                     << value << "'\n";
           return false;
         }
         return true;
       }},
      {"--algo", Flag::Form::kNextWord,
       [&](const std::string& value) {
         if (value == "levelwise") {
           algo = MaxMinerAlgorithm::kLevelwise;
         } else if (value == "dualize") {
           algo = MaxMinerAlgorithm::kDualizeAdvance;
         } else if (value == "dfs") {
           algo = MaxMinerAlgorithm::kDepthFirst;
         } else {
           std::cerr << "error: unknown --algo '" << value << "'\n";
           return false;
         }
         return true;
       }},
  });
  if (parse_rc != 0) return parse_rc;
  const bool have_chaos = chaos_seed != kNoChaos;
  if (have_chaos && num_shards == 0) {
    std::cerr << "error: --chaos-seed requires --shards=K (faults are "
                 "injected into phase-1 shard mining)\n";
    return 2;
  }
  cli.checkpoint_kind = num_shards > 0 ? "partition" : "apriori";
  cli.ArmTelemetry();
  StopWatch run_watch;

  auto loaded = TransactionDatabase::LoadBasketFile(cli.path);
  if (!loaded.ok()) {
    std::cerr << "error: " << loaded.status().ToString() << "\n";
    return 1;
  }
  TransactionDatabase db = std::move(loaded.value());
  std::cout << "loaded " << db.num_transactions() << " transactions over "
            << db.num_items() << " items from " << cli.path << "\n";

  obs::RunReport report;
  if (!cli.report_path.empty()) {
    report.AddConfig("min_support", cli.min_support);
    report.AddConfig("shards", num_shards);
    report.AddConfig("maximal", want_maximal);
    report.AddConfig("closed", want_closed);
    report.AddConfig("rules", want_rules);
    report.AddConfig("deadline_ms", cli.deadline_ms);
    report.AddConfig("max_queries", cli.max_queries);
    report.dataset = DescribeDataset(cli.path, db);
  }

  std::optional<Checkpoint> resume_from;
  if (!cli.resumed_from.empty()) {
    auto cp = LoadCheckpointFile(cli.resumed_from);
    if (!cp.ok()) {
      std::cerr << "error: " << cp.status().ToString() << "\n";
      return 1;
    }
    resume_from = std::move(cp.value());
    if (resume_from->kind != cli.checkpoint_kind) {
      std::cerr << "error: checkpoint kind '" << resume_from->kind
                << "' does not match this invocation (expected '"
                << cli.checkpoint_kind << "'; ";
      if (resume_from->kind == "apriori" || resume_from->kind == "partition") {
        std::cerr << "match the original run's --shards)\n";
      } else {
        std::cerr << "mine resumes only apriori and partition runs)\n";
      }
      return 2;
    }
  }

  // Shared by both backends' trip exits: the stop line, then the
  // pipeline's partial exit.
  auto finish_partial = [&](StopReason reason,
                            const std::optional<Checkpoint>& cp,
                            uint64_t queries) {
    std::cout << "stopped early (" << StopReasonName(reason)
              << "); result above is the certified prefix\n";
    report.wall_ms = run_watch.Millis();
    return cli.FinishPartial(std::move(report), cli.report_path, reason,
                             queries, cp);
  };

  AprioriResult mined;
  if (num_shards > 0) {
    ShardedTransactionDatabase sharded =
        ShardedTransactionDatabase::Split(db, num_shards);
    PartitionOptions popts;
    popts.budget = cli.Budget();
    if (have_chaos) {
      // Seeded transient faults in phase 1; the retry rounds must heal
      // them and reproduce the fault-free output bit for bit.
      FaultSpec spec;
      spec.transient_rate = 0.4;
      spec.seed = chaos_seed;
      popts.shard_fault_hook = MakeShardFaultSchedule(spec);
      popts.retry.max_attempts = 6;
    }
    PartitionResult part;
    if (resume_from) {
      auto resumed = ResumePartition(&sharded, *resume_from, popts);
      if (!resumed.ok()) {
        std::cerr << "error: " << resumed.status().ToString() << "\n";
        return 1;
      }
      part = std::move(resumed.value());
    } else {
      part = MinePartitioned(&sharded, cli.min_support, popts);
    }
    if (!part.status.ok()) {
      std::cerr << "warning: " << part.status.ToString() << "\n";
    }
    std::cout << part.frequent.size()
              << " frequent itemsets at support >= " << cli.min_support
              << " via " << part.num_shards << " shards ("
              << part.phase2_evaluations << " phase-2 full-pass sets, "
              << part.phase2_reused << " reused from phase-1 counts, "
              << part.phase2_rejected << " rejected";
    if (part.shard_retries > 0) {
      std::cout << ", " << part.shard_retries << " shard retries";
    }
    std::cout << ")\n";
    if (part.stop_reason != StopReason::kCompleted) {
      return finish_partial(part.stop_reason, part.checkpoint,
                            part.phase2_evaluations);
    }
    TablePrinter shards({"shard", "rows", "local minsup", "local frequent"});
    for (size_t k = 0; k < part.num_shards; ++k) {
      shards.NewRow()
          .Add(k)
          .Add(sharded.manifest()[k].row_end - sharded.manifest()[k].row_begin)
          .Add(part.local_thresholds[k])
          .Add(part.local_frequent_per_shard[k]);
    }
    shards.Print();
    mined = AsAprioriResult(part);
  } else {
    AprioriOptions aopts;
    aopts.budget = cli.Budget();
    if (resume_from) {
      auto resumed = ResumeFrequentSets(&db, *resume_from, aopts);
      if (!resumed.ok()) {
        std::cerr << "error: " << resumed.status().ToString() << "\n";
        return 1;
      }
      mined = std::move(resumed.value());
    } else {
      mined = MineFrequentSets(&db, cli.min_support, aopts);
    }
    std::cout << mined.frequent.size()
              << " frequent itemsets at support >= " << cli.min_support
              << " (" << mined.support_counts << " support counts)\n";
    if (mined.stop_reason != StopReason::kCompleted) {
      return finish_partial(mined.stop_reason, mined.checkpoint,
                            mined.support_counts.load());
    }
    TablePrinter levels({"size", "candidates", "frequent"});
    for (size_t k = 0; k < mined.candidates_per_level.size(); ++k) {
      levels.NewRow().Add(k).Add(mined.candidates_per_level[k]).Add(
          k < mined.frequent_per_level.size() ? mined.frequent_per_level[k]
                                              : 0);
    }
    levels.Print();
  }

  std::vector<std::string> names;
  for (size_t i = 0; i < db.num_items(); ++i) {
    names.push_back("i" + std::to_string(i));
  }
  if (want_maximal) {
    MaxMinerResult mx = MineMaximalFrequentSets(&db, cli.min_support, algo);
    std::cout << "\nmaximal itemsets (" << ToString(algo) << ", "
              << mx.queries << " queries):\n";
    for (const auto& m : mx.maximal) {
      std::cout << "  " << m.Format(names, " ") << "\n";
    }
  }
  if (want_closed) {
    auto closed = MineClosedFrequentSets(&db, cli.min_support);
    std::cout << "\n" << closed.size() << " closed itemsets (vs "
              << mined.frequent.size() << " frequent)\n";
  }
  if (want_rules) {
    auto rules_or = GenerateRules(mined, db.num_transactions(), min_conf);
    if (!rules_or.ok()) {
      std::cerr << "error: " << rules_or.status().ToString() << "\n";
      return 1;
    }
    const auto& rules = rules_or.value();
    std::cout << "\n" << rules.size() << " rules at confidence >= "
              << min_conf << ":\n";
    size_t shown = 0;
    for (const auto& rule : rules) {
      if (++shown > 20) {
        std::cout << "  ... (" << rules.size() - 20 << " more)\n";
        break;
      }
      std::cout << "  " << FormatRule(rule, names) << "\n";
    }
  }

  report.wall_ms = run_watch.Millis();
  return cli.Finish(&report, mined.support_counts.load());
}

}  // namespace

int main(int argc, char** argv) {
  InstallInterruptHandlers();
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return Usage();
  if (args[0] == "demo") {
    const std::string path = "/tmp/hgmine_demo.basket";
    std::ofstream out(path);
    out << "# Figure 1 of Gunopulos/Khardon/Mannila/Toivonen, PODS'97\n"
        << "0 1 2\n0 1 2\n1 3\n1 3\n0 3\n";
    args = {"mine", path, "2", "--rules", "0.6", "--maximal", "--closed"};
  }
  if (args[0] == "follow" || args[0] == "--follow") return RunFollow(args);
  if (args[0] != "mine") return Usage();
  return RunMine(args);
}
