// Parallel scaling of Apriori's support counting.
//
// Step 4 of Algorithm 9 ("evaluate q against the database") dominates the
// cost of levelwise mining.  Apriori counts each candidate as the bitmap
// AND of its two join parents' tidsets; this harness sweeps that per-level
// batch over 1/2/4/8 threads on a large Quest workload (>= 100k
// transactions).  The whole level is one ParallelFor, so the candidates
// split into deterministic chunks and the result must be bit-for-bit
// identical at every thread count: frequent sets, supports, borders, AND
// the query tally (Theorem 10: exactly |Th| + |Bd-| support computations)
// are asserted equal against the 1-thread run.  Alongside the printed
// table the harness emits machine-readable BENCH_counting.json so future
// revisions have a perf trajectory to diff against.

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_harness.h"

#include "common/random.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "mining/apriori.h"
#include "mining/generators.h"
#include "obs/metrics.h"

namespace {

using namespace hgm;

/// One measured run, serialized into the JSON report.
struct RunRecord {
  size_t rows = 0, items = 0, minsup = 0, threads = 0;
  size_t frequent = 0, negative_border = 0;
  uint64_t support_counts = 0;
  double ms = 0.0;
  bool identical = true;  // identical to the 1-thread reference run
  uint64_t pool_busy_us = 0;
  uint64_t pool_batches = 0;
  double pool_utilization = 0.0;  // busy time / (wall time * lanes)
};

/// Renders the run table as one raw-JSON array for the harness payload;
/// the final metrics snapshot now rides in the envelope's own "metrics"
/// section instead of a bespoke "telemetry" key.
std::string RunsJson(const std::vector<RunRecord>& records) {
  std::ostringstream out;
  out << "[\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    out << "      {\"rows\": " << r.rows << ", \"items\": " << r.items
        << ", \"minsup\": " << r.minsup << ", \"threads\": " << r.threads
        << ", \"frequent\": " << r.frequent
        << ", \"negative_border\": " << r.negative_border
        << ", \"support_counts\": " << r.support_counts << ", \"ms\": "
        << r.ms << ", \"identical\": " << (r.identical ? "true" : "false")
        << ", \"telemetry\": {\"pool_busy_us\": " << r.pool_busy_us
        << ", \"pool_batches\": " << r.pool_batches
        << ", \"pool_utilization\": " << r.pool_utilization << "}}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "    ]";
  return out.str();
}

bool SameFrequent(const AprioriResult& a, const AprioriResult& b) {
  if (a.frequent.size() != b.frequent.size()) return false;
  for (size_t i = 0; i < a.frequent.size(); ++i) {
    if (a.frequent[i].items != b.frequent[i].items ||
        a.frequent[i].support != b.frequent[i].support) {
      return false;
    }
  }
  return a.maximal == b.maximal &&
         a.negative_border == b.negative_border &&
         a.support_counts.load() == b.support_counts.load();
}

}  // namespace

int main(int argc, char** argv) {
  hgm::bench::BenchHarness harness("bench_counting", argc, argv);
  std::vector<RunRecord> records;
  int failures = 0;
  StopWatch watch;  // one shared watch; every timing below is a Lap pair

  std::cout << "=== thread sweep: per-level counting batch, "
               "|D| = 100000 ===\n";
  QuestParams big;
  big.num_transactions = 100000;
  big.num_items = 120;
  big.avg_transaction_size = 10;
  Rng big_rng(1994);
  TransactionDatabase big_db = GenerateQuest(big, &big_rng);
  const size_t big_minsup = 2500;

  TablePrinter sweep({"threads", "|Th|", "|Bd-|", "queries",
                      "ms", "speedup", "util", "identical"});
  // Metrics stay on for the sweep so each run's pool-utilization figure
  // (busy worker time / wall time / lanes) lands in the JSON telemetry
  // section; the registry is reset per run to keep figures per-run.
  obs::EnableMetrics(true);
  const size_t kThreads[] = {1, 2, 4, 8};
  AprioriResult reference;
  double base_ms = 0;
  for (size_t threads : kThreads) {
    ThreadPool pool(threads);
    AprioriOptions opts;
    opts.pool = &pool;
    obs::MetricsRegistry::Global().Reset();
    watch.Lap();
    AprioriResult r = MineFrequentSets(&big_db, big_minsup, opts);
    double ms = watch.LapMillis();
    obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
    const uint64_t busy_us = snap.CounterValue("pool.busy_us");
    const double util =
        ms > 0 ? static_cast<double>(busy_us) /
                     (ms * 1000.0 * static_cast<double>(threads))
               : 0.0;

    bool identical = true;
    if (threads == 1) {
      reference = std::move(r);
      base_ms = ms;
      // Theorem 10: one support computation per candidate.
      if (reference.support_counts.load() !=
          reference.frequent.size() + reference.negative_border.size()) {
        identical = false;
      }
    } else {
      identical = SameFrequent(reference, r);
    }
    if (!identical) ++failures;
    const AprioriResult& shown = threads == 1 ? reference : r;
    sweep.NewRow()
        .Add(threads)
        .Add(shown.frequent.size())
        .Add(shown.negative_border.size())
        .Add(shown.support_counts.load())
        .Add(ms, 2)
        .Add(base_ms / ms, 2)
        .Add(util, 2)
        .Add(identical ? "yes" : "NO");
    records.push_back({big.num_transactions, big.num_items, big_minsup,
                       threads, shown.frequent.size(),
                       shown.negative_border.size(),
                       shown.support_counts.load(), ms, identical, busy_us,
                       snap.CounterValue("pool.batches"), util});
  }
  sweep.Print();
  std::cout << "\nEvery level is counted as one ParallelFor; each "
               "candidate writes its own\nslot, so output, supports, and "
               "the Theorem-10 query tally are identical\nat every thread "
               "count (asserted above).  Only that batch is parallel: "
               "the join, the\nlevel split and the output sort run "
               "serially and cap the speedup.\n";

  harness.AddPayload("runs", RunsJson(records));
  std::cout << (failures == 0 ? "ALL RUNS AGREE\n" : "MISMATCH\n");
  return harness.Finish(failures);
}
