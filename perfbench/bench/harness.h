#pragma once

/// \file harness.h
/// \brief Shared plumbing of the hgm_perfbench workloads: run arguments,
/// the in-memory span log of the traced run, the per-run result record,
/// seeded row shuffles, and the two layer probes every workload
/// reports (the word kernel and the level-counting replay).
///
/// The benchmark drives the library only through its public headers, from
/// outside: every span is recorded here, around calls into a layer, never
/// inside src/.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "common/thread_pool.h"
#include "mining/apriori.h"
#include "mining/transaction_db.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since \p start.
inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Command-line arguments shared by every workload.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  /// Measured seconds of the run (the traced run splits them between an
  /// untraced reference pass and the traced pass).
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for state the workload writes (serve WALs).
  std::string scratch_dir = ".perfbench_out";
};

/// In-memory span log of the traced run.  Every span has a name, a start,
/// an end and a parent (-1 = the run itself).  Calls too hot to time one
/// by one (oracle queries, transversal Next() calls) are folded into one
/// aggregate span per enclosing call, with `count` > 1 and the summed
/// duration.  Thread-safe: serve clients record from their own threads.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  /// Opens a span and returns its id.
  int Begin(const std::string& name, int parent);
  /// Closes span \p id.
  void End(int id);
  /// Records \p count calls totalling \p total_ms under \p parent.
  void Aggregate(const std::string& name, int parent, double total_ms,
                 uint64_t count);

  /// Durations (ms) of every span named \p name, in start order.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Writes {"spans":[{id,name,parent,start_us,end_us,count},...]}.
  void WriteJson(std::ostream& os) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_us = 0;
    double end_us = 0;
    uint64_t count = 1;
  };
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null log records nothing, so untraced runs pay no clock
/// reads for it.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int parent = -1)
      : log_(log), id_(log != nullptr ? log->Begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Everything one run measured; main.cc serializes it as the payload of
/// the run's hgm.run_report envelope and perfbench/run.py turns it into
/// the named metrics.
struct RunResult {
  /// Seconds of each set-up repetition.
  std::vector<double> setup_s;
  /// Latency samples (ms) per operation name.
  std::map<std::string, std::vector<double>> ops_ms;
  /// Throughput: work units completed in work_seconds of measured time.
  double work_units = 0;
  double work_seconds = 0;
  /// Operations and checks attempted; failures lists every one that failed.
  uint64_t attempted = 0;
  std::vector<std::string> failures;
  /// The per-layer metrics every workload reports (traced run only).
  std::map<std::string, double> layers;
  /// Workload-specific per-layer numbers and shape facts (|Th|, ...).
  std::map<std::string, double> detail;
  /// Reconciliation ladder (traced run): ("group|row", ms) — the layer
  /// rows and named residual of one end-to-end figure, then its traced
  /// total and the untraced reference.
  std::vector<std::pair<std::string, double>> ladder;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
  void Record(const std::string& op, double ms) {
    ++attempted;
    ops_ms[op].push_back(ms);
  }
  /// Median of the samples recorded for \p op (0 when there are none).
  double OpMedian(const std::string& op) const;
};

/// Runs \p setup at least three times and until a second has passed (at
/// most 100 times), recording each repetition's seconds in out->setup_s;
/// set-up time is reported as their median.
template <typename Fn>
void TimeSetup(Fn&& setup, RunResult* out) {
  const Clock::time_point first = Clock::now();
  for (int rep = 0; rep < 100 && (rep < 3 || MsSince(first) < 1000.0);
       ++rep) {
    const Clock::time_point start = Clock::now();
    setup(rep);
    out->setup_s.push_back(MsSince(start) / 1000.0);
  }
}

/// Median of \p values (0 for an empty list).
double Median(std::vector<double> values);

/// Pool size for a workload that wants \p want threads: at most the
/// machine's hardware concurrency, at least 1.
size_t BenchThreads(size_t want);

/// A workload's seeded input: its fixed base instance \p base with the
/// rows shuffled by a generator seeded with \p seed, within consecutive
/// blocks of \p block rows (0: one block).  Every seed gets different
/// input bits while the work a run measures stays the same.  Item ids are
/// kept: they set the order Dualize and Advance walks items in, and which
/// frequent sets Apriori's join pairs up, so how far its maximal-set sweep
/// scans.  Each workload picks blocks that keep the rows its algorithm
/// groups together (partition shards, stream slides, a session's opening
/// rows).
hgm::TransactionDatabase ShuffleRows(const hgm::TransactionDatabase& base,
                                     uint64_t seed, size_t block);

/// Word-kernel probe: ns per 64-bit word of Bitset::IntersectionCountCapped
/// (uncapped, so every word is streamed) over all pairs of item tidsets of
/// \p db; median of five timed sweeps of at least 20 ms each.
double KernelNsPerWord(hgm::TransactionDatabase* db);

/// Level-counting replay of \p family (the empty set excluded) through
/// TransactionDatabase::CountSupportsVertical with one PrefixCoverCache,
/// one call per set size in increasing order, pruning covers the next
/// level cannot reach.
struct CountingReplay {
  double ms = 0;
  size_t sets = 0;
  /// supports[i] is the support of family[i] (0 for the empty set).
  std::vector<size_t> supports;
};
CountingReplay ReplayCounting(hgm::TransactionDatabase* db,
                              const std::vector<hgm::Bitset>& family,
                              hgm::ThreadPool* pool);

/// ReplayCounting of a levelwise answer's Th ∪ Bd- (\p frequent in
/// AprioriResult order, the empty set first).  \p exact receives whether
/// the replay agrees with the answer: equal supports on Th, supports
/// below \p min_support on Bd-.
CountingReplay ReplayTheory(hgm::TransactionDatabase* db,
                            const std::vector<hgm::FrequentItemset>& frequent,
                            const std::vector<hgm::Bitset>& negative_border,
                            size_t min_support, hgm::ThreadPool* pool,
                            bool* exact);

/// The registry's pool.busy_us counter (0 while metrics are off).
uint64_t PoolBusyUs();

// Workload entry points (one per file).
void RunQuestBatch(const RunArgs& args, SpanLog* spans, RunResult* out);
void RunLongBorders(const RunArgs& args, SpanLog* spans, RunResult* out);
void RunStreamWindow(const RunArgs& args, SpanLog* spans, RunResult* out);
void RunServeMixed(const RunArgs& args, SpanLog* spans, RunResult* out);

}  // namespace perfbench
