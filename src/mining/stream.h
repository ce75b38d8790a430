#pragma once

/// \file stream.h
/// \brief Incremental border maintenance over a live transaction stream.
///
/// The batch miners answer "what is frequent in r?" by walking the whole
/// lattice; a live feed asks the same question again every few thousand
/// rows, and almost nothing changes between asks.  The border formalism
/// says exactly which state must be repaired: Th / Bd+ / Bd- and the
/// supports of Th ∪ Bd- (Theorem 10's query population).  StreamMiner
/// keeps that state resident and, at each window boundary, repairs it
/// against the row delta instead of re-mining:
///
///   * the window is a ring of row buckets (slide_rows rows each), every
///     bucket carrying its own vertical index, so arrival/expiry never
///     rebuilds an index — a boundary adds one bucket and drops one;
///   * the supports of every tracked set (Th ∪ Bd- of the previous
///     boundary) are updated by counting the set only in the arrived and
///     expired buckets (the vertical index over the delta) — an exact
///     incremental maintenance pass, never a full-window scan;
///   * the borders are then repaired by a walk of the shared level loop
///     (common/level_loop.h), whose kernel answers each candidate from
///     its maintained support: apriori-gen drives promotion upward (a set
///     can newly enter Th only if some subset left Bd-, and candidate
///     generation reaches it), demotion falls out of the same walk (a
///     tracked set whose updated support dropped below minsup lands in
///     Bd- or disappears), and Bd+ comes from the loop's subset marking.
///     Only candidates NOT already tracked are freshly counted against
///     the full window.  The optional cross-check re-derives Bd- from Bd+
///     via minimal transversals (Theorem 7, the Berge path) and fails
///     loudly on mismatch.
///
/// Cost contract: a repair touches exactly the new boundary's Th ∪ Bd-
/// (plus ∅); `evaluations + reused` per boundary equals the batch miner's
/// Theorem-10 query count |Th| + |Bd-| + 1, with `evaluations` (fresh
/// full-window counts, charged per the InterestingnessOracle batch
/// contract: a batch of m costs m queries) typically a small fraction on
/// steady-state windows.  RunBudget applies to the fresh counts at the
/// same level-edge boundaries as the batch miners; a trip returns a
/// certified partial result with a kind="stream" checkpoint, and
/// ResumeAdvance continues bit-identically.
///
/// Hard correctness contract (asserted by tests/stream_test.cc): at every
/// window boundary the streamed frequent list (with supports), maximal
/// family and negative border are bit-identical to MineFrequentSets run
/// from scratch on a TransactionDatabase holding the same window rows.
///
/// Expired buckets are not discarded outright: their per-item column sums
/// are folded into a tilted-time history (FP-Stream's trick) — recent
/// history at bucket granularity, older history logarithmically coarser —
/// so the CLI can report long-horizon drift without the window itself
/// ever holding approximate state.

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/bitset.h"
#include "common/run_budget.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "mining/apriori.h"
#include "mining/transaction_db.h"

namespace hgm {

/// Options for StreamMiner.
struct StreamOptions {
  /// Rows per slide (one bucket); 0 means a tumbling window
  /// (slide == window_rows).  Must divide window_rows.
  size_t slide_rows = 0;
  /// Resource envelope for each boundary's repair; fresh full-window
  /// support counts are the query measure.  Default: unlimited.
  RunBudget budget;
  /// Worker pool for fresh counting batches; nullptr = global pool.
  /// Results are bit-for-bit identical at every thread count.
  ThreadPool* pool = nullptr;
  /// After each repair, re-derive Bd- from Th via minimal transversals
  /// (Theorem 7) and HGMINE_CHECK the families match.  O(dualization)
  /// per boundary — for tests and audits, not steady-state production.
  bool cross_check_borders = false;
  /// Tilted-time history: summaries kept per granularity level before
  /// the two oldest merge into the next (coarser) level.  >= 2.
  size_t tilt_capacity = 4;
};

/// One granularity cell of the tilted-time history: the column sums of
/// `buckets` consecutive expired buckets (oldest history is coarsest).
struct TiltedSummary {
  size_t buckets = 1;  ///< how many slide-buckets this cell aggregates
  size_t rows = 0;
  std::vector<size_t> item_supports;  ///< per-item column sums
};

/// The certified result of one window-boundary repair.
struct StreamWindowResult {
  /// 0-based index of the boundary this result belongs to.
  size_t window_index = 0;
  size_t rows_in_window = 0;
  /// Th with exact supports (∅ included), ordered like AprioriResult.
  std::vector<FrequentItemset> frequent;
  /// Bd+: maximal frequent sets, canonically ordered.
  std::vector<Bitset> maximal;
  /// Bd-: minimal infrequent candidate sets, canonically ordered.
  std::vector<Bitset> negative_border;
  /// Fresh full-window support counts this boundary (the budgeted cost).
  uint64_t evaluations = 0;
  /// Candidates answered from the incrementally maintained supports.
  uint64_t reused = 0;
  /// Sets that entered / left Th relative to the previous boundary.
  size_t promoted = 0;
  size_t demoted = 0;
  /// kCompleted for a full repair; otherwise the budget tripped at a
  /// level boundary: `frequent`/`maximal`/`negative_border` are the
  /// certified completed-level prefix and `checkpoint` resumes the
  /// repair (ResumeAdvance) bit-identically.
  StopReason stop_reason = StopReason::kCompleted;
  std::optional<Checkpoint> checkpoint;
};

/// Incremental frequent-set engine over a sliding window of rows.
///
/// Usage: Push() each arriving row; when Push returns true a boundary is
/// due — call AdvanceWindow() to rotate the ring and repair the borders.
/// A budget trip leaves the engine in `repair_pending()` state; feed the
/// returned checkpoint to ResumeAdvance() to finish the boundary before
/// pushing further rows.
///
/// Threading: the engine is confined to one driver thread (like
/// BudgetTracker); internal counting batches fan out over the option
/// pool.
class StreamMiner {
 public:
  /// \param window_rows  rows per window (> 0, multiple of slide_rows).
  StreamMiner(size_t num_items, size_t min_support, size_t window_rows,
              StreamOptions options = {});

  size_t num_items() const { return num_items_; }
  size_t min_support() const { return min_support_; }
  size_t window_rows() const { return window_rows_; }
  size_t slide_rows() const { return slide_rows_; }
  /// Completed boundaries so far (== the next result's window_index).
  size_t windows_completed() const { return window_index_; }
  /// Rows currently inside the window (ring buckets only).
  size_t rows_in_window() const { return rows_in_window_; }
  /// True after a budget trip until ResumeAdvance completes the repair.
  bool repair_pending() const { return repair_pending_; }
  /// True when a full slide has accumulated and AdvanceWindow is due.
  bool boundary_due() const { return boundary_due_; }

  /// Replaces the budget for subsequent boundaries (and for resuming a
  /// tripped one) — the stream outlives any single resource envelope.
  void set_budget(const RunBudget& budget) { options_.budget = budget; }

  /// Replaces the counting pool for subsequent boundaries.  Long-lived
  /// engines (hgmine_serve sessions) outlive any single worker's pool,
  /// and ThreadPool admits only one external batch at a time — so each
  /// request installs its worker-owned pool before driving the engine.
  /// Same driver-thread confinement as every other engine call.
  void set_pool(ThreadPool* pool) { options_.pool = pool; }

  /// Pushes one arriving row (width num_items).  Returns true when the
  /// slide filled and AdvanceWindow() must run before further pushes.
  /// It is a checked error to push while a boundary is due or a repair
  /// is pending.
  bool Push(const Bitset& row);

  /// Rotates the ring (seal arrivals, expire the oldest bucket, coarsen
  /// it into the tilted-time history) and repairs Th / Bd+ / Bd-.
  /// Requires boundary_due().
  StreamWindowResult AdvanceWindow();

  /// Continues a budget-tripped repair from \p checkpoint (kind
  /// "stream", written by this engine at the same boundary).  The final
  /// result is bit-identical to an uninterrupted AdvanceWindow.
  Result<StreamWindowResult> ResumeAdvance(const Checkpoint& checkpoint);

  /// The current window materialized as one TransactionDatabase (rows in
  /// arrival order) — the batch cross-check fixture for tests and bench.
  TransactionDatabase WindowSnapshot() const;

  /// Tilted-time history, oldest (coarsest) first.
  std::vector<TiltedSummary> TiltedHistory() const;

 private:
  /// The levelwise repair walk shared by AdvanceWindow and ResumeAdvance:
  /// replays already-decided levels [1, start_level) from the tracked
  /// supports without charging queries, then continues fresh from
  /// start_level.  `evaluations`/`reused` carry the tallies charged so
  /// far (resume restores them from the checkpoint).
  StreamWindowResult RunRepair(size_t start_level, uint64_t evaluations,
                               uint64_t reused);
  /// Decides one level of the repair walk (common/level_loop.h kernel).
  struct RepairKernel;
  /// Folds an expired bucket's column sums into the tilted history.
  void CoarsenExpired(const TransactionDatabase& bucket);
  /// Seals the pending slide into a bucket, expires the oldest bucket
  /// once the ring is full, and delta-updates every tracked support.
  void RotateRing();
  /// Adds every tracked set's support in \p arrived and subtracts it in
  /// \p expired (when given); both must carry their vertical index.
  void UpdateTrackedSupports(const TransactionDatabase& arrived,
                             const TransactionDatabase* expired);
  StreamWindowResult FinishRepair(StreamWindowResult result);
  Checkpoint MakeCheckpoint(size_t next_level, uint64_t evaluations,
                            uint64_t reused) const;

  size_t num_items_;
  size_t min_support_;
  size_t window_rows_;
  size_t slide_rows_;
  size_t words_per_set_;
  StreamOptions options_;

  std::vector<Bitset> pending_;             // rows of the filling slide
  std::deque<TransactionDatabase> ring_;    // window buckets, oldest first
  size_t rows_in_window_ = 0;
  size_t window_index_ = 0;
  bool boundary_due_ = false;
  bool repair_pending_ = false;

  /// The tracked sets of one size, in the order apriori-gen emits them,
  /// so a repair level finds its candidates' supports by one merge pass.
  /// Sets are stored flat, words_per_set_ words each.
  struct TrackedLevel {
    std::vector<uint64_t> words;
    std::vector<size_t> supports;  ///< exact supports in the window
    /// Member of Th at the previous boundary (promote/demote accounting).
    std::vector<uint8_t> in_theory;
    /// Position one level down of each set minus its largest item (always
    /// in Th, so tracked); filled by a completed repair, empty otherwise.
    std::vector<uint32_t> prefix;
    size_t size() const { return supports.size(); }
  };
  /// Every tracked set across levels (index = set size).
  static size_t TrackedCount(const std::vector<TrackedLevel>& levels);
  /// The tracked population: Th ∪ Bd- of the previous boundary, or the
  /// tracked section of the checkpoint a resumed repair restored.  ∅ is
  /// implicit: its support is rows_in_window_.
  std::vector<TrackedLevel> tracked_;
  /// The levels the running repair has decided; they replace tracked_
  /// when it finishes, so sets it did not decide are dropped.
  std::vector<TrackedLevel> decided_;
  /// |Th| of the previous boundary (∅ included).
  size_t prev_theory_size_ = 0;

  /// Tilted-time history: level g holds summaries of 2^g buckets each,
  /// newest level first in storage (levels_[0] = bucket granularity).
  std::vector<std::deque<TiltedSummary>> tilt_levels_;
};

}  // namespace hgm
