#pragma once

/// \file sharded_db.h
/// \brief K-way sharded transaction storage for partitioned mining.
///
/// The paper's analysis (Theorem 10, Corollary 13) counts Is-interesting
/// queries and treats the database pass behind each query as cheap; at the
/// ROADMAP's scale the pass itself dominates and the rows no longer fit in
/// one node's RAM.  ShardedTransactionDatabase splits the rows into K
/// contiguous shards — each a self-contained TransactionDatabase with its
/// own vertical tidset index — described by a row-range / byte-offset
/// manifest, so an mmap or streaming loader can replace the in-memory
/// shards later without touching the mining code above.
///
/// ShardedFrequencyOracle exposes the sharded store through the standard
/// InterestingnessOracle interface, so the levelwise algorithm,
/// Dualize-and-Advance, and every other oracle-driven engine run on it
/// unchanged.  The two-phase partition miner (mining/partition.h) is the
/// backend built on top that stops assuming a full-data pass is free.

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitset.h"
#include "common/thread_pool.h"
#include "core/oracle.h"
#include "mining/transaction_db.h"

namespace hgm {

/// Where one shard's rows live: a global row range now, byte offsets for a
/// future file-backed loader (both zero when the shard was built from an
/// in-memory database).
struct ShardManifestEntry {
  size_t row_begin = 0;    ///< global index of the shard's first row
  size_t row_end = 0;      ///< one past the shard's last row
  uint64_t byte_begin = 0; ///< file offset of the first row, 0 if in-memory
  uint64_t byte_end = 0;   ///< one past the last row's bytes, 0 if in-memory
};

/// A 0/1 relation stored as K contiguous row shards.
///
/// Threading contract (checked by the annotation pass, which is why no
/// member here carries HGM_GUARDED_BY): the store is mutex-free by
/// construction.  Mutation (Split, EnsureVerticalIndexes, the non-const
/// SupportAtLeast's lazy index build) is single-threaded setup; the
/// concurrent paths are the *Prebuilt/CountSupports const readers, whose
/// parallel writes land in distinct index-addressed slots joined by
/// ParallelFor (the join's mutex publishes them).  Concurrent mutation
/// is a caller bug, not a supported mode.
class ShardedTransactionDatabase {
 public:
  /// Splits \p db into \p num_shards contiguous row ranges.  Boundaries
  /// use the ThreadPool chunk formula (k * rows / K), so the split is a
  /// pure function of (rows, K).  K is clamped to >= 1; shards may be
  /// empty when K > rows.
  static ShardedTransactionDatabase Split(const TransactionDatabase& db,
                                          size_t num_shards);

  size_t num_items() const { return num_items_; }
  size_t num_shards() const { return shards_.size(); }
  size_t num_transactions() const { return num_rows_; }

  /// Mutable shard access exists for single-threaded setup only (lazy
  /// vertical-index builds, PrefixCoverCache construction in the partition
  /// miner).  Appending rows through it desyncs the shard from the
  /// row-range manifest and num_transactions(); every counting entry
  /// point checks the shards against the generations captured at Split
  /// and aborts on drift.
  TransactionDatabase& shard(size_t k) { return shards_[k]; }
  const TransactionDatabase& shard(size_t k) const { return shards_[k]; }
  const std::vector<ShardManifestEntry>& manifest() const {
    return manifest_;
  }

  /// Builds every shard's vertical index (idempotent); required before
  /// the concurrent counting paths below.
  void EnsureVerticalIndexes();

  /// Exact support of \p itemset: per-shard supports summed in shard
  /// order (horizontal scan; needs no index).
  size_t Support(const Bitset& itemset) const;

  /// True iff Support(itemset) >= threshold.  Accumulates capped
  /// per-shard tidset counts and stops at the first shard where the
  /// running total reaches the threshold.
  bool SupportAtLeast(const Bitset& itemset, size_t threshold);

  /// Const variant for concurrent use; EnsureVerticalIndexes() must have
  /// been called.
  bool SupportAtLeastPrebuilt(const Bitset& itemset,
                              size_t threshold) const;

  /// Parallel threshold test: instead of walking shards serially under a
  /// shrinking remaining-threshold cap, every shard counts concurrently
  /// under its own proportional cap ceil(threshold * shard_rows / rows)
  /// (the caps sum to >= threshold).  Capped counts are lower bounds, so
  /// sum >= threshold proves yes and no-shard-capped proves no; only the
  /// rare inconclusive middle re-walks the capped shards serially with
  /// the exact remaining threshold.  Same answers as the serial variant.
  bool SupportAtLeastPrebuilt(const Bitset& itemset, size_t threshold,
                              ThreadPool* pool) const;

  /// Exact supports for every itemset of \p batch — the batched "one full
  /// pass" primitive behind partition phase 2.  Parallel across candidate
  /// × shard pairs (each pair counts one exact per-shard support into its
  /// own slot; per-candidate totals reduce in shard order), so results
  /// are bit-for-bit identical at any thread count and small batches
  /// still spread across K shards' worth of tasks.  \p pool nullptr means
  /// the global pool.
  std::vector<size_t> CountSupports(std::span<const Bitset> batch,
                                    ThreadPool* pool = nullptr);

  /// Per-shard thresholds for phase-1 local mining at global threshold
  /// \p min_support: ceil(min_support * shard_rows / rows), clamped to
  /// >= 1.  Since sum_k (s_k - 1) < min_support, a set infrequent in
  /// every shard at its local threshold is globally infrequent — i.e.
  /// every globally frequent set is locally frequent somewhere (the
  /// partition lemma), so phase 1 has no false negatives.
  std::vector<size_t> LocalThresholds(size_t min_support) const;

 private:
  /// Aborts when any shard's rows mutated since Split: the manifest's row
  /// ranges and the cached num_rows_ would be silently wrong.
  void CheckShardsFresh() const;

  size_t num_items_ = 0;
  size_t num_rows_ = 0;
  std::vector<TransactionDatabase> shards_;
  std::vector<ShardManifestEntry> manifest_;
  std::vector<uint64_t> base_generations_;  // shard generations at Split
};

/// Is-interesting oracle "is X sigma-frequent?" answered against a
/// sharded store: drop-in for FrequencyOracle wherever an
/// InterestingnessOracle is expected, so Levelwise / Dualize-and-Advance
/// run unchanged on the sharded backend.
class ShardedFrequencyOracle : public InterestingnessOracle {
 public:
  /// \param db  the sharded relation (not owned; must outlive the oracle).
  /// Builds every shard's vertical index up front so batch evaluation can
  /// read tidsets concurrently.
  ShardedFrequencyOracle(ShardedTransactionDatabase* db, size_t min_support,
                         ThreadPool* pool = nullptr)
      : db_(db), min_support_(min_support), pool_(PoolOrGlobal(pool)) {
    db_->EnsureVerticalIndexes();
  }

  bool IsInteresting(const Bitset& x) override;

  /// Parallel across candidates; each candidate's capped per-shard counts
  /// accumulate in shard order into its own slot.
  std::vector<uint8_t> EvaluateBatch(std::span<const Bitset> batch) override;

  size_t num_items() const override { return db_->num_items(); }
  size_t min_support() const { return min_support_; }

 private:
  ShardedTransactionDatabase* db_;
  size_t min_support_;
  ThreadPool* pool_;
};

}  // namespace hgm
