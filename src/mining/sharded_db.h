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
/// shards later without touching the mining code above.  The two-phase
/// partition miner (mining/partition.h) counts on the shards directly,
/// through shard(), LocalThresholds and EnsureVerticalIndexes.

#include <cstdint>
#include <vector>

#include "common/bitset.h"
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
/// construction.  Mutation (Split, EnsureVerticalIndexes) is
/// single-threaded setup; concurrent readers use the shards' const
/// *Prebuilt accessors after it.  Concurrent mutation is a caller bug,
/// not a supported mode.
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

  /// Mutable shard access exists for single-threaded setup only.
  /// Appending rows through it desyncs the shard from the row-range
  /// manifest and num_transactions(); EnsureVerticalIndexes and
  /// LocalThresholds (so every partition run) check the shards against
  /// the generations captured at Split and abort on drift.
  TransactionDatabase& shard(size_t k) { return shards_[k]; }
  const TransactionDatabase& shard(size_t k) const { return shards_[k]; }
  const std::vector<ShardManifestEntry>& manifest() const {
    return manifest_;
  }

  /// Builds every shard's vertical index (idempotent); required before
  /// concurrent reads of the shards' covers.
  void EnsureVerticalIndexes();

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

}  // namespace hgm
