#pragma once

/// \file transaction_db.h
/// \brief 0/1 relations (transaction databases) for frequent-set mining.
///
/// The paper's running example: a 0/1 relation r over attributes R; a set
/// X ⊆ R is sigma-frequent if at least a sigma-fraction of the rows have 1
/// in every attribute of X.  The database stores rows horizontally (one
/// Bitset of items per row) and can build a vertical index (one Bitset of
/// rows per item) for fast bitmap-intersection support counting.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <unordered_map>

#include "common/bitset.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace hgm {

class PrefixCoverCache;

/// An in-memory 0/1 relation over a fixed item universe.
class TransactionDatabase {
 public:
  /// Creates an empty database over \p num_items attributes.
  explicit TransactionDatabase(size_t num_items = 0)
      : num_items_(num_items) {}

  /// Creates a database from explicit item-index lists.
  static TransactionDatabase FromRows(
      size_t num_items, const std::vector<std::vector<size_t>>& rows);

  size_t num_items() const { return num_items_; }
  size_t num_transactions() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  const std::vector<Bitset>& rows() const { return rows_; }
  const Bitset& row(size_t i) const { return rows_[i]; }

  /// Appends a transaction; invalidates the vertical index and bumps the
  /// mutation generation.
  void AddTransaction(Bitset row);

  /// Row-mutation counter: incremented by every AddTransaction.  Derived
  /// read structures (PrefixCoverCache, shard manifests) capture it when
  /// built and check it on every read, so using them against a database
  /// that mutated underneath is an immediate HGMINE_CHECK failure rather
  /// than silently stale counts.
  uint64_t generation() const { return generation_; }

  /// Appends a transaction given as item indices.
  void AddTransactionIndices(std::initializer_list<size_t> items);

  /// Number of rows containing every item of \p itemset (horizontal scan).
  size_t Support(const Bitset& itemset) const;

  /// Support as a fraction of rows; 0 for an empty database.
  double Frequency(const Bitset& itemset) const;

  /// The set of row ids containing every item of \p itemset, as a Bitset
  /// over rows.  Uses the vertical index (built on first use).
  Bitset Cover(const Bitset& itemset);

  /// Support via the vertical index (bitmap AND); equals Support().
  size_t SupportVertical(const Bitset& itemset);

  /// True iff Support(itemset) >= threshold.  Streams the word-wise AND
  /// of the item tidsets with early exit once the running count reaches
  /// the threshold, so no cover bitmap is ever materialized and frequent
  /// candidates stop as soon as `threshold` supporting rows are found.
  /// Builds the vertical index on first use.
  bool SupportAtLeast(const Bitset& itemset, size_t threshold);

  /// Const variant of SupportAtLeast for concurrent use from parallel
  /// batch evaluation; EnsureVerticalIndex() must have been called.
  bool SupportAtLeastPrebuilt(const Bitset& itemset,
                              size_t threshold) const;

  /// Capped support count via the prebuilt vertical index: streams the
  /// word-wise AND of the item tidsets and stops once the running count
  /// reaches \p cap.  Returns the exact support when it is below the cap
  /// and some value >= cap otherwise (callers accumulating partial counts
  /// across shards only need "at least cap").  Const and thread-safe for
  /// concurrent use; EnsureVerticalIndex() must have been called.
  size_t SupportVerticalPrebuilt(const Bitset& itemset,
                                 size_t cap = Bitset::npos) const;

  /// Exact supports via the vertical index and a prefix-tidset cache: a
  /// size-k itemset intersects its memoized (k-1)-prefix cover with ONE
  /// item tidset instead of re-chaining all k tidsets.  Builds the needed
  /// prefix covers serially first (cheap, one AND each), then counts in
  /// parallel against the read-only cache — identical results at any
  /// thread count.  \p cache carries covers across calls (prune it as the
  /// level advances); \p pool nullptr means the global pool.
  std::vector<size_t> CountSupportsVertical(std::span<const Bitset> itemsets,
                                            PrefixCoverCache* cache,
                                            ThreadPool* pool = nullptr);

  /// Builds the vertical index now (idempotent).  Required before any
  /// concurrent use of the const tidset accessors, which cannot build it
  /// thread-safely on demand.
  void EnsureVerticalIndex();

  /// Per-item supports (column sums).
  std::vector<size_t> ItemSupports() const;

  /// The vertical index: tidset bitmap of item \p item.  Built lazily.
  const Bitset& ItemCover(size_t item);

  /// Const tidset accessor for concurrent readers; EnsureVerticalIndex()
  /// must have been called.
  const Bitset& ItemCoverPrebuilt(size_t item) const;

  /// Average transaction length.
  double AvgTransactionSize() const;

  /// Parses basket-format text: one transaction per line, whitespace- or
  /// comma-separated non-negative item ids; lines starting with '#' are
  /// skipped and a blank line is an empty transaction.  \p num_items 0
  /// means "infer as max id + 1".  Hardened against malformed input —
  /// overlong lines, ids beyond kMaxParseId or the declared universe,
  /// signs, overflow, and non-numeric tokens all yield a Status naming
  /// \p origin and the offending line.
  static Result<TransactionDatabase> ParseBasketText(
      std::string_view text, size_t num_items = 0,
      const std::string& origin = "<basket>");

  /// Loads a basket-format file (see ParseBasketText).
  static Result<TransactionDatabase> LoadBasketFile(const std::string& path,
                                                    size_t num_items = 0);

  /// Writes basket format (one line of space-separated item ids per row).
  Status SaveBasketFile(const std::string& path) const;

 private:
  void BuildVerticalIndex();

  size_t num_items_;
  std::vector<Bitset> rows_;
  std::vector<Bitset> vertical_;  // item -> rows containing it
  bool vertical_valid_ = false;
  uint64_t generation_ = 0;  // bumped by every row mutation
};

/// Level-to-level prefix-tidset memoization for vertical support counting
/// (the Eclat idea applied to the levelwise walk): the cover of a size-k
/// set X is cover(X \ {max X}) ∩ tidset(max X), so counting a whole
/// candidate level against cached (k-1)-prefix covers costs one AND per
/// distinct prefix plus one capped AND-popcount per candidate, instead of
/// re-chaining all k item tidsets per candidate.
///
/// Usage contract: EnsureCover builds covers and must run single-threaded
/// (it mutates the map); CountPrefixCached only reads and is safe from
/// concurrent workers once every needed prefix was built.  Covers are keyed
/// by the exact itemset, so pruning with PruneBelow as the level advances
/// keeps the cache at ~two generations of prefixes.
///
/// Staleness contract: the cache pins the database's mutation generation
/// at construction.  Memoized covers are row bitmaps, so a row appended
/// after any cover was built would silently falsify every count; instead,
/// every cache entry point checks the generation and aborts on drift —
/// rebuild the cache after mutating the database.
///
/// This is the kernel seam a future pattern-growth (FP-growth style)
/// backend plugs into: anything that can produce a row cover for a prefix
/// can serve CountPrefixCached's lookups.
class PrefixCoverCache {
 public:
  /// \param db  the indexed relation (not owned; must outlive the cache).
  /// EnsureVerticalIndex() must have been called on \p db before use.
  explicit PrefixCoverCache(const TransactionDatabase* db)
      : db_(db), generation_(db->generation()) {}

  /// Builds (memoizing every step of the chain) the row cover of
  /// \p itemset and returns a reference valid until the next mutating
  /// call.  Single-threaded: mutates the cache.
  const Bitset& EnsureCover(const Bitset& itemset);

  /// Support of \p itemset capped at \p cap (exact when below the cap):
  /// one capped AND-popcount of the memoized (k-1)-prefix cover with the
  /// last item's tidset.  Falls back to the uncached tidset chain when the
  /// prefix was never built.  Read-only — safe for concurrent callers.
  size_t CountPrefixCached(const Bitset& itemset,
                           size_t cap = Bitset::npos) const;

  /// Drops every memoized cover of size < \p min_size, bounding the cache
  /// to the generations the current level can still reach.
  void PruneBelow(size_t min_size);

  /// Number of memoized covers (for tests and telemetry).
  size_t entries() const { return covers_.size(); }

 private:
  /// Aborts when \p db_ mutated since this cache was built.
  void CheckFresh() const;

  const TransactionDatabase* db_;
  uint64_t generation_;  // db_->generation() at construction
  std::unordered_map<Bitset, Bitset, BitsetHash> covers_;
};

}  // namespace hgm
