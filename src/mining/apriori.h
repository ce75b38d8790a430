#pragma once

/// \file apriori.h
/// \brief Apriori: the levelwise algorithm specialized to frequent sets.
///
/// This is the practical miner of [1, 2]: candidate generation via
/// common/apriori_gen.h's prefix join + subset prune (which never touches
/// the data; the paper notes it takes "a negligible amount of time"), and
/// support counting via tidset-bitmap intersection, where each candidate's
/// cover is the AND of its two join parents' covers (Eclat-style; memory
/// ~ |level| * |rows|/8).  Tidsets are the only counting backend: the
/// candidate hash tree of [2] and a horizontal scan lost to them on every
/// measured shape (EXPERIMENTS.md A2).  The level loop, Bd+ included, is
/// common/level_loop.h, shared with the generic oracle-counted form in
/// core/levelwise.h; this file supplies the cover kernel, which also
/// reports exact supports for rule generation.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitset.h"
#include "common/run_budget.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "mining/transaction_db.h"

namespace hgm {

/// A frequent itemset with its absolute support.
struct FrequentItemset {
  Bitset items;
  size_t support = 0;
};

/// Sorts into the miners' output order: by size, then by set value.
void SortFrequent(std::vector<FrequentItemset>* frequent);

/// Output of an Apriori run.
struct AprioriResult {
  /// Every frequent itemset (including ∅ with support = |r|), canonically
  /// ordered by (size, value).  Empty if options.record_all is false.
  std::vector<FrequentItemset> frequent;
  /// The maximal frequent itemsets.
  std::vector<Bitset> maximal;
  /// Bd-: minimal infrequent candidate sets.
  std::vector<Bitset> negative_border;
  /// Support computations performed (= candidates evaluated; the paper's
  /// query measure, Theorem 10: |Th| + |Bd-|).  Atomic so tallies bumped
  /// from parallel counting regions stay race-free and exact.
  AtomicCounter support_counts;
  /// Candidates evaluated / found frequent, per level (index = set size).
  std::vector<size_t> candidates_per_level;
  std::vector<size_t> frequent_per_level;

  /// kCompleted for a full run; otherwise the budget tripped at a level
  /// boundary and the result is the certified completed-level prefix
  /// (frequent sets with exact supports, antichain borders), resumable
  /// from `checkpoint`.
  StopReason stop_reason = StopReason::kCompleted;
  /// Resume state; engaged iff stop_reason != kCompleted.
  std::optional<Checkpoint> checkpoint;
};

/// Options for MineFrequentSets.
struct AprioriOptions {
  /// Keep the full frequent-set list with supports (needed for rules).
  bool record_all = true;
  /// Track the maximal frequent sets (the level loop's subset marking).
  /// A caller that only consumes `frequent` can turn this off and get an
  /// empty `maximal`; perfbench's level replay is the one that does.
  bool compute_maximal = true;
  /// Stop after itemsets of this size.
  size_t max_level = Bitset::npos;
  /// Worker pool for the per-level counting batch; nullptr = global pool.
  /// Results are bit-for-bit identical at every thread count.
  ThreadPool* pool = nullptr;
  /// Resource envelope, enforced at level boundaries (a level whose batch
  /// would cross a cap is never counted).  Support computations are the
  /// query measure.  Default: unlimited.
  RunBudget budget;
};

/// Mines all itemsets with support >= \p min_support.
AprioriResult MineFrequentSets(TransactionDatabase* db, size_t min_support,
                               const AprioriOptions& options = {});

/// Continues an interrupted run from \p checkpoint (kind "apriori",
/// written by a budget-tripped MineFrequentSets) against the same
/// database.  min_support and record_all are taken from the checkpoint;
/// frontier covers are rebuilt from the database.  The
/// final output is bit-identical to a never-interrupted run's.
Result<AprioriResult> ResumeFrequentSets(TransactionDatabase* db,
                                         const Checkpoint& checkpoint,
                                         const AprioriOptions& options = {});

/// The certified-partial view of \p result: `theory` carries the frequent
/// itemsets (supports dropped), borders copied as-is.
PartialTheory AsPartialTheory(const AprioriResult& result);

/// Exhaustive reference miner (2^n subsets); for tests, n <= ~20.
AprioriResult MineFrequentSetsBrute(TransactionDatabase* db,
                                    size_t min_support);

}  // namespace hgm
