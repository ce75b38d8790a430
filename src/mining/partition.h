#pragma once

/// \file partition.h
/// \brief Two-phase partition mining over a sharded database.
///
/// The deterministic cousin of the Toivonen-style sampling miner
/// (mining/sampling.h), after Savasere-Omiecinski-Navathe: phase 1 mines
/// each shard locally at a scaled threshold (the partition lemma
/// guarantees no globally frequent set is missed), phase 2 unions the
/// local frequent sets into a candidate family and confirms the global
/// supports with batched full passes.  Phase 2 proceeds levelwise through
/// the candidate union — a size-k candidate is counted only when all its
/// (k-1)-subsets were confirmed globally frequent — so every evaluated
/// set lies in Th ∪ Bd-(Th) and the paper's Theorem 10 query bound holds
/// for the confirmation pass (a single undiscriminating batch over the
/// whole union would not guarantee that).

#include <functional>
#include <optional>
#include <vector>

#include "common/bitset.h"
#include "common/run_budget.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "mining/apriori.h"
#include "mining/sharded_db.h"

namespace hgm {

/// Options for MinePartitioned.
struct PartitionOptions {
  /// Worker pool; phase 1 counts each level's candidates across all
  /// shards on it, phase 2 uses it for the batched confirmation pass.
  /// nullptr = global pool.
  ThreadPool* pool = nullptr;
  /// Compute Bd-(Th) through Theorem 7 (Berge transversals of the
  /// complemented positive border) — the independent cross-check path,
  /// exposed on the CLI as --exact-border.  By default the border is read
  /// off the confirmed lattice (apriori-gen's rejected candidates), which
  /// keeps the heavy transversal enumeration off the mining critical
  /// path.  The family produced is identical; only the cost differs.
  bool border_via_transversals = false;
  /// Resource envelope, checked at the phase boundary and before each
  /// phase-2 confirmation level; phase-2 support counts are the query
  /// measure.  Cancellation also interrupts phase 1 at ThreadPool chunk
  /// boundaries (a cancelled phase 1 is discarded whole — it is stateless
  /// per shard, so the resumed run replays it bit-identically).
  RunBudget budget;
  /// Phase-1 shard failover: a shard task that throws is re-mined in a
  /// later round with this policy's seeded backoff; after max_attempts
  /// the shard is dropped and the run returns Status Unavailable with the
  /// surviving shards' certified union.
  RetryPolicy retry;
  /// Backoff sleeper (microseconds); tests inject a recorder.  Unset
  /// sleeps for real (a no-op at the policy default base_backoff_us = 0).
  std::function<void(uint64_t)> sleeper;
  /// Test seam invoked as (shard, attempt) inside the phase-1 walk that
  /// mines the shard, at its first level; throwing simulates that shard's
  /// mining failing mid-walk.  It fires again for the same attempt when a
  /// group walk that failed is re-walked shard by shard.
  std::function<void(size_t, size_t)> shard_fault_hook;
};

/// Output of a partitioned mining run.
struct PartitionResult {
  /// Every globally frequent itemset with its exact global support,
  /// canonically ordered by (size, value) — bit-identical to
  /// MineFrequentSets on the unsharded database.
  std::vector<FrequentItemset> frequent;
  /// The maximal frequent itemsets.
  std::vector<Bitset> maximal;
  /// Bd-(Th), matching MineFrequentSets field for field.
  std::vector<Bitset> negative_border;

  size_t num_shards = 0;
  /// Phase-1 scaled threshold per shard.
  std::vector<size_t> local_thresholds;
  /// Locally frequent sets found per shard (before the union).
  std::vector<size_t> local_frequent_per_shard;
  /// Distinct sets in the phase-2 candidate union.
  size_t candidate_union_size = 0;
  /// Sets whose global support required a phase-2 database pass (the
  /// full-pass query measure; <= |Th| + |Bd-(Th)| by the levelwise
  /// pruning).  Candidates locally frequent in *every* shard are excluded:
  /// their exact global support is the sum of the exact per-shard counts
  /// phase 1 already produced (the rows partition), so no pass is spent.
  size_t phase2_evaluations = 0;
  /// Candidates confirmed by exact-count reuse (locally frequent in every
  /// shard, global support = sum of phase-1 local supports) — zero
  /// database passes.  phase2_evaluations + phase2_reused is the number
  /// of gated candidates phase 2 decided.
  size_t phase2_reused = 0;
  /// Levels walked by the phase-2 confirmation.
  size_t phase2_levels = 0;
  /// Phase-2 candidates counted but globally infrequent (locally
  /// frequent somewhere, yet below the global threshold).
  size_t phase2_rejected = 0;

  /// OK for a clean run.  Unavailable when one or more shards failed all
  /// retry attempts: the result is then the certified union over the
  /// surviving shards — every reported support is still exact (phase 2
  /// counts against the full store), but sets frequent only in a failed
  /// shard's candidates may be missing.
  Status status = Status::OK();
  /// Shards dropped after exhausting retry attempts (ascending).
  std::vector<size_t> failed_shards;
  /// Phase-1 shard re-mining attempts beyond each task's first.
  uint64_t shard_retries = 0;

  /// kCompleted for a full run.  Otherwise the budget tripped at a phase
  /// or level boundary: `frequent` holds the confirmed levels (exact
  /// supports, downward closed), `negative_border` only the candidates
  /// certified infrequent so far, and `checkpoint` resumes the run.
  StopReason stop_reason = StopReason::kCompleted;
  /// Resume state; engaged iff stop_reason != kCompleted.
  std::optional<Checkpoint> checkpoint;
};

/// Mines all itemsets with global support >= \p min_support from the
/// sharded database.  min_support is clamped to >= 1 (at 0 every subset
/// of the universe is "frequent"; callers wanting the full lattice should
/// enumerate it directly).  Records `partition.*` metrics and per-shard
/// trace spans.
PartitionResult MinePartitioned(ShardedTransactionDatabase* db,
                                size_t min_support,
                                const PartitionOptions& options = {});

/// Continues an interrupted run from \p checkpoint (kind "partition")
/// against the same sharded store.  min_support is taken from the
/// checkpoint.  A checkpoint written before phase 1 completed replays
/// phase 1 from scratch (it is stateless per shard); either way the final
/// output is bit-identical to a never-interrupted run's.
Result<PartitionResult> ResumePartition(ShardedTransactionDatabase* db,
                                        const Checkpoint& checkpoint,
                                        const PartitionOptions& options = {});

/// The certified-partial view of \p result: `theory` carries the
/// confirmed frequent sets, `negative_border` only certified-infrequent
/// candidates (the complete Bd- of a finished run is computed via
/// Theorem 7 instead).
PartialTheory AsPartialTheory(const PartitionResult& result);

/// Repackages a PartitionResult as an AprioriResult (frequent / maximal /
/// negative border carried over, support_counts = phase-2 evaluations) so
/// downstream consumers like GenerateRules run unchanged.
AprioriResult AsAprioriResult(const PartitionResult& result);

}  // namespace hgm
