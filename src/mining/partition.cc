#include "mining/partition.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/cancellation.h"
#include "common/check.h"
#include "common/thread_annotations.h"
#include "core/audit.h"
#include "core/theory.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/transversal_berge.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace hgm {

namespace {

/// Exact-count bookkeeping for one candidate-union member, accumulated as
/// shards finish: \c sum is the total of the exact local supports from
/// every shard whose local theory contained the set, \c mask the bitmask
/// of those shards (meaningful for < 64 shards; reuse is disabled above
/// that).  Both are order-independent (sums and ORs commute), so the
/// streamed merge is bit-identical at any thread count.
struct CandAgg {
  uint64_t sum = 0;
  uint64_t mask = 0;
};

/// Shard count up to which per-candidate shard presence fits the uint64
/// mask; beyond it phase 2 falls back to counting every candidate in
/// every shard (still exact, just without the reuse shortcut).
constexpr size_t kMaxReuseShards = 64;

/// The phase-1 streaming union: shard tasks merge their local theories in
/// as they finish, and the accumulated map is moved out exactly once
/// after the phase-1 join.  Wrapping map + mutex in one class makes the
/// phase discipline static — concurrent code can only reach the map
/// through the locked Merge(), and phase 2 only through Take(), so an
/// unlocked mid-phase read (the append-vs-read race this layer is meant
/// to rule out) no longer typechecks under -Wthread-safety.
class StreamingUnion {
 public:
  /// Streams one shard's local theory in.  Sums and presence masks are
  /// order-independent, so the merged result is bit-identical regardless
  /// of shard completion order.
  void Merge(size_t shard, const std::vector<FrequentItemset>& frequent)
      HGM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    for (const FrequentItemset& f : frequent) {
      CandAgg& a = agg_[f.items];
      a.sum += f.support;
      if (shard < kMaxReuseShards) a.mask |= uint64_t{1} << shard;
    }
  }

  /// Moves the accumulated union out.  Called once, after every shard
  /// task has joined; the lock is taken anyway so the hand-off is safe
  /// even if a caller ever misuses it.
  std::unordered_map<Bitset, CandAgg, BitsetHash> Take() HGM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return std::move(agg_);
  }

 private:
  Mutex mu_;
  std::unordered_map<Bitset, CandAgg, BitsetHash> agg_ HGM_GUARDED_BY(mu_);
};

/// Everything a partition run carries across the phase-1 / phase-2 split —
/// and everything a "partition" checkpoint must capture.
struct PartitionState {
  PartitionResult result;
  size_t min_support = 1;
  size_t n = 0;
  /// False until phase 1's union is materialized.  A checkpoint taken
  /// earlier stores no phase-1 output: phase 1 is a pure function of
  /// (shards, min_support), so resume replays it bit-identically.
  bool phase1_done = false;
  /// Next phase-2 level to confirm (index into by_size).
  size_t next_level = 0;
  /// Candidate union grouped by size, each level canonically sorted.
  std::vector<std::vector<Bitset>> by_size;
  /// Per-union-member exact-count aggregation (phase-1 local supports and
  /// shard presence), streamed in as each shard finishes.
  std::unordered_map<Bitset, CandAgg, BitsetHash> agg;
  /// Sets confirmed globally frequent so far (supports in result.frequent).
  std::unordered_set<Bitset, BitsetHash> confirmed;
  /// Counted candidates that fell below min_support, in discovery order.
  /// Every subset of each was confirmed frequent first, so these are
  /// *certified* members of Bd-(Th) — the partial negative border.
  std::vector<Bitset> rejected;
};

void SortFrequent(std::vector<FrequentItemset>* frequent) {
  std::sort(frequent->begin(), frequent->end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              size_t ca = a.items.Count(), cb = b.items.Count();
              if (ca != cb) return ca < cb;
              return a.items < b.items;
            });
}

void PublishPartitionGauges(const PartitionResult& result) {
  HGM_OBS_GAUGE_SET("partition.last_shards",
                    static_cast<int64_t>(result.num_shards));
  HGM_OBS_GAUGE_SET("partition.last_phase2_evaluations",
                    static_cast<int64_t>(result.phase2_evaluations));
  HGM_OBS_GAUGE_SET("partition.last_phase2_reused",
                    static_cast<int64_t>(result.phase2_reused));
  HGM_OBS_GAUGE_SET("partition.last_theory_size",
                    static_cast<int64_t>(result.frequent.size()));
  HGM_OBS_GAUGE_SET("partition.last_negative_border",
                    static_cast<int64_t>(result.negative_border.size()));
}

Checkpoint MakePartitionCheckpoint(const PartitionState& state) {
  Checkpoint cp;
  cp.kind = "partition";
  cp.width = state.n;
  const PartitionResult& result = state.result;
  cp.SetScalar("min_support", state.min_support);
  cp.SetScalar("phase1_done", state.phase1_done ? 1 : 0);
  cp.SetScalar("next_level", state.next_level);
  cp.SetScalar("phase2_evaluations", result.phase2_evaluations);
  cp.SetScalar("phase2_reused", result.phase2_reused);
  cp.SetScalar("phase2_levels", result.phase2_levels);
  cp.SetScalar("phase2_rejected", result.phase2_rejected);
  cp.SetScalar("num_shards", result.num_shards);
  cp.SetScalar("shard_retries", result.shard_retries);
  cp.SetScalar("unavailable", result.status.ok() ? 0 : 1);
  if (!state.phase1_done) return cp;
  AddCountSection(&cp, "local_thresholds", result.local_thresholds);
  AddCountSection(&cp, "local_frequent_per_shard",
                  result.local_frequent_per_shard);
  AddCountSection(&cp, "failed_shards", result.failed_shards);
  // The union is serialized level by level (each level canonically
  // sorted), never straight out of a hash set, so the checkpoint bytes
  // are a pure function of the mining state.
  std::vector<Bitset> union_flat;
  for (const std::vector<Bitset>& level : state.by_size) {
    union_flat.insert(union_flat.end(), level.begin(), level.end());
  }
  AddSetSection(&cp, "union", union_flat);
  // The exact-count-reuse state rides along, keyed in the same canonical
  // order as the union section, so a resumed run reuses (or re-counts)
  // exactly the candidates the uninterrupted run would have.
  std::vector<CheckpointEntry>* sums = cp.AddSection("union_sums");
  std::vector<CheckpointEntry>* masks = cp.AddSection("union_masks");
  sums->reserve(union_flat.size());
  masks->reserve(union_flat.size());
  for (const Bitset& x : union_flat) {
    auto it = state.agg.find(x);
    const CandAgg a = it == state.agg.end() ? CandAgg{} : it->second;
    sums->push_back({x, a.sum});
    masks->push_back({x, a.mask});
  }
  std::vector<CheckpointEntry>* conf = cp.AddSection("confirmed");
  conf->reserve(result.frequent.size());
  for (const FrequentItemset& f : result.frequent) {
    conf->push_back({f.items, f.support});
  }
  AddSetSection(&cp, "rejected", state.rejected);
  return cp;
}

/// Packages the confirmed prefix as a certified partial result: the
/// confirmed sets are downward closed (a candidate is counted only after
/// all its one-smaller subsets were confirmed), `maximal` is their
/// antichain of maximal elements, and `negative_border` holds only the
/// candidates certified infrequent by an actual count.
PartitionResult FinishPartial(PartitionState* state, StopReason reason) {
  PartitionResult& result = state->result;
  result.stop_reason = reason;
  result.checkpoint = MakePartitionCheckpoint(*state);
  SortFrequent(&result.frequent);
  result.maximal.clear();
  if (!result.frequent.empty()) {
    result.maximal.reserve(result.frequent.size());
    for (const FrequentItemset& f : result.frequent) {
      result.maximal.push_back(f.items);
    }
    AntichainMaximize(&result.maximal);
    CanonicalSort(&result.maximal);
  }
  result.negative_border = state->rejected;
  CanonicalSort(&result.negative_border);
  audit::AuditAntichain(result.maximal, "partition.partial_maximal");
  audit::AuditAntichain(result.negative_border,
                        "partition.partial_negative_border");
  HGM_OBS_COUNT("robustness.partial_results", 1);
  PublishPartitionGauges(result);
  return std::move(result);
}

/// Phase 1 with failover: mines every not-yet-done shard, collects the
/// shards whose task threw, and re-mines only those in later rounds with
/// the policy's seeded backoff.  CancelledError propagates (phase 1 is
/// discarded whole on cancellation).  Returns false when shards remain
/// failed after max_attempts; those land in result.failed_shards and the
/// run is marked Unavailable.
///
/// Each shard's local theory streams into the shared union/exact-count
/// aggregation the moment that shard finishes (under a mutex; sums and
/// presence masks are order-independent, so the merge is deterministic),
/// instead of being held whole until a post-phase-1 union barrier.
///
/// Scheduling adapts to the shard/thread ratio: with at least as many
/// pending shards as pool threads, one shard runs per ParallelFor task
/// (each local Apriori on an inline 1-thread pool); with fewer shards
/// than threads, the shards run one after another and each local Apriori
/// gets the whole pool — so K < T no longer pins the run to one thread.
/// Either way each shard's mining is a pure function of (shard rows,
/// local threshold), so the merged result is identical.
bool MineShardsWithFailover(ShardedTransactionDatabase* db,
                            PartitionState* state,
                            const PartitionOptions& options, ThreadPool* pool) {
  PartitionResult& result = state->result;
  const size_t num_shards = db->num_shards();
  const size_t max_attempts =
      options.retry.max_attempts < 1 ? 1 : options.retry.max_attempts;
  std::vector<size_t> attempts(num_shards, 0);
  std::vector<size_t> pending(num_shards);
  for (size_t k = 0; k < num_shards; ++k) pending[k] = k;
  StreamingUnion streamed;
  // Mines shard k and streams its local theory into the union; returns
  // false when the task threw (a shard fault).  CancelledError escapes.
  auto mine_one = [&](size_t k, const AprioriOptions& local_options) {
    obs::TraceSpan shard_span("partition.shard", "mining",
                              {{"shard", k},
                               {"threshold", result.local_thresholds[k]},
                               {"attempt", attempts[k]}});
    AprioriResult local;
    try {
      if (options.shard_fault_hook) {
        options.shard_fault_hook(k, attempts[k]);
      }
      local = MineFrequentSets(&db->shard(k), result.local_thresholds[k],
                               local_options);
    } catch (const CancelledError&) {
      throw;  // cancellation is not a shard fault
    } catch (const std::exception&) {
      HGM_OBS_COUNT("robustness.shard_faults", 1);
      shard_span.AddArg("failed", 1);
      return false;
    }
    streamed.Merge(k, local.frequent);
    result.local_frequent_per_shard[k] = local.frequent.size();
    HGM_OBS_COUNT("partition.local_frequent", local.frequent.size());
    shard_span.AddArg("frequent", local.frequent.size());
    return true;
  };
  while (!pending.empty()) {
    std::vector<uint8_t> failed(num_shards, 0);
    AprioriOptions local_options;
    local_options.record_all = true;
    // Local maximal sets are never consumed — the global maximal family
    // comes from the confirmed theory — so skip the per-level sweep.
    local_options.compute_maximal = false;
    if (pending.size() < pool->num_threads()) {
      // Fewer shards than threads: run them back to back, each on the
      // full pool, checking cancellation at the shard boundary.
      local_options.pool = pool;
      for (size_t k : pending) {
        options.budget.cancel.ThrowIfCancelled("partition.phase1");
        if (!mine_one(k, local_options)) failed[k] = 1;
      }
    } else {
      // A 1-thread pool always runs its chunk inline, so the local
      // Apriori runs never issue a nested ParallelFor onto the outer
      // pool's batch state.
      ThreadPool seq(1);
      local_options.pool = &seq;
      pool->ParallelFor(
          pending.size(),
          [&](size_t begin, size_t end, size_t /*chunk*/) {
            for (size_t i = begin; i < end; ++i) {
              const size_t k = pending[i];
              if (!mine_one(k, local_options)) failed[k] = 1;
            }
          },
          options.budget.cancel);
    }
    pending.clear();
    for (size_t k = 0; k < num_shards; ++k) {
      if (!failed[k]) continue;
      if (attempts[k] + 1 >= max_attempts) {
        result.failed_shards.push_back(k);
        obs::FlightRecorder::Global().Record(
            obs::FlightEventType::kShardFailover, "partition.shard",
            static_cast<int64_t>(k), static_cast<int64_t>(max_attempts));
        continue;
      }
      ++attempts[k];
      ++result.shard_retries;
      HGM_OBS_COUNT("robustness.retries", 1);
      obs::FlightRecorder::Global().Record(
          obs::FlightEventType::kShardRetry, "partition.shard",
          static_cast<int64_t>(k), static_cast<int64_t>(attempts[k]));
      const uint64_t delay_us = options.retry.DelayUs(attempts[k] - 1, k);
      if (options.sleeper) {
        options.sleeper(delay_us);
      } else if (delay_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      }
      pending.push_back(k);
    }
  }
  // Phase-1 join: every shard task has finished (ParallelFor blocked on
  // them), so the union hand-off is single-threaded from here on.
  state->agg = streamed.Take();
  if (!result.failed_shards.empty()) {
    std::string dropped;
    for (size_t k : result.failed_shards) {
      if (!dropped.empty()) dropped += ",";
      dropped += std::to_string(k);
    }
    result.status = Status::Unavailable(
        "shard(s) " + dropped + " failed after " +
        std::to_string(max_attempts) +
        " attempts; result is the surviving shards' certified union");
    return false;
  }
  return true;
}

/// Runs the partition miner from \p state: phase 1 (unless a resumed
/// checkpoint already carries its union) and the budgeted phase-2
/// confirmation loop.  Shared by MinePartitioned and ResumePartition, so
/// an interrupted-then-resumed run walks the exact code path of an
/// uninterrupted one.
PartitionResult RunPartition(ShardedTransactionDatabase* db,
                             PartitionState& state,
                             const PartitionOptions& options) {
  PartitionResult& result = state.result;
  ThreadPool* pool = PoolOrGlobal(options.pool);
  const size_t n = state.n;
  const size_t num_shards = db->num_shards();
  obs::TraceSpan run_span("partition.run", "mining",
                          {{"shards", num_shards},
                           {"rows", db->num_transactions()},
                           {"items", n}});
  BudgetTracker tracker(options.budget, result.phase2_evaluations);

  if (!state.phase1_done) {
    // ---- Phase 1: mine each shard locally at its scaled threshold. ----
    //
    // One shard per ParallelFor index; results land in index-addressed
    // slots, so phase 1 is deterministic at any thread count.  Nothing is
    // recorded before the boundary check, so a trip here leaves a
    // checkpoint that replays phase 1 from scratch — it is a pure
    // function of (shards, min_support), so the replay is bit-identical.
    if (StopReason r = tracker.CheckBoundary(); r != StopReason::kCompleted) {
      return FinishPartial(&state, r);
    }
    result.local_thresholds = db->LocalThresholds(state.min_support);
    result.local_frequent_per_shard.assign(num_shards, 0);
    {
      obs::TraceSpan phase1_span("partition.phase1", "mining",
                                 {{"shards", num_shards}});
      obs::FlightRecorder::Global().Record(obs::FlightEventType::kPhase,
                                           "partition.phase1",
                                           static_cast<int64_t>(num_shards));
      try {
        MineShardsWithFailover(db, &state, options, pool);
      } catch (const CancelledError&) {
        // Cancellation mid-phase-1 discards the phase whole; the partial
        // result is empty and the checkpoint replays phase 1 on resume.
        result.local_thresholds.clear();
        result.local_frequent_per_shard.clear();
        state.agg.clear();
        (void)tracker.CheckBoundary();  // probe only: records the trip counter
        return FinishPartial(&state, StopReason::kCancelled);
      }
    }

    // The union of the per-shard frequent families — downward closed
    // (each family is), and by the partition lemma a superset of every
    // globally frequent set (over the surviving shards, when some
    // failed) — was streamed into state.agg as shards finished; here it
    // is only grouped by size and sorted.
    size_t max_size = 0;
    for (const auto& [x, a] : state.agg) {
      max_size = std::max(max_size, x.Count());
    }
    result.candidate_union_size = state.agg.size();
    state.by_size.assign(max_size + 1, {});
    for (const auto& [x, a] : state.agg) {
      state.by_size[x.Count()].push_back(x);
    }
    for (std::vector<Bitset>& level : state.by_size) CanonicalSort(&level);
    state.phase1_done = true;
    state.next_level = 0;
    (void)obs::SampleMemory();  // phase boundary: the union peaks here
  }
  HGM_OBS_GAUGE_SET("partition.last_candidate_union",
                    static_cast<int64_t>(result.candidate_union_size));

  // ---- Phase 2: confirm the candidate union. -------------------------
  //
  // Walk the union levelwise: a size-k candidate is decided only when all
  // its (k-1)-subsets were confirmed globally frequent, so every decided
  // set is either frequent (in Th) or minimal infrequent (in Bd-(Th)) —
  // the confirmation obeys the Theorem 10 query bound, and each level
  // edge is a checkpointable boundary.
  //
  // Two ways to decide a candidate:
  //  * exact-count reuse — locally frequent in every (non-empty surviving)
  //    shard: the rows partition, so its global support is exactly the
  //    sum of the exact per-shard counts phase 1 already paid for.  No
  //    database pass, no budget charge.  (Such a candidate is always
  //    confirmed: the local thresholds sum to >= min_support.)
  //  * counting — missing from >= 1 shard's local theory: count it only
  //    in the shards where its contribution is unknown, in parallel over
  //    (candidate, shard) pairs against per-shard prefix-cover caches.
  obs::TraceSpan phase2_span("partition.phase2", "mining");
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kPhase, "partition.phase2",
      static_cast<int64_t>(result.candidate_union_size));
  // Shards whose contribution must be known before a support is exact:
  // empty shards contribute 0 by construction.  A failed shard is never
  // in any candidate's mask, so its rows are always recounted — phase 2
  // counts against the full store.
  uint64_t needed_mask = 0;
  if (num_shards <= kMaxReuseShards) {
    for (size_t s = 0; s < num_shards; ++s) {
      if (db->shard(s).num_transactions() > 0) {
        needed_mask |= uint64_t{1} << s;
      }
    }
  }
  const bool reuse_enabled = num_shards <= kMaxReuseShards;
  // One non-empty shard (K = 1, or K > rows with a lone populated shard):
  // its local threshold equals the global one, so the union IS the theory
  // with exact supports already in hand — adopt it wholesale instead of
  // walking the gate.  Fresh runs only; a mid-phase-2 resume keeps the
  // walk so its accounting continues bit-identically.
  if (reuse_enabled && std::popcount(needed_mask) == 1 &&
      state.next_level == 0 && state.confirmed.empty() &&
      state.rejected.empty()) {
    if (StopReason r = tracker.CheckBoundary(); r != StopReason::kCompleted) {
      return FinishPartial(&state, r);
    }
    size_t adopted = 0;
    for (const std::vector<Bitset>& lvl : state.by_size) {
      for (const Bitset& x : lvl) {
        const auto it = state.agg.find(x);
        HGMINE_DCHECK(it != state.agg.end() &&
                      it->second.mask == needed_mask);
        result.frequent.push_back(
            {x, static_cast<size_t>(it->second.sum)});
        ++adopted;
      }
    }
    result.phase2_reused += adopted;
    HGM_OBS_COUNT("partition.phase2_reused", adopted);
    state.by_size.clear();  // nothing left for the walk below
  }
  std::vector<PrefixCoverCache> caches;
  if (state.next_level < state.by_size.size()) {
    db->EnsureVerticalIndexes();
    caches.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      caches.emplace_back(&db->shard(s));
    }
  }
  for (size_t k = state.next_level; k < state.by_size.size(); ++k) {
    state.next_level = k;
    if (StopReason r = tracker.CheckBoundary(); r != StopReason::kCompleted) {
      return FinishPartial(&state, r);
    }
    // Candidate selection is pure, so a level interrupted by the budget
    // regenerates identically on resume.
    std::vector<Bitset> batch;
    for (const Bitset& x : state.by_size[k]) {
      bool all_subsets_frequent = true;
      if (k > 0) {
        std::vector<size_t> items = x.Indices();
        for (size_t drop = 0; all_subsets_frequent && drop < items.size();
             ++drop) {
          all_subsets_frequent =
              state.confirmed.contains(x.WithoutBit(items[drop]));
        }
      }
      if (all_subsets_frequent) batch.push_back(x);
    }
    if (batch.empty()) break;  // no level-k survivors => none above either
    // Split the level into reused and counted candidates; only the
    // counted ones are database passes, so only they meet the budget.
    std::vector<size_t> support(batch.size(), 0);
    std::vector<std::vector<size_t>> shard_cands(num_shards);
    size_t counted = 0;
    for (size_t c = 0; c < batch.size(); ++c) {
      CandAgg a;
      if (auto it = state.agg.find(batch[c]); it != state.agg.end()) {
        a = it->second;
      }
      if (reuse_enabled && (a.mask & needed_mask) == needed_mask) {
        support[c] = static_cast<size_t>(a.sum);
        continue;
      }
      ++counted;
      if (reuse_enabled) {
        support[c] = static_cast<size_t>(a.sum);
        for (size_t s = 0; s < num_shards; ++s) {
          const bool known = s < kMaxReuseShards && ((a.mask >> s) & 1) != 0;
          if (!known && db->shard(s).num_transactions() > 0) {
            shard_cands[s].push_back(c);
          }
        }
      } else {
        for (size_t s = 0; s < num_shards; ++s) {
          if (db->shard(s).num_transactions() > 0) {
            shard_cands[s].push_back(c);
          }
        }
      }
    }
    const uint64_t batch_bytes =
        static_cast<uint64_t>(counted) * ((n + 7) / 8);
    if (StopReason r = tracker.CheckBeforeBatch(counted, batch_bytes);
        r != StopReason::kCompleted) {
      return FinishPartial(&state, r);
    }
    ++result.phase2_levels;
    if (counted > 0) {
      // Bound the caches to the two prefix generations this level can
      // reach, then build this level's missing prefix covers (serial per
      // shard, parallel across shards), then count every (candidate,
      // shard) pair concurrently against the read-only caches.
      std::vector<size_t> work_shards;
      for (size_t s = 0; s < num_shards; ++s) {
        if (!shard_cands[s].empty()) work_shards.push_back(s);
      }
      pool->ParallelFor(work_shards.size(),
                        [&](size_t begin, size_t end, size_t /*chunk*/) {
                          for (size_t i = begin; i < end; ++i) {
                            const size_t s = work_shards[i];
                            caches[s].PruneBelow(k >= 2 ? k - 2 : 0);
                            for (size_t c : shard_cands[s]) {
                              const Bitset& x = batch[c];
                              if (x.Count() >= 2) {
                                caches[s].EnsureCover(
                                    x.WithoutBit(x.FindLast()));
                              }
                            }
                          }
                        });
      std::vector<std::pair<size_t, size_t>> tasks;  // (candidate, shard)
      for (size_t s : work_shards) {
        for (size_t c : shard_cands[s]) tasks.push_back({c, s});
      }
      std::vector<size_t> partial(tasks.size(), 0);
      pool->ParallelFor(tasks.size(),
                        [&](size_t begin, size_t end, size_t /*chunk*/) {
                          for (size_t t = begin; t < end; ++t) {
                            partial[t] = caches[tasks[t].second]
                                             .CountPrefixCached(
                                                 batch[tasks[t].first]);
                          }
                        });
      for (size_t t = 0; t < tasks.size(); ++t) {
        support[tasks[t].first] += partial[t];
      }
      HGM_OBS_COUNT("partition.shard_passes", tasks.size());
    }
    result.phase2_evaluations += counted;
    result.phase2_reused += batch.size() - counted;
    tracker.ChargeQueries(counted);
    HGM_OBS_COUNT("partition.phase2_candidates", counted);
    HGM_OBS_COUNT("partition.phase2_reused", batch.size() - counted);
    for (size_t c = 0; c < batch.size(); ++c) {
      if (support[c] >= state.min_support) {
        state.confirmed.insert(batch[c]);
        result.frequent.push_back({batch[c], support[c]});
      } else {
        ++result.phase2_rejected;
        state.rejected.push_back(batch[c]);
      }
    }
  }
  HGM_OBS_COUNT("partition.phase2_rejected", result.phase2_rejected);

  SortFrequent(&result.frequent);

  // Maximal frequent sets; empty when even ∅ failed (matching Apriori's
  // early-out shape, where the theory is empty and Bd- = {∅}).
  if (!result.frequent.empty()) {
    std::vector<Bitset> maximal;
    maximal.reserve(result.frequent.size());
    for (const FrequentItemset& f : result.frequent) {
      maximal.push_back(f.items);
    }
    AntichainMaximize(&maximal);
    CanonicalSort(&maximal);
    result.maximal = std::move(maximal);
  }

  if (options.compute_negative_border) {
    // Exact Bd-(Th) — phase 2 only ever sees the minimal infrequent sets
    // that were locally frequent somewhere, which is a subset.  The
    // default derives the border combinatorially from the confirmed
    // theory (apriori-gen's rejected candidates), keeping the transversal
    // enumeration off the critical path; --exact-border swaps in the
    // Theorem 7 route, which produces the identical family.
    std::vector<Bitset> theory;
    theory.reserve(result.frequent.size());
    for (const FrequentItemset& f : result.frequent) {
      theory.push_back(f.items);
    }
    if (!options.border_via_transversals) {
      result.negative_border = NegativeBorderViaGeneration(theory, n);
    } else if (theory.empty()) {
      result.negative_border.clear();
      result.negative_border.push_back(Bitset(n));
    } else {
      BergeTransversals berge;
      result.negative_border = NegativeBorderViaTransversals(theory, n, &berge);
      CanonicalSort(&result.negative_border);
    }
  }

  PublishPartitionGauges(result);
  run_span.AddArg("frequent", result.frequent.size());
  run_span.AddArg("phase2_evaluations", result.phase2_evaluations);
  return std::move(result);
}

}  // namespace

PartitionResult MinePartitioned(ShardedTransactionDatabase* db,
                                size_t min_support,
                                const PartitionOptions& options) {
  // At threshold 0 every subset of the universe is "frequent" — mining
  // the full lattice is never the intent, so clamp like the local
  // thresholds do.
  if (min_support == 0) min_support = 1;
  PartitionState state;
  state.min_support = min_support;
  state.n = db->num_items();
  state.result.num_shards = db->num_shards();
  HGM_OBS_COUNT("partition.runs", 1);
  return RunPartition(db, state, options);
}

Result<PartitionResult> ResumePartition(ShardedTransactionDatabase* db,
                                        const Checkpoint& checkpoint,
                                        const PartitionOptions& options) {
  if (checkpoint.kind != "partition") {
    return Status::InvalidArgument("checkpoint kind '" + checkpoint.kind +
                                   "' is not 'partition'");
  }
  if (checkpoint.width != db->num_items()) {
    return Status::InvalidArgument(
        "checkpoint width " + std::to_string(checkpoint.width) +
        " does not match database with " + std::to_string(db->num_items()) +
        " items");
  }
  PartitionState state;
  state.n = db->num_items();
  uint64_t v = 0;
  if (!checkpoint.GetScalar("min_support", &v)) {
    return Status::InvalidArgument("partition checkpoint lacks min_support");
  }
  state.min_support = v == 0 ? 1 : static_cast<size_t>(v);
  uint64_t phase1_done = 0;
  checkpoint.GetScalar("phase1_done", &phase1_done);
  PartitionResult& result = state.result;
  result.num_shards = db->num_shards();
  if (checkpoint.GetScalar("num_shards", &v) && phase1_done != 0 &&
      v != db->num_shards()) {
    return Status::InvalidArgument(
        "checkpoint taken over " + std::to_string(v) +
        " shards cannot resume on " + std::to_string(db->num_shards()));
  }
  HGM_OBS_COUNT("partition.runs", 1);
  if (phase1_done == 0) {
    // Interrupted before the union existed: phase 1 is a pure function of
    // (shards, min_support), so just run the whole miner fresh.
    return RunPartition(db, state, options);
  }

  if (checkpoint.GetScalar("phase2_evaluations", &v)) {
    result.phase2_evaluations = static_cast<size_t>(v);
  }
  if (checkpoint.GetScalar("phase2_reused", &v)) {
    result.phase2_reused = static_cast<size_t>(v);
  }
  if (checkpoint.GetScalar("phase2_levels", &v)) {
    result.phase2_levels = static_cast<size_t>(v);
  }
  if (checkpoint.GetScalar("phase2_rejected", &v)) {
    result.phase2_rejected = static_cast<size_t>(v);
  }
  if (checkpoint.GetScalar("shard_retries", &v)) result.shard_retries = v;
  if (checkpoint.GetScalar("unavailable", &v) && v != 0) {
    result.status = Status::Unavailable(
        "resumed from a run with failed shards; result is the surviving "
        "shards' certified union");
  }
  if (!checkpoint.GetScalar("next_level", &v)) {
    return Status::InvalidArgument("partition checkpoint lacks next_level");
  }
  state.next_level = static_cast<size_t>(v);

  Status s = ReadCountSection(checkpoint, "local_thresholds",
                              &result.local_thresholds);
  if (!s.ok()) return s;
  s = ReadCountSection(checkpoint, "local_frequent_per_shard",
                       &result.local_frequent_per_shard);
  if (!s.ok()) return s;
  s = ReadCountSection(checkpoint, "failed_shards", &result.failed_shards);
  if (!s.ok()) return s;

  std::vector<Bitset> union_flat;
  s = ReadSetSection(checkpoint, "union", state.n, &union_flat);
  if (!s.ok()) return s;
  result.candidate_union_size = union_flat.size();
  size_t max_size = 0;
  for (const Bitset& x : union_flat) max_size = std::max(max_size, x.Count());
  state.by_size.assign(max_size + 1, {});
  for (const Bitset& x : union_flat) state.by_size[x.Count()].push_back(x);
  for (std::vector<Bitset>& level : state.by_size) CanonicalSort(&level);
  if (state.next_level > state.by_size.size()) {
    return Status::InvalidArgument(
        "partition checkpoint next_level exceeds the candidate union's "
        "largest size");
  }

  // Exact-count-reuse state.  The sections are read all-or-nothing (a sum
  // without its presence mask would double-count), and a checkpoint from
  // before the reuse bookkeeping existed degrades gracefully: zero masks
  // mean every remaining candidate is recounted in every shard — slower,
  // but the same exact supports.
  for (const Bitset& x : union_flat) state.agg.emplace(x, CandAgg{});
  const std::vector<CheckpointEntry>* sums =
      checkpoint.FindSection("union_sums");
  const std::vector<CheckpointEntry>* masks =
      checkpoint.FindSection("union_masks");
  if (sums != nullptr && masks != nullptr) {
    for (const std::vector<CheckpointEntry>* section : {sums, masks}) {
      for (const CheckpointEntry& e : *section) {
        if (e.items.size() != state.n) {
          return Status::InvalidArgument(
              "exact-count entry width does not match the checkpoint width");
        }
      }
    }
    for (const CheckpointEntry& e : *sums) state.agg[e.items].sum = e.value;
    for (const CheckpointEntry& e : *masks) state.agg[e.items].mask = e.value;
  }

  if (const std::vector<CheckpointEntry>* conf =
          checkpoint.FindSection("confirmed")) {
    result.frequent.reserve(conf->size());
    for (const CheckpointEntry& e : *conf) {
      if (e.items.size() != state.n) {
        return Status::InvalidArgument(
            "confirmed entry width does not match the checkpoint width");
      }
      result.frequent.push_back({e.items, static_cast<size_t>(e.value)});
      state.confirmed.insert(e.items);
    }
  }
  s = ReadSetSection(checkpoint, "rejected", state.n, &state.rejected);
  if (!s.ok()) return s;

  state.phase1_done = true;
  return RunPartition(db, state, options);
}

PartialTheory AsPartialTheory(const PartitionResult& result) {
  PartialTheory out;
  out.stop_reason = result.stop_reason;
  out.theory.reserve(result.frequent.size());
  for (const FrequentItemset& f : result.frequent) {
    out.theory.push_back(f.items);
  }
  out.positive_border = result.maximal;
  out.negative_border = result.negative_border;
  out.queries = result.phase2_evaluations;
  if (result.checkpoint) out.checkpoint = *result.checkpoint;
  return out;
}

AprioriResult AsAprioriResult(const PartitionResult& result) {
  AprioriResult out;
  out.frequent = result.frequent;
  out.maximal = result.maximal;
  out.negative_border = result.negative_border;
  out.support_counts += result.phase2_evaluations;
  return out;
}

}  // namespace hgm
