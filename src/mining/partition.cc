#include "mining/partition.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/cancellation.h"
#include "common/check.h"
#include "common/level_loop.h"
#include "common/thread_annotations.h"
#include "core/audit.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace hgm {

namespace {

/// Exact counts of one set over a group of shards: \c sum totals them,
/// \c mask marks the shards (meaningful for < 64 shards; reuse is
/// disabled above that).  Both are order-independent (sums and ORs
/// commute), so merged walks are bit-identical at any thread count.
struct CandAgg {
  uint64_t sum = 0;
  uint64_t mask = 0;
};

/// Shard count up to which per-candidate shard presence fits the uint64
/// mask; beyond it phase 2 falls back to counting every candidate in
/// every shard (still exact, just without the reuse shortcut).
constexpr size_t kMaxReuseShards = 64;

/// Exact-count reuse state of one candidate-union member.
struct UnionEntry {
  /// The shards whose local theory holds the set, with its local supports.
  CandAgg frequent;
  /// Shards where phase 1 counted the set but found it locally
  /// infrequent, which phase 2 need not count again.  A resumed union
  /// carries none.
  CandAgg counted;
  /// Confirmed by a phase-2 level a resumed run replays.
  bool confirmed = false;
};

/// Positions \p picked of \p level's candidates (over \p n items) in
/// canonical order.  Sets of one size compare by value, which is the
/// order of their items read from the largest down, so a stable counting
/// sort per item position, least significant first, sorts them in
/// linear time.
std::vector<uint32_t> CanonicalOrder(const CandidateLevel& level,
                                     std::vector<uint32_t> picked,
                                     size_t n) {
  std::vector<uint32_t> next(picked.size());
  std::vector<size_t> start(n + 1);
  for (size_t d = 0; d < level.size; ++d) {
    std::fill(start.begin(), start.end(), 0);
    for (uint32_t c : picked) ++start[level.candidates[c].items[d] + 1];
    for (size_t v = 0; v < n; ++v) start[v + 1] += start[v];
    for (uint32_t c : picked) next[start[level.candidates[c].items[d]]++] = c;
    picked.swap(next);
  }
  return picked;
}

/// The phase-2 candidate union: the locally frequent sets of every
/// shard, each with its reuse state, indexed by set.
struct CandidateUnion {
  std::vector<Bitset> sets;
  std::vector<UnionEntry> entries;  // entries[p] belongs to sets[p]
  FrontierIndex index;              // set -> p, once the union is whole
};

/// Adds one phase-1 walk's members (sets over \p n items) to \p into
/// and indexes the result.  A shard's local theory comes from exactly one
/// successful walk, so a set several walks found adds its sums and ORs
/// its masks.
void MergeUnion(CandidateUnion* into, CandidateUnion&& walk, size_t n) {
  if (into->sets.empty()) {
    *into = std::move(walk);
  } else {
    for (size_t p = 0; p < walk.sets.size(); ++p) {
      const UnionEntry& from = walk.entries[p];
      const int64_t at = into->index.Find(walk.sets[p]);
      if (at < 0) {
        into->sets.push_back(std::move(walk.sets[p]));
        into->entries.push_back(from);
        continue;
      }
      UnionEntry& to = into->entries[static_cast<size_t>(at)];
      to.frequent.sum += from.frequent.sum;
      to.frequent.mask |= from.frequent.mask;
      to.counted.sum += from.counted.sum;
      to.counted.mask |= from.counted.mask;
    }
  }
  into->index.Build(into->sets, n);
}

/// The covers one counting chunk keeps in a level, in fixed-size slabs:
/// a few allocations per level instead of one per candidate, each under
/// malloc's mmap threshold (128 KiB by default) so the next level's
/// slabs reuse them.
class CoverSlabs {
 public:
  static constexpr size_t kSlabWords = 16000;

  /// Room for \p need words; Keep(need) keeps them.
  uint64_t* Take(size_t need) {
    if (need > room_) {
      room_ = std::max(need, kSlabWords);
      slabs_.emplace_back(new uint64_t[room_]);
      next_ = slabs_.back().get();
    }
    return next_;
  }
  void Keep(size_t words) {
    next_ += words;
    room_ -= words;
  }

 private:
  std::vector<std::unique_ptr<uint64_t[]>> slabs_;
  uint64_t* next_ = nullptr;
  size_t room_ = 0;
};

/// Phase 1 for up to 64 shards at once: one apriori-gen walk over the
/// union of their local theories.  A candidate is a local candidate of
/// shard s when all its one-smaller subsets are locally frequent there,
/// exactly as in a local Apriori run on s; it is counted in those shards
/// only (the AND of its join parents' covers in s) and kept when locally
/// frequent in at least one.  So each shard's local theory, with exact
/// local supports, is what MineFrequentSets on that shard alone finds,
/// while candidate generation is paid once for the group instead of once
/// per shard.  Counting runs in parallel across candidates, each writing
/// its own slots, so the walk is bit-identical at any thread count.
struct ShardGroupKernel {
  ShardedTransactionDatabase* db;
  const std::vector<size_t>& shards;    // group position -> shard index
  const std::vector<size_t>& attempts;  // per shard index
  const PartitionOptions& options;
  ThreadPool* pool;
  CandidateUnion* members;
  std::vector<size_t> thresholds = {};      // per group position
  std::vector<size_t> words = {};           // per group position: rows / 64
  std::vector<size_t> local_frequent = {};  // per group position
  // Per member of the last level: the shards it is locally frequent in,
  // and from `cover_at` on, its covers there in group order, held in the
  // slabs of the chunks that counted them.
  std::vector<uint64_t> frequent_mask = {};
  std::vector<size_t> cover_at = {};
  std::vector<const uint64_t*> covers = {};
  std::vector<CoverSlabs> slabs = {};

  const uint64_t* Cover(size_t member, size_t j) const {
    const uint64_t below = frequent_mask[member] & ((uint64_t{1} << j) - 1);
    return covers[cover_at[member] + static_cast<size_t>(std::popcount(below))];
  }

  std::vector<uint8_t> Evaluate(CandidateLevel& level) {
    const CancellationToken& cancel = options.budget.cancel;
    cancel.ThrowIfCancelled("partition.phase1");
    const size_t m = level.candidates.size();
    const size_t k = level.size;
    if (k == 1 && options.shard_fault_hook) {
      for (size_t s : shards) options.shard_fault_hook(s, attempts[s]);
    }
    // The shards each candidate is a local candidate in: one count each.
    std::vector<uint64_t> mask(m);
    std::vector<size_t> count_at(m + 1, 0);
    for (size_t c = 0; c < m; ++c) {
      const AprioriCandidate& cand = level.candidates[c];
      uint64_t bits = frequent_mask[cand.parent_i];
      if (k >= 2) {
        bits &= frequent_mask[cand.parent_j];
        for (size_t d = 0; d + 2 < k; ++d) {
          bits &= frequent_mask[level.subsets[c * (k - 2) + d]];
        }
      }
      mask[c] = bits;
      count_at[c + 1] =
          count_at[c] + static_cast<size_t>(std::popcount(bits));
    }
    // A candidate's cover in a shard is built next to its count and kept
    // where it is locally frequent; each candidate writes its own slots,
    // and each chunk its own slabs.
    std::vector<size_t> counts(count_at[m]);
    std::vector<uint64_t> kept_mask(m, 0);
    std::vector<const uint64_t*> pair_cover(count_at[m], nullptr);
    std::vector<CoverSlabs> next_slabs(pool->num_threads());
    const auto count_range = [&](size_t begin, size_t end, size_t chunk) {
      for (size_t c = begin; c < end; ++c) {
        const AprioriCandidate& cand = level.candidates[c];
        size_t at = count_at[c];
        for (uint64_t bits = mask[c]; bits != 0; bits &= bits - 1, ++at) {
          const size_t j = static_cast<size_t>(std::countr_zero(bits));
          const uint64_t* a =
              k == 1 ? db->shard(shards[j])
                           .ItemCoverPrebuilt(cand.items[0])
                           .words()
                           .data()
                     : Cover(cand.parent_i, j);
          const uint64_t* b = k == 1 ? a : Cover(cand.parent_j, j);
          uint64_t* out = next_slabs[chunk].Take(words[j]);
          size_t count = 0;
          for (size_t w = 0; w < words[j]; ++w) {
            out[w] = a[w] & b[w];
            count += static_cast<size_t>(std::popcount(out[w]));
          }
          counts[at] = count;
          if (count >= thresholds[j]) {
            kept_mask[c] |= uint64_t{1} << j;
            next_slabs[chunk].Keep(words[j]);
            pair_cover[at] = out;
          }
        }
      }
    };
    if (m < kInlineBatchItems) {
      count_range(0, m, 0);
    } else {
      pool->ParallelFor(m, count_range, cancel);
    }

    // Keep the locally frequent ones; a kept candidate's counts in the
    // shards it missed ride along for phase 2.
    std::vector<uint8_t> keep(m, 0);
    frequent_mask.clear();
    cover_at.clear();
    std::vector<const uint64_t*> next_covers;
    for (size_t c = 0; c < m; ++c) {
      if (kept_mask[c] == 0) continue;
      CandAgg a, counted;
      cover_at.push_back(next_covers.size());
      size_t at = count_at[c];
      for (uint64_t bits = mask[c]; bits != 0; bits &= bits - 1, ++at) {
        const size_t j = static_cast<size_t>(std::countr_zero(bits));
        const uint64_t shard_bit =
            shards[j] < kMaxReuseShards ? uint64_t{1} << shards[j] : 0;
        if ((kept_mask[c] >> j) & 1) {
          next_covers.push_back(pair_cover[at]);
          a.sum += counts[at];
          a.mask |= shard_bit;
          ++local_frequent[j];
        } else {
          counted.sum += counts[at];
          counted.mask |= shard_bit;
        }
      }
      keep[c] = 1;
      members->sets.push_back(std::move(level.sets[c]));
      members->entries.push_back({a, counted});
      frequent_mask.push_back(kept_mask[c]);
    }
    covers.swap(next_covers);
    slabs.swap(next_slabs);
    return keep;
  }
};

/// Mines the local theories of \p group (at most 64 shards) in one walk
/// and returns their union; sets each shard's local theory size in
/// \p local_frequent.  The shard fault hook fires inside the walk, at
/// its first level, once per shard.
CandidateUnion MineShardGroup(ShardedTransactionDatabase* db,
                              const std::vector<size_t>& group,
                              const std::vector<size_t>& attempts,
                              const std::vector<size_t>& thresholds,
                              const PartitionOptions& options,
                              ThreadPool* pool,
                              std::vector<size_t>* local_frequent) {
  const size_t n = db->num_items();
  CandidateUnion members;
  ShardGroupKernel kernel{db, group, attempts, options, pool, &members};
  kernel.local_frequent.assign(group.size(), 0);
  // ∅ is locally frequent in a shard holding at least its threshold.
  CandAgg root;
  uint64_t root_mask = 0;
  for (size_t j = 0; j < group.size(); ++j) {
    const size_t k = group[j];
    kernel.thresholds.push_back(thresholds[k]);
    const size_t rows = db->shard(k).num_transactions();
    kernel.words.push_back((rows + 63) / 64);
    if (rows < thresholds[k]) continue;
    root_mask |= uint64_t{1} << j;
    root.sum += rows;
    if (k < kMaxReuseShards) root.mask |= uint64_t{1} << k;
    ++kernel.local_frequent[j];
  }
  if (root_mask != 0) {
    members.sets.push_back(Bitset(n));
    members.entries.push_back({root, {}});
  }
  kernel.frequent_mask = {root_mask};
  kernel.cover_at = {0};
  LevelWalk walk = LevelWalk::AfterEmptySet(root_mask != 0, n);
  LevelLoopOptions loop;
  loop.num_items = n;
  loop.track_maximal = false;
  loop.names.span = "partition.local_level";
  loop.names.category = "mining";
  (void)RunLevelLoop(&walk, kernel, loop);
  for (size_t j = 0; j < group.size(); ++j) {
    (*local_frequent)[group[j]] = kernel.local_frequent[j];
  }
  return members;
}

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
  /// Next phase-2 level to decide, as a set size (0 is ∅).  A resumed
  /// run replays the levels below it from the confirmed flags.
  size_t next_level = 0;
  /// The candidate union with its reuse state and confirmed flags.
  CandidateUnion candidate_union;
  /// Counted candidates that fell below min_support, in discovery order.
  /// Every subset of each was confirmed frequent first, so these are
  /// *certified* members of Bd-(Th) — the partial negative border.
  std::vector<Bitset> rejected;
};

/// Rows of \p shard (vertical index built) holding all of \p x: the AND
/// of its items' covers, built in \p scratch.
size_t ItemCoverCount(const TransactionDatabase& shard, const Bitset& x,
                      std::vector<uint64_t>* scratch) {
  if (x.None()) return shard.num_transactions();
  bool first = true;
  x.ForEach([&](size_t item) {
    const std::vector<uint64_t>& cover = shard.ItemCoverPrebuilt(item).words();
    if (first) {
      *scratch = cover;
      first = false;
      return;
    }
    for (size_t w = 0; w < cover.size(); ++w) (*scratch)[w] &= cover[w];
  });
  size_t count = 0;
  for (uint64_t w : *scratch) count += static_cast<size_t>(std::popcount(w));
  return count;
}

/// Phase 2 as a level-loop kernel over the confirmed theory.  Apriori-gen
/// over the confirmed frontier yields the sets whose one-smaller subsets
/// are all confirmed, so every decided set lies in Th ∪ Bd-(Th) and the
/// Theorem 10 query bound holds.  A candidate is decided one of three
/// ways:
///  * outside the union: globally infrequent by the partition lemma, so
///    rejected with no count and no charge;
///  * exact-count reuse: locally frequent in every non-empty shard.  The
///    rows partition, so its global support is the sum of the exact
///    local supports phase 1 already paid for (and it is always
///    confirmed: the local thresholds sum to >= min_support);
///  * counting: any other member is counted only in the shards where
///    phase 1 made no count, in parallel over (candidate, shard) pairs,
///    as the AND of its item covers there.  Only these meet the budget.
/// Levels below `replay_below` replay a resumed run's decided levels from
/// the confirmed flags: no counts, no tallies.
struct ConfirmKernel {
  ShardedTransactionDatabase* db;
  PartitionState* state;
  ThreadPool* pool;
  size_t replay_below;
  /// Off past 64 shards, where the masks cannot name every shard.
  bool reuse = false;
  /// The non-empty shards: empty ones contribute 0 by construction.  A
  /// failed shard is in no member's mask, so its rows are always counted.
  uint64_t needed_mask = 0;
  // The level being decided: each candidate's union entry (null outside
  // the union) and its support so far, and the candidates to count.
  std::vector<const UnionEntry*> entries = {};
  std::vector<size_t> support = {};
  std::vector<size_t> counted = {};

  uint64_t Plan(const CandidateLevel& level) {
    const size_t m = level.sets.size();
    entries.assign(m, nullptr);
    support.assign(m, 0);
    counted.clear();
    const CandidateUnion& members = state->candidate_union;
    for (size_t c = 0; c < m; ++c) {
      const int64_t at = members.index.Find(level.sets[c]);
      if (at < 0) continue;
      const UnionEntry& e = members.entries[static_cast<size_t>(at)];
      entries[c] = &e;
      if (level.size < replay_below) continue;
      if (reuse && (e.frequent.mask & needed_mask) == needed_mask) {
        support[c] = static_cast<size_t>(e.frequent.sum);
      } else {
        counted.push_back(c);
      }
    }
    return counted.size();
  }

  std::vector<uint8_t> Evaluate(CandidateLevel& level) {
    const size_t m = level.sets.size();
    std::vector<uint8_t> keep(m, 0);
    if (level.size < replay_below) {
      for (size_t c = 0; c < m; ++c) {
        keep[c] = entries[c] != nullptr && entries[c]->confirmed;
      }
      return keep;
    }
    if (!counted.empty()) Count(level);
    PartitionResult& result = state->result;
    std::vector<uint32_t> in_union;
    for (size_t c = 0; c < m; ++c) {
      if (entries[c] != nullptr) in_union.push_back(static_cast<uint32_t>(c));
    }
    // Canonical order, so the theory and the counted rejects come out
    // sorted level by level.
    for (uint32_t c : CanonicalOrder(level, in_union, state->n)) {
      if (support[c] >= state->min_support) {
        keep[c] = 1;
        result.frequent.push_back({std::move(level.sets[c]), support[c]});
      } else {
        ++result.phase2_rejected;
        state->rejected.push_back(std::move(level.sets[c]));
      }
    }
    if (in_union.empty()) return keep;
    ++result.phase2_levels;
    result.phase2_evaluations += counted.size();
    result.phase2_reused += in_union.size() - counted.size();
    HGM_OBS_COUNT("partition.phase2_candidates", counted.size());
    HGM_OBS_COUNT("partition.phase2_reused", in_union.size() - counted.size());
    return keep;
  }

  /// Adds the counted candidates' missing shard counts to `support`.
  void Count(const CandidateLevel& level) {
    const size_t num_shards = db->num_shards();
    std::vector<std::pair<size_t, size_t>> tasks;  // (candidate, shard)
    for (size_t c : counted) {
      uint64_t known = 0;
      if (reuse) {
        const UnionEntry& e = *entries[c];
        support[c] = static_cast<size_t>(e.frequent.sum + e.counted.sum);
        known = e.frequent.mask | e.counted.mask;
      }
      for (size_t s = 0; s < num_shards; ++s) {
        if (reuse && ((known >> s) & 1) != 0) continue;
        if (db->shard(s).num_transactions() > 0) tasks.push_back({c, s});
      }
    }
    std::vector<size_t> partial(tasks.size(), 0);
    const auto count = [&](size_t begin, size_t end, size_t /*chunk*/) {
      std::vector<uint64_t> scratch;
      for (size_t t = begin; t < end; ++t) {
        partial[t] = ItemCoverCount(db->shard(tasks[t].second),
                                    level.sets[tasks[t].first], &scratch);
      }
    };
    if (tasks.size() < kInlineBatchItems) {
      count(0, tasks.size(), 0);
    } else {
      pool->ParallelFor(tasks.size(), count);
    }
    for (size_t t = 0; t < tasks.size(); ++t) {
      support[tasks[t].first] += partial[t];
    }
    HGM_OBS_COUNT("partition.shard_passes", tasks.size());
  }
};

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

/// The checkpoint of a tripped run.  Every section is canonically sorted
/// (phase 2 decides `confirmed` and `rejected` in that order), so the
/// bytes are a pure function of the mining state.
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
  // The exact-count-reuse state rides along, keyed in union order, so a
  // resumed run reuses (or re-counts) exactly the candidates the
  // uninterrupted run would have.
  const CandidateUnion& members = state.candidate_union;
  std::vector<size_t> order(members.sets.size());
  for (size_t p = 0; p < order.size(); ++p) order[p] = p;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return CanonicalLess(members.sets[a], members.sets[b]);
  });
  // One section at a time: AddSection's pointer lasts until the next one.
  std::vector<CheckpointEntry>* section = cp.AddSection("union");
  for (size_t p : order) section->push_back({members.sets[p], 0});
  section = cp.AddSection("union_sums");
  for (size_t p : order) {
    section->push_back({members.sets[p], members.entries[p].frequent.sum});
  }
  section = cp.AddSection("union_masks");
  for (size_t p : order) {
    section->push_back({members.sets[p], members.entries[p].frequent.mask});
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
/// antichain of maximal elements (none before phase 2's walk starts,
/// when \p walk is null), and `negative_border` holds only the
/// candidates certified infrequent by an actual count.
PartitionResult FinishPartial(PartitionState* state, const LevelWalk* walk,
                              StopReason reason) {
  PartitionResult& result = state->result;
  result.stop_reason = reason;
  result.checkpoint = MakePartitionCheckpoint(*state);
  if (walk != nullptr) result.maximal = walk->PositiveBorderSoFar(state->n);
  result.negative_border = state->rejected;
  audit::AuditAntichain(result.maximal, "partition.partial_maximal");
  audit::AuditAntichain(result.negative_border,
                        "partition.partial_negative_border");
  HGM_OBS_COUNT("robustness.partial_results", 1);
  PublishPartitionGauges(result);
  return std::move(result);
}

/// Phase 1 with failover: mines every not-yet-done shard, collects the
/// shards that failed, and re-mines only those in later rounds with the
/// policy's seeded backoff.  Each round mines its shards in groups of up
/// to 64 with one walk per group (ShardGroupKernel).  When a group walk
/// throws, its shards are walked again one at a time, so an error stays
/// with the shard that raised it: a shard fails an attempt only when its
/// own walk throws.  CancelledError propagates (phase 1 is discarded
/// whole on cancellation).  Returns false when shards remain failed after
/// max_attempts; those land in result.failed_shards and the run is marked
/// Unavailable.  Each successful walk's members merge into the state's
/// candidate union.
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
  // One group walk; false when it throws anything but cancellation.
  const auto mine = [&](const std::vector<size_t>& group) {
    try {
      MergeUnion(&state->candidate_union,
                 MineShardGroup(db, group, attempts, result.local_thresholds,
                                options, pool,
                                &result.local_frequent_per_shard),
                 state->n);
    } catch (const CancelledError&) {
      throw;  // cancellation is not a shard fault
    } catch (const std::exception&) {
      return false;
    }
    for (size_t k : group) {
      HGM_OBS_COUNT("partition.local_frequent",
                    result.local_frequent_per_shard[k]);
    }
    return true;
  };
  db->EnsureVerticalIndexes();
  while (!pending.empty()) {
    options.budget.cancel.ThrowIfCancelled("partition.phase1");
    std::vector<uint8_t> failed(num_shards, 0);
    for (size_t begin = 0; begin < pending.size(); begin += kMaxReuseShards) {
      const std::vector<size_t> group(
          pending.begin() + static_cast<std::ptrdiff_t>(begin),
          pending.begin() +
              static_cast<std::ptrdiff_t>(
                  std::min(pending.size(), begin + kMaxReuseShards)));
      if (mine(group)) continue;
      for (size_t k : group) {
        if (group.size() > 1 && mine({k})) continue;
        HGM_OBS_COUNT("robustness.shard_faults", 1);
        failed[k] = 1;
      }
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
    // One walk per group of shards, counting in parallel across
    // candidates; every candidate writes its own slots, so phase 1 is
    // deterministic at any thread count.  Nothing is recorded before the
    // boundary check, so a trip here leaves a
    // checkpoint that replays phase 1 from scratch — it is a pure
    // function of (shards, min_support), so the replay is bit-identical.
    if (StopReason r = tracker.CheckBoundary(); r != StopReason::kCompleted) {
      return FinishPartial(&state, nullptr, r);
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
        state.candidate_union = {};
        (void)tracker.CheckBoundary();  // probe only: records the trip counter
        return FinishPartial(&state, nullptr, StopReason::kCancelled);
      }
    }

    // The union of the per-shard frequent families — downward closed
    // (each family is), and by the partition lemma a superset of every
    // globally frequent set (over the surviving shards, when some
    // failed).
    result.candidate_union_size = state.candidate_union.sets.size();
    state.phase1_done = true;
    state.next_level = 0;
    (void)obs::SampleMemory();  // phase boundary: the union peaks here
  }
  HGM_OBS_GAUGE_SET("partition.last_candidate_union",
                    static_cast<int64_t>(result.candidate_union_size));

  // ---- Phase 2: confirm the candidate union (ConfirmKernel). ---------
  obs::TraceSpan phase2_span("partition.phase2", "mining");
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kPhase, "partition.phase2",
      static_cast<int64_t>(result.candidate_union_size));
  db->EnsureVerticalIndexes();
  ConfirmKernel kernel{db, &state, pool, state.next_level};
  kernel.reuse = num_shards <= kMaxReuseShards;
  for (size_t s = 0; kernel.reuse && s < num_shards; ++s) {
    if (db->shard(s).num_transactions() > 0) {
      kernel.needed_mask |= uint64_t{1} << s;
    }
  }
  // Level 0, ∅, is decided by the kernel before the loop takes over.
  CandidateLevel root;
  root.sets.push_back(Bitset(n));
  if (state.next_level == 0) {
    if (StopReason r = tracker.CheckBoundary(); r != StopReason::kCompleted) {
      return FinishPartial(&state, nullptr, r);
    }
  }
  const uint64_t root_cost = kernel.Plan(root);
  if (root_cost > 0) {
    if (StopReason r = tracker.CheckBeforeBatch(root_cost, (n + 7) / 8);
        r != StopReason::kCompleted) {
      return FinishPartial(&state, nullptr, r);
    }
  }
  LevelWalk walk = LevelWalk::AfterEmptySet(kernel.Evaluate(root)[0] != 0, n);
  tracker.ChargeQueries(root_cost);
  LevelLoopOptions loop;
  loop.num_items = n;
  loop.tracker = &tracker;
  loop.replay_below = state.next_level;
  const StopReason stop = RunLevelLoop(&walk, kernel, loop);
  if (stop != StopReason::kCompleted) {
    state.next_level = walk.size + 1;
    return FinishPartial(&state, &walk, stop);
  }
  HGM_OBS_COUNT("partition.phase2_rejected", result.phase2_rejected);

  // Both borders come from the walk.  Bd+ is empty and Bd- = {∅} when
  // even ∅ failed (Apriori's early-out shape).  Phase 2 only counts the
  // minimal infrequent sets that were locally frequent somewhere; the
  // rest of Bd- is the union's own border, rejected uncounted.
  result.maximal = walk.PositiveBorderSoFar(n);
  result.negative_border = walk.TakeNegativeBorder();
  // Theorem 7 in the audit build, on clean complete runs as levelwise.
  if (audit::kEnabled && result.status.ok()) {
    audit::AuditBorderDuality(result.maximal, result.negative_border, n,
                              "partition");
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
  if (state.next_level > max_size + 1) {
    return Status::InvalidArgument(
        "partition checkpoint next_level exceeds the candidate union's "
        "largest size");
  }

  // Exact-count-reuse state.  The sections are read all-or-nothing (a sum
  // without its presence mask would double-count), and a checkpoint from
  // before the reuse bookkeeping existed degrades gracefully: zero masks
  // mean every remaining candidate is recounted in every shard — slower,
  // but the same exact supports.
  CandidateUnion& members = state.candidate_union;
  members.sets = std::move(union_flat);
  members.entries.assign(members.sets.size(), UnionEntry{});
  members.index.Build(members.sets, state.n);
  // The union member \p x names, or null.
  const auto member = [&](const Bitset& x) -> UnionEntry* {
    if (x.size() != state.n) return nullptr;
    const int64_t at = members.index.Find(x);
    return at < 0 ? nullptr : &members.entries[static_cast<size_t>(at)];
  };
  const std::vector<CheckpointEntry>* sums =
      checkpoint.FindSection("union_sums");
  const std::vector<CheckpointEntry>* masks =
      checkpoint.FindSection("union_masks");
  if (sums != nullptr && masks != nullptr) {
    for (const std::vector<CheckpointEntry>* section : {sums, masks}) {
      for (const CheckpointEntry& e : *section) {
        UnionEntry* entry = member(e.items);
        if (entry == nullptr) {
          return Status::InvalidArgument(
              "partition checkpoint has an exact-count entry outside its "
              "candidate union");
        }
        if (section == sums) {
          entry->frequent.sum = e.value;
        } else {
          entry->frequent.mask = e.value;
        }
      }
    }
  }

  // The confirmed flags let phase 2 replay its levels below next_level.
  if (const std::vector<CheckpointEntry>* conf =
          checkpoint.FindSection("confirmed")) {
    result.frequent.reserve(conf->size());
    for (const CheckpointEntry& e : *conf) {
      UnionEntry* entry = member(e.items);
      if (entry == nullptr) {
        return Status::InvalidArgument(
            "partition checkpoint confirms a set outside its candidate "
            "union");
      }
      entry->confirmed = true;
      result.frequent.push_back({e.items, static_cast<size_t>(e.value)});
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
