#include "mining/partition.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/cancellation.h"
#include "common/check.h"
#include "common/level_loop.h"
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

/// The candidate union as a lattice: level k holds every candidate the
/// apriori-gen walk over the union produced at size k — the union's
/// members and the union's own negative border — in generation order,
/// with the member positions one level down of each candidate's
/// one-smaller subsets.  Phase 2 decides members by those positions, and
/// both borders of the confirmed theory are read off the same structure:
/// every set of Th ∪ Bd-(Th) is a candidate here, because Th lies inside
/// the union.
struct UnionLevel {
  /// Every candidate of this size (level 0: ∅ alone).
  std::vector<Bitset> sets;
  /// k entries per candidate at level k >= 1: the member positions in
  /// level k-1 of its k one-smaller subsets.
  std::vector<uint32_t> subsets;
  /// Candidate index of each union member, ascending.
  std::vector<uint32_t> members;
  /// Per member: exact-count reuse state from phase 1.
  std::vector<CandAgg> agg;
  /// Per member: confirmed globally frequent by phase 2.
  std::vector<uint8_t> confirmed;
  /// Per member: the exact counts phase 1 made in shards where it was a
  /// local candidate but not locally frequent (their sum and shard mask),
  /// which phase 2 need not count again.  Empty when the lattice was
  /// rebuilt from a merged or resumed union, which does not carry them.
  std::vector<CandAgg> counted;
};

/// Appends one walked level, taking its sets: every candidate, its
/// subsets' positions (the join parents, then the prune step's lookups),
/// and the kept ones as members with \p member_agg.
void AppendLevel(std::vector<UnionLevel>* lattice, CandidateLevel& level,
                 const std::vector<uint8_t>& keep,
                 std::vector<CandAgg> member_agg) {
  UnionLevel out;
  const size_t k = level.size;
  out.sets = std::move(level.sets);
  out.subsets.reserve(level.candidates.size() * k);
  for (size_t c = 0; c < level.candidates.size(); ++c) {
    const AprioriCandidate& cand = level.candidates[c];
    // At level 1 the one subset is ∅, level 0's only member.
    out.subsets.push_back(static_cast<uint32_t>(cand.parent_i));
    if (k >= 2) {
      out.subsets.push_back(static_cast<uint32_t>(cand.parent_j));
      for (size_t d = 0; d + 2 < k; ++d) {
        out.subsets.push_back(level.subsets[c * (k - 2) + d]);
      }
    }
    if (keep[c]) out.members.push_back(static_cast<uint32_t>(c));
  }
  out.agg = std::move(member_agg);
  out.confirmed.assign(out.members.size(), 0);
  lattice->push_back(std::move(out));
}

/// Level 0 of a lattice: ∅, a member iff \p agg is set.
std::vector<UnionLevel> LatticeRoot(size_t n, const CandAgg* agg) {
  std::vector<UnionLevel> lattice(1);
  lattice[0].sets.push_back(Bitset(n));
  if (agg != nullptr) {
    lattice[0].members.push_back(0);
    lattice[0].agg.push_back(*agg);
    lattice[0].confirmed.push_back(0);
  }
  return lattice;
}

/// The lattice of a union given as set -> reuse state (several phase-1
/// walks merged, or a resumed checkpoint): the apriori-gen walk over the
/// union with membership as the kernel, which generates exactly the
/// candidates the phase-1 walk would have.
std::vector<UnionLevel> BuildLattice(
    const std::unordered_map<Bitset, CandAgg, BitsetHash>& agg, size_t n) {
  const auto root = agg.find(Bitset(n));
  std::vector<UnionLevel> lattice =
      LatticeRoot(n, root == agg.end() ? nullptr : &root->second);
  struct MembershipKernel {
    const std::unordered_map<Bitset, CandAgg, BitsetHash>* agg;
    std::vector<UnionLevel>* lattice;
    std::vector<uint8_t> Evaluate(CandidateLevel& level) {
      std::vector<uint8_t> keep(level.sets.size(), 0);
      std::vector<CandAgg> member_agg;
      for (size_t c = 0; c < level.sets.size(); ++c) {
        const auto it = agg->find(level.sets[c]);
        if (it == agg->end()) continue;
        keep[c] = 1;
        member_agg.push_back(it->second);
      }
      AppendLevel(lattice, level, keep, std::move(member_agg));
      return keep;
    }
  } kernel{&agg, &lattice};
  LevelWalk walk = LevelWalk::AfterEmptySet(root != agg.end(), n);
  LevelLoopOptions loop;
  loop.num_items = n;
  loop.track_maximal = false;
  (void)RunLevelLoop(&walk, kernel, loop);
  return lattice;
}

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
  std::vector<UnionLevel>* lattice;
  std::vector<size_t> thresholds = {};      // per group position
  std::vector<size_t> words = {};           // per group position: rows / 64
  std::vector<size_t> local_frequent = {};  // per group position
  // Per member of the last level: the shards it is locally frequent in,
  // and its covers there, one after another in group order.
  std::vector<uint64_t> frequent_mask = {};
  std::vector<std::vector<uint64_t>> covers = {};

  const uint64_t* Cover(size_t member, size_t j) const {
    const uint64_t* at = covers[member].data();
    for (uint64_t bits = frequent_mask[member] & ((uint64_t{1} << j) - 1);
         bits != 0; bits &= bits - 1) {
      at += words[static_cast<size_t>(std::countr_zero(bits))];
    }
    return at;
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
    // where it is locally frequent; each candidate writes its own slots.
    std::vector<size_t> counts(count_at[m]);
    std::vector<uint64_t> kept_mask(m, 0);
    std::vector<std::vector<uint64_t>> next_covers(m);
    const auto count_range = [&](size_t begin, size_t end, size_t /*chunk*/) {
      std::vector<uint64_t> scratch;
      for (size_t c = begin; c < end; ++c) {
        const AprioriCandidate& cand = level.candidates[c];
        scratch.clear();
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
          const size_t from = scratch.size();
          scratch.resize(from + words[j]);
          size_t count = 0;
          for (size_t w = 0; w < words[j]; ++w) {
            scratch[from + w] = a[w] & b[w];
            count += static_cast<size_t>(std::popcount(scratch[from + w]));
          }
          counts[at] = count;
          if (count >= thresholds[j]) {
            kept_mask[c] |= uint64_t{1} << j;
          } else {
            scratch.resize(from);
          }
        }
        if (kept_mask[c] != 0) next_covers[c] = scratch;
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
    std::vector<CandAgg> member_agg, member_counted;
    frequent_mask.clear();
    covers.clear();
    for (size_t c = 0; c < m; ++c) {
      if (kept_mask[c] == 0) continue;
      CandAgg a, counted;
      size_t at = count_at[c];
      for (uint64_t bits = mask[c]; bits != 0; bits &= bits - 1, ++at) {
        const size_t j = static_cast<size_t>(std::countr_zero(bits));
        const uint64_t shard_bit =
            shards[j] < kMaxReuseShards ? uint64_t{1} << shards[j] : 0;
        if ((kept_mask[c] >> j) & 1) {
          a.sum += counts[at];
          a.mask |= shard_bit;
          ++local_frequent[j];
        } else {
          counted.sum += counts[at];
          counted.mask |= shard_bit;
        }
      }
      keep[c] = 1;
      member_agg.push_back(a);
      member_counted.push_back(counted);
      frequent_mask.push_back(kept_mask[c]);
      covers.push_back(std::move(next_covers[c]));
    }
    AppendLevel(lattice, level, keep, std::move(member_agg));
    lattice->back().counted = std::move(member_counted);
    return keep;
  }
};

/// Mines the local theories of \p group (at most 64 shards) in one walk
/// and returns their union's lattice; sets each shard's local theory size
/// in \p local_frequent.  The shard fault hook fires inside the walk, at
/// its first level, once per shard.
std::vector<UnionLevel> MineShardGroup(ShardedTransactionDatabase* db,
                                       const std::vector<size_t>& group,
                                       const std::vector<size_t>& attempts,
                                       const std::vector<size_t>& thresholds,
                                       const PartitionOptions& options,
                                       ThreadPool* pool,
                                       std::vector<size_t>* local_frequent) {
  const size_t n = db->num_items();
  ShardGroupKernel kernel{db, group, attempts, options, pool, nullptr};
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
  std::vector<UnionLevel> lattice =
      LatticeRoot(n, root_mask != 0 ? &root : nullptr);
  kernel.lattice = &lattice;
  kernel.frequent_mask = {root_mask};
  kernel.covers.resize(1);
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
  return lattice;
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
  /// Next phase-2 level to confirm (index into lattice).
  size_t next_level = 0;
  /// The candidate union with its reuse state and confirmed flags.
  std::vector<UnionLevel> lattice;
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

/// The member indices of \p level in canonical order.  Members share a
/// size, so this is value order, compared from the top word down over a
/// flat copy of their words.
std::vector<uint32_t> CanonicalMembers(const UnionLevel& level) {
  const size_t count = level.members.size();
  const size_t words = level.sets.empty() ? 0 : level.sets[0].words().size();
  std::vector<uint64_t> keys;
  keys.reserve(count * words);
  for (uint32_t c : level.members) {
    const std::vector<uint64_t>& w = level.sets[c].words();
    keys.insert(keys.end(), w.rbegin(), w.rend());
  }
  std::vector<uint32_t> order(count);
  for (uint32_t i = 0; i < count; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(
        keys.begin() + static_cast<std::ptrdiff_t>(a * words),
        keys.begin() + static_cast<std::ptrdiff_t>((a + 1) * words),
        keys.begin() + static_cast<std::ptrdiff_t>(b * words),
        keys.begin() + static_cast<std::ptrdiff_t>((b + 1) * words));
  });
  return order;
}

/// Both borders of the confirmed theory, read off the lattice: Bd+ holds
/// the confirmed members no confirmed member one level up has as a
/// subset, Bd- the candidates outside the theory whose one-smaller
/// subsets are all confirmed (∅ when ∅ itself is not confirmed).
Borders LatticeBorders(const std::vector<UnionLevel>& lattice) {
  Borders borders;
  for (size_t k = 0; k < lattice.size(); ++k) {
    const UnionLevel& level = lattice[k];
    const size_t positive_from = borders.positive.size();
    const size_t negative_from = borders.negative.size();
    std::vector<uint8_t> extended(level.members.size(), 0);
    if (k + 1 < lattice.size()) {
      const UnionLevel& up = lattice[k + 1];
      for (size_t i = 0; i < up.members.size(); ++i) {
        if (!up.confirmed[i]) continue;
        const uint32_t* sub = up.subsets.data() + up.members[i] * (k + 1);
        for (size_t d = 0; d <= k; ++d) extended[sub[d]] = 1;
      }
    }
    for (size_t i = 0; i < level.members.size(); ++i) {
      if (level.confirmed[i] && !extended[i]) {
        borders.positive.push_back(level.sets[level.members[i]]);
      }
    }
    size_t next_member = 0;
    for (size_t c = 0; c < level.sets.size(); ++c) {
      const bool member = next_member < level.members.size() &&
                          level.members[next_member] == c;
      if (member && level.confirmed[next_member++]) continue;
      bool all_confirmed = true;
      for (size_t d = 0; all_confirmed && d < k; ++d) {
        all_confirmed = lattice[k - 1].confirmed[level.subsets[c * k + d]];
      }
      if (all_confirmed) borders.negative.push_back(level.sets[c]);
    }
    // Level by level, each block sorted by value: the canonical order.
    std::sort(borders.positive.begin() +
                  static_cast<std::ptrdiff_t>(positive_from),
              borders.positive.end());
    std::sort(borders.negative.begin() +
                  static_cast<std::ptrdiff_t>(negative_from),
              borders.negative.end());
  }
  return borders;
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
  // sorted), so the checkpoint bytes are a pure function of the mining
  // state.  The exact-count-reuse state rides along, keyed in the same
  // order, so a resumed run reuses (or re-counts) exactly the candidates
  // the uninterrupted run would have.
  std::vector<Bitset> union_flat;
  std::vector<CandAgg> union_agg;
  for (const UnionLevel& level : state.lattice) {
    for (uint32_t i : CanonicalMembers(level)) {
      union_flat.push_back(level.sets[level.members[i]]);
      union_agg.push_back(level.agg[i]);
    }
  }
  AddSetSection(&cp, "union", union_flat);
  std::vector<CheckpointEntry>* sums = cp.AddSection("union_sums");
  std::vector<CheckpointEntry>* masks = cp.AddSection("union_masks");
  sums->reserve(union_flat.size());
  masks->reserve(union_flat.size());
  for (size_t i = 0; i < union_flat.size(); ++i) {
    sums->push_back({union_flat[i], union_agg[i].sum});
    masks->push_back({union_flat[i], union_agg[i].mask});
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
  result.maximal = LatticeBorders(state->lattice).positive;
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
/// shards that failed, and re-mines only those in later rounds with the
/// policy's seeded backoff.  Each round mines its shards in groups of up
/// to 64 with one walk per group (ShardGroupKernel).  When a group walk
/// throws, its shards are walked again one at a time, so an error stays
/// with the shard that raised it: a shard fails an attempt only when its
/// own walk throws.  CancelledError propagates (phase 1 is discarded
/// whole on cancellation).  Returns false when shards remain failed after
/// max_attempts; those land in result.failed_shards and the run is marked
/// Unavailable.
///
/// With a single walk its lattice is the union's; otherwise the walks'
/// members are merged — sums and presence masks are order-independent —
/// and the lattice is rebuilt from the merged union, which generates the
/// same candidates.
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
  std::vector<std::vector<UnionLevel>> walks;
  // One group walk; false when it throws anything but cancellation.
  const auto mine = [&](const std::vector<size_t>& group) {
    try {
      walks.push_back(MineShardGroup(db, group, attempts,
                                     result.local_thresholds, options, pool,
                                     &result.local_frequent_per_shard));
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
  if (walks.size() == 1) {
    state->lattice = std::move(walks[0]);
  } else {
    std::unordered_map<Bitset, CandAgg, BitsetHash> merged;
    for (const std::vector<UnionLevel>& walk : walks) {
      for (const UnionLevel& level : walk) {
        for (size_t i = 0; i < level.members.size(); ++i) {
          CandAgg& a = merged[level.sets[level.members[i]]];
          a.sum += level.agg[i].sum;
          a.mask |= level.agg[i].mask;
        }
      }
    }
    state->lattice = BuildLattice(merged, state->n);
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
        state.lattice.clear();
        (void)tracker.CheckBoundary();  // probe only: records the trip counter
        return FinishPartial(&state, StopReason::kCancelled);
      }
    }

    // The union of the per-shard frequent families — downward closed
    // (each family is), and by the partition lemma a superset of every
    // globally frequent set (over the surviving shards, when some
    // failed) — is now the lattice's members.
    result.candidate_union_size = 0;
    for (const UnionLevel& level : state.lattice) {
      result.candidate_union_size += level.members.size();
    }
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
  //    in the shards where phase 1 made no count, in parallel over
  //    (candidate, shard) pairs, as the AND of its item covers there.
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
  // Levels past the largest member hold only the union's own border.
  size_t member_levels = 0;
  for (size_t k = 0; k < state.lattice.size(); ++k) {
    if (!state.lattice[k].members.empty()) member_levels = k + 1;
  }
  // One non-empty shard (K = 1, or K > rows with a lone populated shard):
  // its local threshold equals the global one, so the union IS the theory
  // with exact supports already in hand — adopt it wholesale instead of
  // walking the gate.  Fresh runs only; a mid-phase-2 resume keeps the
  // walk so its accounting continues bit-identically.
  if (reuse_enabled && std::popcount(needed_mask) == 1 &&
      state.next_level == 0 && result.frequent.empty() &&
      state.rejected.empty()) {
    if (StopReason r = tracker.CheckBoundary(); r != StopReason::kCompleted) {
      return FinishPartial(&state, r);
    }
    size_t adopted = 0;
    for (UnionLevel& level : state.lattice) {
      for (uint32_t i : CanonicalMembers(level)) {
        HGMINE_DCHECK(level.agg[i].mask == needed_mask);
        level.confirmed[i] = 1;
        result.frequent.push_back({level.sets[level.members[i]],
                                   static_cast<size_t>(level.agg[i].sum)});
        ++adopted;
      }
    }
    result.phase2_reused += adopted;
    HGM_OBS_COUNT("partition.phase2_reused", adopted);
    member_levels = 0;  // nothing left for the walk below
  }
  if (state.next_level < member_levels) db->EnsureVerticalIndexes();
  for (size_t k = state.next_level; k < member_levels; ++k) {
    state.next_level = k;
    if (StopReason r = tracker.CheckBoundary(); r != StopReason::kCompleted) {
      return FinishPartial(&state, r);
    }
    // Candidate selection is pure, so a level interrupted by the budget
    // regenerates identically on resume: the members whose one-smaller
    // subsets were all confirmed, in canonical order.
    UnionLevel& level = state.lattice[k];
    std::vector<uint32_t> batch;
    for (uint32_t i : CanonicalMembers(level)) {
      const uint32_t* sub = level.subsets.data() + level.members[i] * k;
      bool all_subsets_frequent = true;
      for (size_t d = 0; all_subsets_frequent && d < k; ++d) {
        all_subsets_frequent = state.lattice[k - 1].confirmed[sub[d]] != 0;
      }
      if (all_subsets_frequent) batch.push_back(i);
    }
    if (batch.empty()) break;  // no level-k survivors => none above either
    const auto set_of = [&](size_t c) -> const Bitset& {
      return level.sets[level.members[batch[c]]];
    };
    // Split the level into reused and counted candidates; only the
    // counted ones are database passes, so only they meet the budget.
    std::vector<size_t> support(batch.size(), 0);
    std::vector<std::vector<size_t>> shard_cands(num_shards);
    size_t counted = 0;
    for (size_t c = 0; c < batch.size(); ++c) {
      const CandAgg a = level.agg[batch[c]];
      if (reuse_enabled && (a.mask & needed_mask) == needed_mask) {
        support[c] = static_cast<size_t>(a.sum);
        continue;
      }
      ++counted;
      if (reuse_enabled) {
        const CandAgg known_below =
            level.counted.empty() ? CandAgg{} : level.counted[batch[c]];
        support[c] = static_cast<size_t>(a.sum + known_below.sum);
        const uint64_t known_mask = a.mask | known_below.mask;
        for (size_t s = 0; s < num_shards; ++s) {
          const bool known = s < kMaxReuseShards && ((known_mask >> s) & 1) != 0;
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
      // Count every (candidate, shard) pair concurrently (charged to the
      // budget as `counted` above): the AND of the candidate's item
      // covers over the shard's rows.
      std::vector<std::pair<size_t, size_t>> tasks;  // (candidate, shard)
      for (size_t s = 0; s < num_shards; ++s) {
        for (size_t c : shard_cands[s]) tasks.push_back({c, s});
      }
      std::vector<size_t> partial(tasks.size(), 0);
      const auto count = [&](size_t begin, size_t end, size_t /*chunk*/) {
        std::vector<uint64_t> scratch;
        for (size_t t = begin; t < end; ++t) {
          partial[t] = ItemCoverCount(db->shard(tasks[t].second),
                                      set_of(tasks[t].first), &scratch);
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
    result.phase2_evaluations += counted;
    result.phase2_reused += batch.size() - counted;
    tracker.ChargeQueries(counted);
    HGM_OBS_COUNT("partition.phase2_candidates", counted);
    HGM_OBS_COUNT("partition.phase2_reused", batch.size() - counted);
    for (size_t c = 0; c < batch.size(); ++c) {
      if (support[c] >= state.min_support) {
        level.confirmed[batch[c]] = 1;
        result.frequent.push_back({set_of(c), support[c]});
      } else {
        ++result.phase2_rejected;
        state.rejected.push_back(set_of(c));
      }
    }
  }
  HGM_OBS_COUNT("partition.phase2_rejected", result.phase2_rejected);
  // Levels in order, each in canonical order: result.frequent is sorted.

  // Both borders of the confirmed theory, read off the lattice.  Bd+ is
  // empty and Bd- = {∅} when even ∅ failed (Apriori's early-out shape).
  // Phase 2 itself only counts the minimal infrequent sets that were
  // locally frequent somewhere; the rest of Bd- is the union's own
  // border.  --exact-border swaps in the Theorem 7 route, which produces
  // the identical family.
  Borders borders = LatticeBorders(state.lattice);
  result.maximal = std::move(borders.positive);
  if (!options.border_via_transversals) {
    result.negative_border = std::move(borders.negative);
  } else {
    BergeTransversals berge;
    result.negative_border =
        NegativeBorderViaTransversals(result.maximal, n, &berge);
    CanonicalSort(&result.negative_border);
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
  std::unordered_map<Bitset, CandAgg, BitsetHash> agg;
  for (const Bitset& x : union_flat) agg.emplace(x, CandAgg{});
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
    for (const CheckpointEntry& e : *sums) agg[e.items].sum = e.value;
    for (const CheckpointEntry& e : *masks) agg[e.items].mask = e.value;
  }
  state.lattice = BuildLattice(agg, state.n);

  if (const std::vector<CheckpointEntry>* conf =
          checkpoint.FindSection("confirmed")) {
    // Member position of every union set, to restore the confirmed flags.
    std::unordered_map<Bitset, std::pair<size_t, size_t>, BitsetHash> where;
    for (size_t k = 0; k < state.lattice.size(); ++k) {
      const UnionLevel& level = state.lattice[k];
      for (size_t i = 0; i < level.members.size(); ++i) {
        where.emplace(level.sets[level.members[i]], std::make_pair(k, i));
      }
    }
    result.frequent.reserve(conf->size());
    for (const CheckpointEntry& e : *conf) {
      if (e.items.size() != state.n) {
        return Status::InvalidArgument(
            "confirmed entry width does not match the checkpoint width");
      }
      const auto it = where.find(e.items);
      if (it == where.end()) {
        return Status::InvalidArgument(
            "partition checkpoint confirms a set outside its candidate "
            "union");
      }
      state.lattice[it->second.first].confirmed[it->second.second] = 1;
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
