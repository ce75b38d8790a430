#include "mining/apriori.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>
#include <utility>

#include "common/apriori_gen.h"
#include "core/audit.h"
#include "core/theory.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace hgm {

namespace {

void SortFrequent(std::vector<FrequentItemset>* frequent) {
  std::sort(frequent->begin(), frequent->end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              size_t ca = a.items.Count(), cb = b.items.Count();
              if (ca != cb) return ca < cb;
              return a.items < b.items;
            });
}

/// Mutable miner state at a level boundary.
struct AprioriState {
  AprioriResult result;         // accumulating (unsorted) output
  std::vector<ItemVec> level;   // frequent sets of size next_level - 1
  std::vector<Bitset> covers;   // covers[i]: rows containing level[i]
  std::vector<Bitset> maximal;  // no frequent superset found yet
  /// Size of the candidate sets to count next; 1 means the item scan is
  /// still pending (frontier empty), k >= 2 means k-sets are pending.
  size_t next_level = 1;
  size_t min_support = 0;
  bool record_all = true;
};

/// Freezes \p state into a kind="apriori" checkpoint.  Covers are not
/// stored — resume rebuilds them from the database.
Checkpoint MakeAprioriCheckpoint(const AprioriState& state, size_t n) {
  Checkpoint cp;
  cp.kind = "apriori";
  cp.width = n;
  cp.SetScalar("next_level", state.next_level);
  cp.SetScalar("support_counts", state.result.support_counts);
  cp.SetScalar("min_support", state.min_support);
  cp.SetScalar("record_all", state.record_all ? 1 : 0);
  std::vector<CheckpointEntry>* frontier = cp.AddSection("frontier");
  frontier->reserve(state.level.size());
  for (size_t i = 0; i < state.level.size(); ++i) {
    frontier->push_back(
        {Bitset::FromIndices(n, state.level[i]), state.covers[i].Count()});
  }
  AddSetSection(&cp, "maximal", state.maximal);
  AddSetSection(&cp, "negative_border", state.result.negative_border);
  if (state.record_all) {
    std::vector<CheckpointEntry>* freq = cp.AddSection("frequent");
    freq->reserve(state.result.frequent.size());
    for (const FrequentItemset& f : state.result.frequent) {
      freq->push_back({f.items, f.support});
    }
  }
  AddCountSection(&cp, "candidates_per_level",
                  state.result.candidates_per_level);
  AddCountSection(&cp, "frequent_per_level", state.result.frequent_per_level);
  return cp;
}

/// Certified partial result for a budget trip at the boundary of level
/// `state.next_level`.
AprioriResult FinishPartial(AprioriState&& state, size_t n,
                            StopReason reason) {
  // Freeze the checkpoint before any move empties the state's containers.
  Checkpoint cp = MakeAprioriCheckpoint(state, n);
  AprioriResult result = std::move(state.result);
  result.stop_reason = reason;
  result.checkpoint = std::move(cp);
  std::vector<Bitset> maximal = std::move(state.maximal);
  for (const ItemVec& items : state.level) {
    maximal.push_back(Bitset::FromIndices(n, items));
  }
  // A pre-item-scan trip knows only that ∅ is frequent.
  if (maximal.empty() && !result.frequent_per_level.empty() &&
      result.frequent_per_level[0] == 1) {
    maximal.push_back(Bitset(n));
  }
  AntichainMaximize(&maximal);
  CanonicalSort(&maximal);
  result.maximal = std::move(maximal);
  CanonicalSort(&result.negative_border);
  SortFrequent(&result.frequent);
  if (audit::kEnabled) {
    audit::AuditAntichain(result.maximal, "apriori partial Bd+");
    audit::AuditAntichain(result.negative_border, "apriori partial Bd-");
  }
  return result;
}

/// The item scan, the level loop, and the finishing passes, shared by
/// fresh and resumed runs.  Consumes \p state; on entry level 0 has been
/// handled (∅ is frequent, or the run already returned complete).
AprioriResult RunAprioriLevels(TransactionDatabase* db,
                               const AprioriOptions& options,
                               AprioriState&& state) {
  const size_t n = db->num_items();
  const size_t min_support = state.min_support;
  ThreadPool* pool = PoolOrGlobal(options.pool);
  AprioriResult& result = state.result;
  BudgetTracker tracker(options.budget, result.support_counts);

  std::vector<ItemVec>& level = state.level;
  std::vector<Bitset>& covers = state.covers;
  std::vector<Bitset>& maximal = state.maximal;

  // Level 1: items.
  if (state.next_level == 1) {
    StopReason pre =
        tracker.CheckBeforeBatch(n, uint64_t{n} * ((n + 7) / 8));
    if (pre != StopReason::kCompleted) {
      return FinishPartial(std::move(state), n, pre);
    }
    obs::TraceSpan level_span("apriori.level", "mining",
                              {{"level", 1}, {"candidates", n}});
    obs::FlightRecorder::Global().Record(obs::FlightEventType::kLevel,
                                         "apriori.level", 1,
                                         static_cast<int64_t>(n));
    result.candidates_per_level.push_back(n);
    tracker.ChargeQueries(n);
    size_t kept = 0;
    for (size_t item = 0; item < n; ++item) {
      ++result.support_counts;
      Bitset cover = db->ItemCover(item);
      size_t support = cover.Count();
      Bitset x = Bitset::Singleton(n, item);
      if (support >= min_support) {
        level.push_back(ItemVec{static_cast<uint32_t>(item)});
        covers.push_back(std::move(cover));
        ++kept;
        if (state.record_all) result.frequent.push_back({x, support});
      } else {
        result.negative_border.push_back(x);
      }
    }
    result.frequent_per_level.push_back(kept);
    HGM_OBS_COUNT("apriori.candidates", n);
    HGM_OBS_COUNT("apriori.frequent", kept);
    level_span.AddArg("frequent", kept);
    if (options.compute_maximal && level.empty()) {
      maximal.push_back(Bitset(n));  // ∅ is maximal
    }
    state.next_level = 2;
  }

  // Levels k -> k+1.
  for (size_t k = state.next_level - 1;
       !level.empty() && k < options.max_level; ++k) {
    state.next_level = k + 1;
    // Checkpointable boundary: level k+1 has left no trace yet.
    StopReason boundary = tracker.CheckBoundary();
    if (boundary != StopReason::kCompleted) {
      return FinishPartial(std::move(state), n, boundary);
    }
    obs::TraceSpan level_span("apriori.level", "mining",
                              {{"level", k + 1}});
    obs::FlightRecorder::Global().Record(
        obs::FlightEventType::kLevel, "apriori.level",
        static_cast<int64_t>(k + 1), static_cast<int64_t>(level.size()));
    (void)obs::SampleMemory();
    // Membership set for the prune step.
    std::unordered_set<Bitset, BitsetHash> level_set;
    for (const ItemVec& items : level) {
      level_set.insert(Bitset::FromIndices(n, items));
    }
    // Join + prune; each candidate keeps its two join parents' indices.
    std::vector<AprioriCandidate> candidates =
        AprioriGen(level, level_set, n);

    // Pre-batch budget check: the join is pure, so a trip here discards
    // the candidates and the resumed run regenerates them bit-identically.
    StopReason pre = tracker.CheckBeforeBatch(
        candidates.size(), uint64_t{candidates.size()} * ((n + 7) / 8));
    if (pre != StopReason::kCompleted) {
      return FinishPartial(std::move(state), n, pre);
    }

    // Count the level as one parallel batch: each candidate ANDs its two
    // join parents' covers into its own slot, so the result is the same at
    // any thread count.
    std::vector<size_t> supports(candidates.size(), 0);
    std::vector<Bitset> cand_covers(candidates.size());
    pool->ParallelFor(
        candidates.size(), [&](size_t begin, size_t end, size_t) {
          for (size_t c = begin; c < end; ++c) {
            cand_covers[c] = covers[candidates[c].parent_i] &
                             covers[candidates[c].parent_j];
            supports[c] = cand_covers[c].Count();
          }
        });
    result.support_counts += candidates.size();
    tracker.ChargeQueries(candidates.size());

    std::vector<ItemVec> next;
    std::vector<Bitset> next_covers;
    std::vector<uint8_t> extended(level.size(), 0);
    for (size_t c = 0; c < candidates.size(); ++c) {
      Bitset x = Bitset::FromIndices(n, candidates[c].items);
      if (supports[c] >= min_support) {
        extended[candidates[c].parent_i] = 1;
        extended[candidates[c].parent_j] = 1;
        if (state.record_all) {
          result.frequent.push_back({x, supports[c]});
        }
        next.push_back(std::move(candidates[c].items));
        next_covers.push_back(std::move(cand_covers[c]));
      } else {
        result.negative_border.push_back(std::move(x));
      }
    }
    result.candidates_per_level.push_back(candidates.size());
    result.frequent_per_level.push_back(next.size());
    HGM_OBS_COUNT("apriori.candidates", candidates.size());
    HGM_OBS_COUNT("apriori.frequent", next.size());
    HGM_OBS_OBSERVE("apriori.level_candidates", candidates.size());
    level_span.AddArg("candidates", candidates.size());
    level_span.AddArg("frequent", next.size());

    // Maximality: a frequent k-set is maximal iff no frequent
    // (k+1)-superset exists.  The join marks only the two parents, so
    // finish with a subset sweep for correctness.
    if (options.compute_maximal) {
      for (size_t i = 0; i < level.size(); ++i) {
        if (extended[i]) continue;
        Bitset x = Bitset::FromIndices(n, level[i]);
        bool covered = false;
        for (const ItemVec& items : next) {
          if (x.IsSubsetOf(Bitset::FromIndices(n, items))) {
            covered = true;
            break;
          }
        }
        if (!covered) maximal.push_back(std::move(x));
      }
    }
    level = std::move(next);
    covers = std::move(next_covers);
  }
  // Sets remaining when the loop exits via the max_level cap are maximal
  // within the truncated lattice.
  if (options.compute_maximal) {
    for (const ItemVec& items : level) {
      maximal.push_back(Bitset::FromIndices(n, items));
    }
    AntichainMaximize(&maximal);
    CanonicalSort(&maximal);
  }
  AprioriResult out = std::move(result);
  out.maximal = std::move(maximal);
  CanonicalSort(&out.negative_border);
  SortFrequent(&out.frequent);
  HGM_OBS_COUNT("apriori.support_counts", out.support_counts);
  return out;
}

}  // namespace

AprioriResult MineFrequentSets(TransactionDatabase* db, size_t min_support,
                               const AprioriOptions& options) {
  const size_t n = db->num_items();
  const size_t num_rows = db->num_transactions();
  HGM_OBS_COUNT("apriori.runs", 1);
  obs::TraceSpan run_span("apriori.run", "mining",
                          {{"items", n}, {"rows", num_rows}});

  AprioriState state;
  state.min_support = min_support;
  state.record_all = options.record_all;
  AprioriResult& result = state.result;

  // Level 0: the empty itemset.
  ++result.support_counts;
  result.candidates_per_level.push_back(1);
  if (num_rows < min_support) {
    result.negative_border.push_back(Bitset(n));
    result.frequent_per_level.push_back(0);
    return std::move(result);
  }
  result.frequent_per_level.push_back(1);
  if (options.record_all) {
    result.frequent.push_back({Bitset(n), num_rows});
  }

  AprioriResult out = RunAprioriLevels(db, options, std::move(state));
  run_span.AddArg("support_counts", out.support_counts);
  run_span.AddArg("maximal", out.maximal.size());
  return out;
}

Result<AprioriResult> ResumeFrequentSets(TransactionDatabase* db,
                                         const Checkpoint& checkpoint,
                                         const AprioriOptions& options) {
  const size_t n = db->num_items();
  if (checkpoint.kind != "apriori") {
    return Status::InvalidArgument("checkpoint kind '" + checkpoint.kind +
                                   "' is not 'apriori'");
  }
  if (checkpoint.width != n) {
    return Status::InvalidArgument(
        "checkpoint width " + std::to_string(checkpoint.width) +
        " does not match the database's " + std::to_string(n) + " items");
  }
  HGM_OBS_COUNT("apriori.runs", 1);
  obs::TraceSpan run_span("apriori.resume", "mining", {{"items", n}});

  AprioriState state;
  uint64_t v = 0;
  if (!checkpoint.GetScalar("next_level", &v) || v == 0) {
    return Status::InvalidArgument("apriori checkpoint missing next_level");
  }
  state.next_level = static_cast<size_t>(v);
  if (!checkpoint.GetScalar("min_support", &v)) {
    return Status::InvalidArgument("apriori checkpoint missing min_support");
  }
  state.min_support = static_cast<size_t>(v);
  if (checkpoint.GetScalar("support_counts", &v)) {
    state.result.support_counts = v;
  }
  state.record_all = checkpoint.GetScalar("record_all", &v) ? v != 0 : true;

  const std::vector<CheckpointEntry>* frontier =
      checkpoint.FindSection("frontier");
  if (frontier != nullptr) {
    state.level.reserve(frontier->size());
    state.covers.reserve(frontier->size());
    for (const CheckpointEntry& e : *frontier) {
      if (e.items.size() != n) {
        return Status::InvalidArgument(
            "apriori checkpoint frontier width mismatch");
      }
      if (e.items.Count() + 1 != state.next_level) {
        return Status::InvalidArgument(
            "apriori checkpoint frontier set of size " +
            std::to_string(e.items.Count()) + " ahead of level " +
            std::to_string(state.next_level));
      }
      ItemVec items;
      for (size_t i : e.items.Indices()) {
        items.push_back(static_cast<uint32_t>(i));
      }
      // Rebuild the cover from the database (covers are not
      // checkpointed); these reads are not support computations, so the
      // query tally stays bit-identical to an uninterrupted run.
      Bitset cover;
      bool first = true;
      for (uint32_t item : items) {
        cover = first ? db->ItemCover(item) : (cover & db->ItemCover(item));
        first = false;
      }
      state.level.push_back(std::move(items));
      state.covers.push_back(std::move(cover));
    }
  }
  Status s = ReadSetSection(checkpoint, "maximal", n, &state.maximal);
  if (!s.ok()) return s;
  s = ReadSetSection(checkpoint, "negative_border", n,
                     &state.result.negative_border);
  if (!s.ok()) return s;
  if (state.record_all) {
    const std::vector<CheckpointEntry>* freq =
        checkpoint.FindSection("frequent");
    if (freq != nullptr) {
      state.result.frequent.reserve(freq->size());
      for (const CheckpointEntry& e : *freq) {
        if (e.items.size() != n) {
          return Status::InvalidArgument(
              "apriori checkpoint frequent width mismatch");
        }
        state.result.frequent.push_back(
            {e.items, static_cast<size_t>(e.value)});
      }
    }
  }
  s = ReadCountSection(checkpoint, "candidates_per_level",
                       &state.result.candidates_per_level);
  if (!s.ok()) return s;
  s = ReadCountSection(checkpoint, "frequent_per_level",
                       &state.result.frequent_per_level);
  if (!s.ok()) return s;

  AprioriResult out = RunAprioriLevels(db, options, std::move(state));
  run_span.AddArg("support_counts", out.support_counts);
  run_span.AddArg("maximal", out.maximal.size());
  return out;
}

PartialTheory AsPartialTheory(const AprioriResult& result) {
  PartialTheory partial;
  partial.stop_reason = result.stop_reason;
  partial.theory.reserve(result.frequent.size());
  for (const FrequentItemset& f : result.frequent) {
    partial.theory.push_back(f.items);
  }
  partial.positive_border = result.maximal;
  partial.negative_border = result.negative_border;
  partial.queries = result.support_counts;
  if (result.checkpoint) partial.checkpoint = *result.checkpoint;
  return partial;
}

AprioriResult MineFrequentSetsBrute(TransactionDatabase* db,
                                    size_t min_support) {
  const size_t n = db->num_items();
  assert(n <= 20 && "brute-force mining needs small n");
  AprioriResult result;
  std::vector<Bitset> frequent_sets;
  std::vector<Bitset> infrequent;
  const uint64_t limit = uint64_t{1} << n;
  for (uint64_t mask = 0; mask < limit; ++mask) {
    Bitset x(n);
    for (size_t v = 0; v < n; ++v) {
      if ((mask >> v) & 1) x.Set(v);
    }
    ++result.support_counts;
    size_t support = db->Support(x);
    if (support >= min_support) {
      result.frequent.push_back({x, support});
      frequent_sets.push_back(std::move(x));
    } else {
      infrequent.push_back(std::move(x));
    }
  }
  result.maximal = frequent_sets;
  AntichainMaximize(&result.maximal);
  CanonicalSort(&result.maximal);
  AntichainMinimize(&infrequent);
  CanonicalSort(&infrequent);
  result.negative_border = std::move(infrequent);
  SortFrequent(&result.frequent);
  return result;
}

}  // namespace hgm
