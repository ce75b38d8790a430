#include "mining/apriori.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

#include "common/level_loop.h"
#include "core/audit.h"
#include "core/theory.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hgm {

void SortFrequent(std::vector<FrequentItemset>* frequent) {
  auto less = [](const FrequentItemset& a, const FrequentItemset& b) {
    return CanonicalLess(a.items, b.items);
  };
  // Partition's phase 2 confirms the theory already in this order.
  if (std::is_sorted(frequent->begin(), frequent->end(), less)) return;
  std::sort(frequent->begin(), frequent->end(), less);
}

namespace {

/// Mutable miner state at a level boundary.  The frontier, both borders
/// and the per-level tallies accumulate in `walk`; walk.size + 1 is the
/// size of the candidate sets to count next (1: the item scan is still
/// pending and the frontier is {∅}).
struct AprioriState {
  AprioriResult result;        // accumulating (unsorted) output
  LevelWalk walk;
  std::vector<Bitset> covers;  // covers[i]: rows containing frontier[i]
  size_t min_support = 0;
  bool record_all = true;
};

/// The counting kernel: item covers at level 1, then each candidate's
/// cover is the AND of its two join parents' covers, one parallel batch
/// per level.  Every candidate writes its own slot, so the result is the
/// same at any thread count.
struct CoverKernel {
  TransactionDatabase* db;
  ThreadPool* pool;
  AprioriState* state;

  std::vector<uint8_t> Evaluate(const CandidateLevel& level) {
    const size_t m = level.candidates.size();
    const size_t min_support = state->min_support;
    const std::vector<Bitset>& covers = state->covers;
    // Only kept candidates get a cover: a rejected one is counted without
    // materializing its own, so a level holds no more covers than the
    // next level needs.
    std::vector<size_t> supports(m, 0);
    std::vector<Bitset> cand_covers(m);
    if (level.size == 1) {
      for (size_t c = 0; c < m; ++c) {
        Bitset cover = db->ItemCover(level.candidates[c].items[0]);
        supports[c] = cover.Count();
        if (supports[c] >= min_support) cand_covers[c] = std::move(cover);
      }
    } else {
      pool->ParallelFor(m, [&](size_t begin, size_t end, size_t) {
        for (size_t c = begin; c < end; ++c) {
          const Bitset& a = covers[level.candidates[c].parent_i];
          const Bitset& b = covers[level.candidates[c].parent_j];
          supports[c] = a.IntersectionCount(b);
          if (supports[c] >= min_support) cand_covers[c] = a & b;
        }
      });
    }
    state->result.support_counts += m;

    std::vector<uint8_t> keep(m, 0);
    std::vector<Bitset> next_covers;
    for (size_t c = 0; c < m; ++c) {
      if (supports[c] < min_support) continue;
      keep[c] = 1;
      if (state->record_all) {
        state->result.frequent.push_back({level.sets[c], supports[c]});
      }
      next_covers.push_back(std::move(cand_covers[c]));
    }
    // The kept candidates become the next frontier in this order.
    state->covers = std::move(next_covers);
    return keep;
  }
};

/// Freezes \p state into a kind="apriori" checkpoint.  Covers are not
/// stored — resume rebuilds them from the database.
Checkpoint MakeAprioriCheckpoint(const AprioriState& state, size_t n) {
  const LevelWalk& walk = state.walk;
  Checkpoint cp;
  cp.kind = "apriori";
  cp.width = n;
  cp.SetScalar("next_level", walk.size + 1);
  cp.SetScalar("support_counts", state.result.support_counts);
  cp.SetScalar("min_support", state.min_support);
  cp.SetScalar("record_all", state.record_all ? 1 : 0);
  std::vector<CheckpointEntry>* frontier = cp.AddSection("frontier");
  // Before the item scan the frontier is {∅}, which the format leaves
  // implicit.
  if (walk.size > 0) {
    frontier->reserve(walk.frontier.size());
    for (size_t i = 0; i < walk.frontier.size(); ++i) {
      frontier->push_back({Bitset::FromIndices(n, walk.frontier[i]),
                           state.covers[i].Count()});
    }
  }
  AddSetSection(&cp, "maximal", walk.maximal);
  AddSetSection(&cp, "negative_border", walk.negative);
  if (state.record_all) {
    std::vector<CheckpointEntry>* freq = cp.AddSection("frequent");
    freq->reserve(state.result.frequent.size());
    for (const FrequentItemset& f : state.result.frequent) {
      freq->push_back({f.items, f.support});
    }
  }
  AddCountSection(&cp, "candidates_per_level", walk.candidates_per_level);
  AddCountSection(&cp, "frequent_per_level", walk.kept_per_level);
  return cp;
}

/// The level loop and the finishing passes, shared by fresh and resumed
/// runs.  Consumes \p state; on entry level 0 has been handled (∅ is
/// frequent, or the run already returned complete).  A budget trip
/// returns the certified completed-level prefix (frequent sets with exact
/// supports, antichain borders), resumable from its checkpoint.
AprioriResult RunAprioriLevels(TransactionDatabase* db,
                               const AprioriOptions& options,
                               AprioriState&& state) {
  const size_t n = db->num_items();
  BudgetTracker tracker(options.budget, state.result.support_counts);
  LevelLoopOptions loop;
  loop.num_items = n;
  // The item scan runs even under a zero level cap.
  loop.max_size = std::max<size_t>(options.max_level, 1);
  loop.tracker = &tracker;
  loop.track_maximal = options.compute_maximal;
  loop.names = {.span = "apriori.level",
                .category = "mining",
                .flight = "apriori.level",
                .candidates = "apriori.candidates",
                .kept = "apriori.frequent",
                .level_candidates = "apriori.level_candidates",
                .kept_arg = "frequent",
                .sample_memory = true};
  CoverKernel kernel{db, PoolOrGlobal(options.pool), &state};
  const StopReason stop = RunLevelLoop(&state.walk, kernel, loop);

  // A tripped run freezes its checkpoint before any move empties the walk.
  std::optional<Checkpoint> cp;
  if (stop != StopReason::kCompleted) cp = MakeAprioriCheckpoint(state, n);
  LevelWalk& walk = state.walk;
  AprioriResult out = std::move(state.result);
  out.stop_reason = stop;
  out.checkpoint = std::move(cp);
  // Sets remaining in the frontier when the loop stops early (a trip or
  // the max_level cap) are maximal within the truncated lattice.
  if (options.compute_maximal || stop != StopReason::kCompleted) {
    out.maximal = walk.PositiveBorderSoFar(n);
  }
  out.negative_border = walk.TakeNegativeBorder();
  SortFrequent(&out.frequent);
  out.candidates_per_level = std::move(walk.candidates_per_level);
  out.frequent_per_level = std::move(walk.kept_per_level);
  if (stop != StopReason::kCompleted) {
    if (audit::kEnabled) {
      audit::AuditAntichain(out.maximal, "apriori partial Bd+");
      audit::AuditAntichain(out.negative_border, "apriori partial Bd-");
    }
    return out;
  }
  // Charged once per completed run: a resumed run's tally already
  // includes the counts made before its trip.
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
  const bool frequent = num_rows >= min_support;
  state.walk = LevelWalk::AfterEmptySet(frequent, n);
  state.walk.candidates_per_level.push_back(1);
  state.walk.kept_per_level.push_back(frequent ? 1 : 0);
  if (frequent && options.record_all) {
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
  LevelWalk& walk = state.walk;
  uint64_t v = 0;
  if (!checkpoint.GetScalar("next_level", &v) || v == 0) {
    return Status::InvalidArgument("apriori checkpoint missing next_level");
  }
  walk.size = static_cast<size_t>(v) - 1;
  if (!checkpoint.GetScalar("min_support", &v)) {
    return Status::InvalidArgument("apriori checkpoint missing min_support");
  }
  state.min_support = static_cast<size_t>(v);
  if (checkpoint.GetScalar("support_counts", &v)) {
    state.result.support_counts = v;
  }
  state.record_all = checkpoint.GetScalar("record_all", &v) ? v != 0 : true;

  // Before the item scan the frontier is {∅}, which the format leaves
  // implicit.
  std::vector<Bitset> frontier;
  Status s = ReadSetSection(checkpoint, "frontier", n, &frontier);
  if (!s.ok()) return s;
  if (walk.size == 0 ? !frontier.empty() : !walk.SetFrontier(frontier)) {
    return Status::InvalidArgument(
        "apriori checkpoint frontier does not match level " +
        std::to_string(walk.size + 1));
  }
  // Rebuild the covers from the database (they are not checkpointed);
  // these reads are not support computations, so the query tally stays
  // bit-identical to an uninterrupted run.
  for (size_t i = 0; walk.size > 0 && i < walk.frontier.size(); ++i) {
    Bitset cover = db->ItemCover(walk.frontier[i][0]);
    for (uint32_t item : walk.frontier[i]) cover &= db->ItemCover(item);
    state.covers.push_back(std::move(cover));
  }
  s = ReadSetSection(checkpoint, "maximal", n, &walk.maximal);
  if (!s.ok()) return s;
  s = ReadSetSection(checkpoint, "negative_border", n, &walk.negative);
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
                       &walk.candidates_per_level);
  if (!s.ok()) return s;
  s = ReadCountSection(checkpoint, "frequent_per_level",
                       &walk.kept_per_level);
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
