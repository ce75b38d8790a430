#include "core/levelwise.h"

#include <algorithm>
#include <unordered_set>

#include "common/apriori_gen.h"
#include "core/audit.h"
#include "core/theory.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace hgm {

namespace {

/// Publishes the run's Theorem 10 / Corollary 13 quantities as gauges so
/// obs::LevelwiseBoundReportFromRegistry can compute bound ratios without
/// holding the result struct.
void PublishLevelwiseGauges(const LevelwiseResult& result, size_t n) {
  if (!obs::MetricsOn()) return;
  size_t rank = 0;
  for (const Bitset& m : result.positive_border) {
    rank = std::max(rank, m.Count());
  }
  uint64_t interesting = 0;
  for (size_t c : result.interesting_per_level) interesting += c;
  HGM_OBS_GAUGE_SET("levelwise.last_queries", result.queries);
  HGM_OBS_GAUGE_SET("levelwise.last_theory_size", interesting);
  HGM_OBS_GAUGE_SET("levelwise.last_positive_border",
                    result.positive_border.size());
  HGM_OBS_GAUGE_SET("levelwise.last_negative_border",
                    result.negative_border.size());
  HGM_OBS_GAUGE_SET("levelwise.last_rank", rank);
  HGM_OBS_GAUGE_SET("levelwise.last_width", n);
}

/// Mutable algorithm state at a level boundary — everything a checkpoint
/// must capture for the resumed run to be bit-identical.
struct LevelwiseState {
  LevelwiseResult result;               // accumulating (unsorted) output
  std::vector<ItemVec> level;           // interesting sets of size `next_level`
  std::vector<Bitset> maximal_candidates;  // no interesting successor yet
  size_t next_level = 0;                // loop index k to run next
  bool record_theory = true;
};

/// Freezes \p state into a kind="levelwise" checkpoint.
Checkpoint MakeLevelwiseCheckpoint(const LevelwiseState& state, size_t n) {
  Checkpoint cp;
  cp.kind = "levelwise";
  cp.width = n;
  cp.SetScalar("next_level", state.next_level);
  cp.SetScalar("queries", state.result.queries);
  cp.SetScalar("candidates", state.result.candidates);
  cp.SetScalar("levels", state.result.levels);
  cp.SetScalar("record_theory", state.record_theory ? 1 : 0);
  std::vector<Bitset> frontier;
  frontier.reserve(state.level.size());
  for (const ItemVec& s : state.level) {
    frontier.push_back(Bitset::FromIndices(n, s));
  }
  AddSetSection(&cp, "frontier", frontier);
  AddSetSection(&cp, "maximal", state.maximal_candidates);
  AddSetSection(&cp, "negative_border", state.result.negative_border);
  if (state.record_theory) {
    AddSetSection(&cp, "theory", state.result.theory);
  }
  AddCountSection(&cp, "candidates_per_level",
                  state.result.candidates_per_level);
  AddCountSection(&cp, "interesting_per_level",
                  state.result.interesting_per_level);
  return cp;
}

/// Builds the certified partial result for a budget trip at the boundary
/// of level `state.next_level`: the frontier joins the accumulated
/// maximal candidates to form the prefix's positive border.
LevelwiseResult FinishPartial(LevelwiseState&& state, size_t n,
                              StopReason reason) {
  // Freeze the checkpoint before any move empties the state's containers.
  Checkpoint cp = MakeLevelwiseCheckpoint(state, n);
  LevelwiseResult result = std::move(state.result);
  result.stop_reason = reason;
  result.checkpoint = std::move(cp);
  std::vector<Bitset> maximal = std::move(state.maximal_candidates);
  for (const ItemVec& s : state.level) {
    maximal.push_back(Bitset::FromIndices(n, s));
  }
  AntichainMaximize(&maximal);
  CanonicalSort(&maximal);
  result.positive_border = std::move(maximal);
  CanonicalSort(&result.negative_border);
  if (state.record_theory) CanonicalSort(&result.theory);
  if (audit::kEnabled) {
    // The prefix contracts: both borders are antichains (duality only
    // holds for complete theories, so that cross-check is skipped).
    audit::AuditAntichain(result.positive_border, "levelwise partial Bd+");
    audit::AuditAntichain(result.negative_border, "levelwise partial Bd-");
  }
  PublishLevelwiseGauges(result, n);
  return result;
}

/// The level loop plus the finishing passes, shared by fresh and resumed
/// runs.  Consumes \p state.
LevelwiseResult RunLevels(InterestingnessOracle* oracle,
                          const LevelwiseOptions& options,
                          LevelwiseState&& state) {
  const size_t n = oracle->num_items();
  BudgetTracker tracker(options.budget, state.result.queries);

  std::unordered_set<Bitset, BitsetHash> level_set;
  for (size_t k = state.next_level;
       !state.level.empty() && k < options.max_level; ++k) {
    state.next_level = k;
    // Checkpointable boundary: nothing of level k has been recorded yet,
    // so a trip here resumes by re-entering the loop at k exactly.
    StopReason boundary = tracker.CheckBoundary();
    if (boundary != StopReason::kCompleted) {
      return FinishPartial(std::move(state), n, boundary);
    }
    obs::TraceSpan level_span("levelwise.level", "core", {{"level", k + 1}});
    obs::FlightRecorder::Global().Record(
        obs::FlightEventType::kLevel, "levelwise.level",
        static_cast<int64_t>(k + 1),
        static_cast<int64_t>(state.level.size()));
    (void)obs::SampleMemory();
    std::vector<AprioriCandidate> candidates;
    if (k == 0) {
      candidates = SingletonCandidates(n);
    } else {
      level_set.clear();
      for (const auto& s : state.level) {
        level_set.insert(Bitset::FromIndices(n, s));
      }
      candidates = AprioriGen(state.level, level_set, n);
    }

    // Step 4 of Algorithm 9: evaluate the whole level C_l as one batch —
    // the queries are mutually independent, so a parallel oracle may
    // answer them concurrently.  A batch of size m charges exactly m
    // queries, keeping Theorem 10's |Th| + |Bd-| accounting exact.
    std::vector<Bitset> batch;
    batch.reserve(candidates.size());
    uint64_t batch_bytes = 0;
    for (const AprioriCandidate& cand : candidates) {
      batch.push_back(Bitset::FromIndices(n, cand.items));
      batch_bytes += (n + 7) / 8;
    }
    // Pre-batch budget check: candidate generation touched no data, so a
    // trip here discards the candidates and the resumed run regenerates
    // them bit-identically; no counter has advanced.
    StopReason pre = tracker.CheckBeforeBatch(batch.size(), batch_bytes);
    if (pre != StopReason::kCompleted) {
      return FinishPartial(std::move(state), n, pre);
    }

    LevelwiseResult& result = state.result;
    result.levels = k + 1;
    result.candidates += candidates.size();
    result.candidates_per_level.push_back(candidates.size());
    HGM_OBS_COUNT("levelwise.candidates", candidates.size());
    HGM_OBS_OBSERVE("levelwise.level_candidates", candidates.size());
    result.queries += batch.size();
    tracker.ChargeQueries(batch.size());
    HGM_OBS_COUNT("levelwise.queries", batch.size());
    std::vector<uint8_t> verdicts = oracle->EvaluateBatch(batch);

    std::vector<ItemVec> next;
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (verdicts[c]) {
        if (state.record_theory) result.theory.push_back(batch[c]);
        next.push_back(std::move(candidates[c].items));
      } else {
        result.negative_border.push_back(std::move(batch[c]));
      }
    }
    result.interesting_per_level.push_back(next.size());
    HGM_OBS_COUNT("levelwise.interesting", next.size());
    level_span.AddArg("candidates", candidates.size());
    level_span.AddArg("interesting", next.size());
    level_span.AddArg("border_growth", result.negative_border.size());

    // An interesting k-set is maximal iff it has no interesting
    // (k+1)-superset; apriori-gen completeness guarantees every interesting
    // (k+1)-set appears in `next`, so diffing against it is exact.
    std::vector<Bitset> next_sets;
    next_sets.reserve(next.size());
    for (const auto& s : next) {
      next_sets.push_back(Bitset::FromIndices(n, s));
    }
    if (audit::kEnabled) {
      // Frontier contract behind Theorem 10: every interesting (k+1)-set
      // extends only interesting k-sets (the theory is downward closed).
      std::vector<Bitset> level_sets;
      level_sets.reserve(state.level.size());
      for (const auto& s : state.level) {
        level_sets.push_back(Bitset::FromIndices(n, s));
      }
      audit::AuditFrontierClosure(level_sets, next_sets, "levelwise");
    }
    for (const auto& s : state.level) {
      Bitset x = Bitset::FromIndices(n, s);
      bool extended = false;
      for (const auto& sup : next_sets) {
        if (x.IsSubsetOf(sup)) {
          extended = true;
          break;
        }
      }
      if (!extended) state.maximal_candidates.push_back(std::move(x));
    }
    state.level = std::move(next);
  }

  LevelwiseResult result = std::move(state.result);
  // Whatever remains in `level` when the loop exits on the max_level cap is
  // maximal within the truncated lattice.
  const bool truncated = !state.level.empty();
  std::vector<Bitset> maximal = std::move(state.maximal_candidates);
  for (const auto& s : state.level) {
    maximal.push_back(Bitset::FromIndices(n, s));
  }

  // The per-level diff already guarantees maximality for untruncated runs,
  // but a final antichain pass keeps the contract unconditional.
  AntichainMaximize(&maximal);
  CanonicalSort(&maximal);
  result.positive_border = std::move(maximal);

  CanonicalSort(&result.negative_border);
  if (state.record_theory) CanonicalSort(&result.theory);

  if (audit::kEnabled) {
    audit::AuditAntichain(result.positive_border, "levelwise Bd+");
    audit::AuditAntichain(result.negative_border, "levelwise Bd-");
    // Theorem 7 only relates the borders of the *full* theory; a max_level
    // cap truncates both, so the cross-check applies to complete runs.
    if (!truncated) {
      audit::AuditBorderDuality(result.positive_border,
                                result.negative_border, n, "levelwise");
    }
  }
  PublishLevelwiseGauges(result, n);
  return result;
}

}  // namespace

LevelwiseResult RunLevelwise(InterestingnessOracle* oracle,
                             const LevelwiseOptions& options) {
  const size_t n = oracle->num_items();
  HGM_OBS_COUNT("levelwise.runs", 1);
  obs::TraceSpan run_span("levelwise.run", "core", {{"width", n}});

  LevelwiseState state;
  state.record_theory = options.record_theory;
  LevelwiseResult& result = state.result;

  // Level 0: the unique most general sentence, ∅.  This single probe
  // precedes budget enforcement (which lives at level boundaries), so
  // even a cancelled run returns a nonempty certified prefix.
  ++result.candidates;
  ++result.queries;
  result.candidates_per_level.push_back(1);
  HGM_OBS_COUNT("levelwise.candidates", 1);
  HGM_OBS_COUNT("levelwise.queries", 1);
  if (!oracle->IsInteresting(Bitset(n))) {
    // Nothing is interesting; Th = ∅ and Bd- = {∅}.
    result.negative_border.push_back(Bitset(n));
    result.interesting_per_level.push_back(0);
    if (audit::kEnabled) {
      audit::AuditBorderDuality(result.positive_border,
                                result.negative_border, n, "levelwise");
    }
    PublishLevelwiseGauges(result, n);
    run_span.AddArg("queries", result.queries);
    return result;
  }
  HGM_OBS_COUNT("levelwise.interesting", 1);
  result.interesting_per_level.push_back(1);
  if (options.record_theory) result.theory.push_back(Bitset(n));
  state.level.push_back(ItemVec{});

  LevelwiseResult out = RunLevels(oracle, options, std::move(state));
  run_span.AddArg("queries", out.queries);
  run_span.AddArg("levels", out.levels);
  return out;
}

Result<LevelwiseResult> ResumeLevelwise(InterestingnessOracle* oracle,
                                        const Checkpoint& checkpoint,
                                        const LevelwiseOptions& options) {
  const size_t n = oracle->num_items();
  if (checkpoint.kind != "levelwise") {
    return Status::InvalidArgument("checkpoint kind '" + checkpoint.kind +
                                   "' is not 'levelwise'");
  }
  if (checkpoint.width != n) {
    return Status::InvalidArgument(
        "checkpoint width " + std::to_string(checkpoint.width) +
        " does not match the oracle's " + std::to_string(n) + " items");
  }
  HGM_OBS_COUNT("levelwise.runs", 1);
  obs::TraceSpan run_span("levelwise.resume", "core", {{"width", n}});

  LevelwiseState state;
  uint64_t v = 0;
  if (!checkpoint.GetScalar("next_level", &v)) {
    return Status::InvalidArgument("levelwise checkpoint missing next_level");
  }
  state.next_level = static_cast<size_t>(v);
  if (checkpoint.GetScalar("queries", &v)) state.result.queries = v;
  if (checkpoint.GetScalar("candidates", &v)) state.result.candidates = v;
  if (checkpoint.GetScalar("levels", &v)) {
    state.result.levels = static_cast<size_t>(v);
  }
  state.record_theory =
      checkpoint.GetScalar("record_theory", &v) ? v != 0 : true;

  std::vector<Bitset> frontier;
  Status s = ReadSetSection(checkpoint, "frontier", n, &frontier);
  if (!s.ok()) return s;
  state.level.reserve(frontier.size());
  for (const Bitset& f : frontier) {
    ItemVec items;
    for (size_t i : f.Indices()) items.push_back(static_cast<uint32_t>(i));
    state.level.push_back(std::move(items));
  }
  // The frontier must be one uniform level below the resume point.
  for (const ItemVec& f : state.level) {
    if (f.size() != state.next_level) {
      return Status::InvalidArgument(
          "levelwise checkpoint frontier set of size " +
          std::to_string(f.size()) + " at level " +
          std::to_string(state.next_level));
    }
  }
  s = ReadSetSection(checkpoint, "maximal", n, &state.maximal_candidates);
  if (!s.ok()) return s;
  s = ReadSetSection(checkpoint, "negative_border", n,
                     &state.result.negative_border);
  if (!s.ok()) return s;
  if (state.record_theory) {
    s = ReadSetSection(checkpoint, "theory", n, &state.result.theory);
    if (!s.ok()) return s;
  }
  s = ReadCountSection(checkpoint, "candidates_per_level",
                       &state.result.candidates_per_level);
  if (!s.ok()) return s;
  s = ReadCountSection(checkpoint, "interesting_per_level",
                       &state.result.interesting_per_level);
  if (!s.ok()) return s;

  LevelwiseResult out = RunLevels(oracle, options, std::move(state));
  run_span.AddArg("queries", out.queries);
  run_span.AddArg("levels", out.levels);
  return out;
}

PartialTheory AsPartialTheory(const LevelwiseResult& result) {
  PartialTheory partial;
  partial.stop_reason = result.stop_reason;
  partial.theory = result.theory;
  partial.positive_border = result.positive_border;
  partial.negative_border = result.negative_border;
  partial.queries = result.queries;
  if (result.checkpoint) partial.checkpoint = *result.checkpoint;
  return partial;
}

}  // namespace hgm
