#include "core/levelwise.h"

#include <algorithm>
#include <iterator>
#include <optional>

#include "common/level_loop.h"
#include "core/audit.h"
#include "core/theory.h"
#include "obs/metrics.h"
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
/// must capture for the resumed run to be bit-identical.  Th, the borders
/// and the per-level tallies accumulate in `walk`, the counters in
/// `result`.
struct LevelwiseState {
  LevelwiseResult result;
  LevelWalk walk;  // walk.size is the loop index k to run next
  bool record_theory = true;
};

/// The Algorithm 9 kernel: one oracle batch per level.  The queries of a
/// level are mutually independent, so a parallel oracle may answer them
/// concurrently; a batch of size m charges exactly m queries, keeping
/// Theorem 10's |Th| + |Bd-| accounting exact.
struct OracleKernel {
  InterestingnessOracle* oracle;
  LevelwiseState* state;

  std::vector<uint8_t> Evaluate(const CandidateLevel& level) {
    LevelwiseResult& result = state->result;
    result.levels = level.size;
    result.candidates += level.sets.size();
    result.queries += level.sets.size();
    HGM_OBS_COUNT("levelwise.queries", level.sets.size());
    std::vector<uint8_t> verdicts = oracle->EvaluateBatch(level.sets);
    if (!state->record_theory && !audit::kEnabled) return verdicts;
    std::vector<Bitset> kept;
    for (size_t c = 0; c < level.sets.size(); ++c) {
      if (verdicts[c]) kept.push_back(level.sets[c]);
    }
    if (audit::kEnabled) {
      // Frontier contract behind Theorem 10: every interesting (k+1)-set
      // extends only interesting k-sets (the theory is downward closed).
      audit::AuditFrontierClosure(
          state->walk.FrontierSets(oracle->num_items()), kept, "levelwise");
    }
    if (state->record_theory) {
      result.theory.insert(result.theory.end(),
                           std::make_move_iterator(kept.begin()),
                           std::make_move_iterator(kept.end()));
    }
    return verdicts;
  }
};

/// Freezes \p state into a kind="levelwise" checkpoint.
Checkpoint MakeLevelwiseCheckpoint(const LevelwiseState& state, size_t n) {
  const LevelWalk& walk = state.walk;
  Checkpoint cp;
  cp.kind = "levelwise";
  cp.width = n;
  cp.SetScalar("next_level", walk.size);
  cp.SetScalar("queries", state.result.queries);
  cp.SetScalar("candidates", state.result.candidates);
  cp.SetScalar("levels", state.result.levels);
  cp.SetScalar("record_theory", state.record_theory ? 1 : 0);
  AddSetSection(&cp, "frontier", walk.FrontierSets(n));
  AddSetSection(&cp, "maximal", walk.maximal);
  AddSetSection(&cp, "negative_border", walk.negative);
  if (state.record_theory) {
    AddSetSection(&cp, "theory", state.result.theory);
  }
  AddCountSection(&cp, "candidates_per_level", walk.candidates_per_level);
  AddCountSection(&cp, "interesting_per_level", walk.kept_per_level);
  return cp;
}

/// Runs the level loop on \p state, then sorts the output.  A budget trip
/// returns the certified completed-level prefix: theory still downward
/// closed, Bd+ the maximal sets so far plus the frontier, Bd- only
/// sentences actually evaluated, and a checkpoint that resumes the run.
/// Consumes \p state.
LevelwiseResult RunLevels(InterestingnessOracle* oracle,
                          const LevelwiseOptions& options,
                          LevelwiseState&& state) {
  const size_t n = oracle->num_items();
  BudgetTracker tracker(options.budget, state.result.queries);
  LevelLoopOptions loop;
  loop.num_items = n;
  loop.max_size = options.max_level;
  loop.tracker = &tracker;
  loop.names = {.span = "levelwise.level",
                .category = "core",
                .flight = "levelwise.level",
                .candidates = "levelwise.candidates",
                .kept = "levelwise.interesting",
                .level_candidates = "levelwise.level_candidates",
                .kept_arg = "interesting",
                .sample_memory = true};
  OracleKernel kernel{oracle, &state};
  const StopReason stop = RunLevelLoop(&state.walk, kernel, loop);

  // A tripped run freezes its checkpoint before any move empties the walk.
  std::optional<Checkpoint> cp;
  if (stop != StopReason::kCompleted) cp = MakeLevelwiseCheckpoint(state, n);
  LevelWalk& walk = state.walk;
  LevelwiseResult result = std::move(state.result);
  result.stop_reason = stop;
  result.checkpoint = std::move(cp);
  // Whatever remains in the frontier when the loop stops early (a trip or
  // the max_level cap) is maximal within the truncated lattice.
  const bool truncated = !walk.frontier.empty();
  result.positive_border = walk.PositiveBorderSoFar(n);
  result.negative_border = walk.TakeNegativeBorder();
  if (state.record_theory) CanonicalSort(&result.theory);
  result.candidates_per_level = std::move(walk.candidates_per_level);
  result.interesting_per_level = std::move(walk.kept_per_level);

  if (audit::kEnabled) {
    audit::AuditAntichain(result.positive_border, "levelwise Bd+");
    audit::AuditAntichain(result.negative_border, "levelwise Bd-");
    // Theorem 7 only relates the borders of the *full* theory; a trip or
    // a max_level cap truncates both, so the cross-check applies to
    // complete runs.
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
  // even a cancelled run returns a nonempty certified prefix.  When ∅ is
  // not interesting, Th = ∅ and Bd- = {∅}, and the walk has no frontier.
  ++result.candidates;
  ++result.queries;
  HGM_OBS_COUNT("levelwise.candidates", 1);
  HGM_OBS_COUNT("levelwise.queries", 1);
  const bool interesting = oracle->IsInteresting(Bitset(n));
  state.walk = LevelWalk::AfterEmptySet(interesting, n);
  state.walk.candidates_per_level.push_back(1);
  state.walk.kept_per_level.push_back(interesting ? 1 : 0);
  if (interesting) {
    HGM_OBS_COUNT("levelwise.interesting", 1);
    if (options.record_theory) result.theory.push_back(Bitset(n));
  }

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
  LevelWalk& walk = state.walk;
  uint64_t v = 0;
  if (!checkpoint.GetScalar("next_level", &v)) {
    return Status::InvalidArgument("levelwise checkpoint missing next_level");
  }
  walk.size = static_cast<size_t>(v);
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
  // The frontier must be one uniform level below the resume point.
  if (!walk.SetFrontier(frontier)) {
    return Status::InvalidArgument(
        "levelwise checkpoint frontier set of the wrong size at level " +
        std::to_string(walk.size));
  }
  s = ReadSetSection(checkpoint, "maximal", n, &walk.maximal);
  if (!s.ok()) return s;
  s = ReadSetSection(checkpoint, "negative_border", n, &walk.negative);
  if (!s.ok()) return s;
  if (state.record_theory) {
    s = ReadSetSection(checkpoint, "theory", n, &state.result.theory);
    if (!s.ok()) return s;
  }
  s = ReadCountSection(checkpoint, "candidates_per_level",
                       &walk.candidates_per_level);
  if (!s.ok()) return s;
  s = ReadCountSection(checkpoint, "interesting_per_level",
                       &walk.kept_per_level);
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
