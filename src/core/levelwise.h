#pragma once

/// \file levelwise.h
/// \brief The levelwise algorithm (Algorithm 9) for languages representable
/// as sets.
///
/// Walks the subset lattice bottom-up, alternating candidate generation
/// (which never touches the data) with evaluation of the quality predicate
/// q.  On termination:
///
///  * theory          = Th(L, r, q)            (all interesting sentences)
///  * positive_border = MTh = Bd+(Th)          (maximal interesting)
///  * negative_border = Bd-(Th)                (minimal non-interesting
///                                              among generated candidates)
///  * queries         = |Th| + |Bd-(Th)|       (Theorem 10, exactly)
///
/// Theorem 12 bounds queries by dc(k) * width(L) * |MTh|; for frequent
/// sets this is 2^k * n * |MTh| (Corollary 13).
///
/// The level loop itself, Bd+ included, is common/level_loop.h; this
/// file supplies its oracle kernel (one EvaluateBatch per level) plus
/// the checkpoint format.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitset.h"
#include "common/run_budget.h"
#include "core/checkpoint.h"
#include "core/oracle.h"

namespace hgm {

/// Output of a levelwise run.
struct LevelwiseResult {
  /// Th(L, r, q): every interesting sentence, canonically sorted.
  std::vector<Bitset> theory;
  /// MTh(L, r, q) = Bd+(Th): the maximal interesting sentences.
  std::vector<Bitset> positive_border;
  /// Bd-(Th): the minimal non-interesting sentences.
  std::vector<Bitset> negative_border;
  /// Evaluations of q performed; equals theory.size() +
  /// negative_border.size() (Theorem 10).
  uint64_t queries = 0;
  /// Candidates generated across all levels (= queries: every candidate is
  /// evaluated exactly once).
  uint64_t candidates = 0;
  /// Number of candidate-generation/evaluation iterations executed
  /// (the largest i with C_i nonempty).
  size_t levels = 0;

  /// Per-level bookkeeping, index = set size: candidates and interesting
  /// counts, as in the classic association-mining tables of [2].
  std::vector<size_t> candidates_per_level;
  std::vector<size_t> interesting_per_level;

  /// kCompleted for a full run.  Anything else means the budget tripped
  /// (or the token was cancelled) at a level boundary: the result is the
  /// certified completed-level prefix — theory still downward closed,
  /// borders still antichains, negative border containing only sentences
  /// actually evaluated — and `checkpoint` resumes the run.
  StopReason stop_reason = StopReason::kCompleted;
  /// Resume state; engaged iff stop_reason != kCompleted.
  std::optional<Checkpoint> checkpoint;
};

/// Options controlling a levelwise run.
struct LevelwiseOptions {
  /// Stop after this lattice level (sets of this size are still evaluated).
  /// Bitset::npos means no cap.  With a cap the returned borders are the
  /// borders of the truncated theory.
  size_t max_level = Bitset::npos;
  /// If false, `theory` is left empty to save memory on large runs
  /// (borders and counters are still filled in).
  bool record_theory = true;
  /// Resource envelope (wall clock, Is-interesting queries, candidate
  /// bytes, cancellation), enforced at level boundaries; a level whose
  /// batch would cross a cap is never evaluated.  Default: unlimited.
  RunBudget budget;
};

/// Runs Algorithm 9 against \p oracle (which must be monotone downward).
LevelwiseResult RunLevelwise(InterestingnessOracle* oracle,
                             const LevelwiseOptions& options = {});

/// Continues an interrupted run from \p checkpoint (kind "levelwise",
/// written by a budget-tripped RunLevelwise) against the same oracle.
/// The resumed run's final output — theory, both borders, all counters —
/// is bit-identical to a never-interrupted run's.  options.budget applies
/// afresh (with queries counted cumulatively across the original run);
/// options.record_theory is taken from the checkpoint.
Result<LevelwiseResult> ResumeLevelwise(InterestingnessOracle* oracle,
                                        const Checkpoint& checkpoint,
                                        const LevelwiseOptions& options = {});

/// The certified-partial view of \p result (for budget-tripped runs; for
/// completed runs the checkpoint member is empty).
PartialTheory AsPartialTheory(const LevelwiseResult& result);

}  // namespace hgm
