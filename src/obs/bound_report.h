#pragma once

/// \file bound_report.h
/// \brief Observed-vs-theoretical cost ratios for the paper's bounds.
///
/// The paper's results are *query-count bounds*; this helper turns a run's
/// live telemetry into a table of "observed / allowed" ratios so bound
/// tightness is continuously measurable:
///
///   levelwise (Algorithm 9):
///     Theorem 10    queries == |Th| + |Bd-(Th)|             (exact)
///     Thm 12/Cor 13 queries <= 2^rank * width * |MTh|
///     Corollary 14  |Bd-|   <= width^rank * |MTh|           (O() reference)
///   Dualize and Advance (Algorithm 16):
///     Lemma 20      max transversals/iteration <= |Bd-| + 1
///     Theorem 21    queries <= |MTh| * (|Bd-| + rank*width)
///     termination   iterations == |MTh| + 1                 (exact)
///
/// Inputs are plain numbers, so the report layer stays below core/ in the
/// dependency order; *FromRegistry variants read the gauges that the
/// instrumented RunLevelwise / RunDualizeAdvance set on completion.

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace hgm {
namespace obs {

/// One bound: observed value, allowed value, and whether the paper claims
/// equality (exact) or only an upper bound.
struct BoundLine {
  std::string bound;       // "Theorem 10"
  std::string expression;  // "|Th| + |Bd-|"
  double observed = 0;
  double allowed = 0;
  bool exact = false;

  /// observed / allowed (0 when allowed is 0 and observed is 0).
  double Ratio() const;
  /// Exact lines hold iff observed == allowed; bounds iff observed <=.
  bool Holds() const;
};

/// A set of bound lines with table / JSON rendering.
class BoundReport {
 public:
  void Add(BoundLine line) { lines_.push_back(std::move(line)); }
  const std::vector<BoundLine>& lines() const { return lines_; }

  /// True iff every line holds.
  bool AllHold() const;

  /// Aligned table via TablePrinter.
  void Print(std::ostream& os) const;

  /// JSON array of {bound, expression, observed, allowed, ratio, holds}.
  void WriteJson(std::ostream& os, int indent = 0) const;

 private:
  std::vector<BoundLine> lines_;
};

/// Inputs for the levelwise bounds.  `rank` is the size of the largest
/// maximal interesting set; `width` is the universe size n (width(L) for
/// languages representable as sets).
struct LevelwiseBoundInputs {
  uint64_t queries = 0;
  uint64_t theory_size = 0;
  uint64_t negative_border_size = 0;
  uint64_t positive_border_size = 0;
  uint64_t rank = 0;
  uint64_t width = 0;
};

BoundReport LevelwiseBoundReport(const LevelwiseBoundInputs& in);

/// Inputs for the Dualize-and-Advance bounds.
struct DualizeAdvanceBoundInputs {
  uint64_t queries = 0;
  uint64_t positive_border_size = 0;
  uint64_t negative_border_size = 0;
  uint64_t rank = 0;
  uint64_t width = 0;
  uint64_t iterations = 0;
  uint64_t max_enumerated_one_iteration = 0;
};

BoundReport DualizeAdvanceBoundReport(const DualizeAdvanceBoundInputs& in);

/// Inputs for the partition-mining phase-2 bounds.  The confirmation
/// pass walks the candidate union levelwise, so the sets it counts lie
/// in Th ∪ Bd-(Th) — the same Theorem 10 budget the levelwise algorithm
/// gets — and the recall line records how much of the union phase 1
/// over-generated.
struct PartitionBoundInputs {
  uint64_t phase2_evaluations = 0;
  uint64_t theory_size = 0;
  uint64_t negative_border_size = 0;
  uint64_t candidate_union_size = 0;
};

BoundReport PartitionBoundReport(const PartitionBoundInputs& in);

/// Inputs for the streaming-repair bounds.  A window boundary's repair
/// touches exactly the new Th ∪ Bd- (plus ∅), split between fresh
/// full-window counts (`evaluations`) and supports answered from the
/// incrementally maintained state (`reused`) — the split must sum to the
/// batch miner's Theorem-10 count, and the fresh share is the saving the
/// incremental engine exists for.
struct StreamBoundInputs {
  uint64_t evaluations = 0;
  uint64_t reused = 0;
  uint64_t theory_size = 0;
  uint64_t negative_border_size = 0;
};

BoundReport StreamBoundReport(const StreamBoundInputs& in);

/// Builds the levelwise report from the `levelwise.last_*` gauges the
/// instrumented RunLevelwise sets (requires metrics to have been on
/// during the run).
BoundReport LevelwiseBoundReportFromRegistry(const MetricsSnapshot& snap);

/// Builds the D&A report from the `da.last_*` gauges RunDualizeAdvance
/// sets.
BoundReport DualizeAdvanceBoundReportFromRegistry(
    const MetricsSnapshot& snap);

/// Builds the partition report from the `partition.last_*` gauges
/// MinePartitioned sets.
BoundReport PartitionBoundReportFromRegistry(const MetricsSnapshot& snap);

/// Builds the streaming report from the `stream.last_*` gauges
/// StreamMiner sets at each completed window boundary.
BoundReport StreamBoundReportFromRegistry(const MetricsSnapshot& snap);

/// Every bound report whose gauges \p snap holds, named and in a fixed
/// order: "levelwise", "dualize_advance", "partition", "stream".  A
/// family is present when its width, shard-count or window gauge is
/// nonzero, i.e. that engine published in this process with metrics on.
/// The run-report envelopes and hgmine_cli's --metrics export both
/// select through this one table.
std::vector<std::pair<std::string, BoundReport>> BoundReportsFromRegistry(
    const MetricsSnapshot& snap);

}  // namespace obs
}  // namespace hgm
