#include "obs/bound_report.h"

#include <cmath>

#include "common/table_printer.h"

namespace hgm {
namespace obs {

double BoundLine::Ratio() const {
  if (allowed == 0) return observed == 0 ? 0.0 : HUGE_VAL;
  return observed / allowed;
}

bool BoundLine::Holds() const {
  return exact ? observed == allowed : observed <= allowed;
}

bool BoundReport::AllHold() const {
  for (const BoundLine& l : lines_) {
    if (!l.Holds()) return false;
  }
  return true;
}

void BoundReport::Print(std::ostream& os) const {
  TablePrinter t({"bound", "expression", "observed", "allowed", "ratio",
                  "holds"});
  for (const BoundLine& l : lines_) {
    t.NewRow()
        .Add(l.bound)
        .Add(l.expression)
        .Add(l.observed, 0)
        .Add(l.allowed, 0)
        .Add(l.Ratio(), 4)
        .Add(l.Holds() ? (l.exact ? "exact" : "yes") : "VIOLATED");
  }
  t.Print(os);
}

void BoundReport::WriteJson(std::ostream& os, int indent) const {
  const std::string pad(static_cast<size_t>(indent), ' ');
  const std::string in1(static_cast<size_t>(indent) + 2, ' ');
  os << "[";
  for (size_t i = 0; i < lines_.size(); ++i) {
    const BoundLine& l = lines_[i];
    os << (i ? "," : "") << "\n"
       << in1 << "{\"bound\": \"" << l.bound << "\", \"expression\": \""
       << l.expression << "\", \"observed\": " << l.observed
       << ", \"allowed\": " << l.allowed << ", \"ratio\": " << l.Ratio()
       << ", \"holds\": " << (l.Holds() ? "true" : "false") << "}";
  }
  os << (lines_.empty() ? "" : "\n" + pad) << "]";
}

namespace {

double Pow2Capped(uint64_t k) {
  return k >= 1024 ? HUGE_VAL : std::pow(2.0, static_cast<double>(k));
}

}  // namespace

BoundReport LevelwiseBoundReport(const LevelwiseBoundInputs& in) {
  BoundReport report;
  report.Add({"Theorem 10", "|Th| + |Bd-|",
              static_cast<double>(in.queries),
              static_cast<double>(in.theory_size + in.negative_border_size),
              /*exact=*/true});
  report.Add({"Thm 12 / Cor 13", "2^rank * width * |MTh|",
              static_cast<double>(in.queries),
              Pow2Capped(in.rank) * static_cast<double>(in.width) *
                  static_cast<double>(in.positive_border_size),
              /*exact=*/false});
  report.Add({"Corollary 14", "width^rank * |MTh| (O() ref)",
              static_cast<double>(in.negative_border_size),
              std::pow(static_cast<double>(in.width),
                       static_cast<double>(in.rank)) *
                  static_cast<double>(in.positive_border_size),
              /*exact=*/false});
  return report;
}

BoundReport DualizeAdvanceBoundReport(const DualizeAdvanceBoundInputs& in) {
  BoundReport report;
  report.Add({"Lemma 20", "|Bd-| + 1 transversals/iter",
              static_cast<double>(in.max_enumerated_one_iteration),
              static_cast<double>(in.negative_border_size + 1),
              /*exact=*/false});
  report.Add({"Theorem 21", "|MTh| * (|Bd-| + rank*width)",
              static_cast<double>(in.queries),
              static_cast<double>(in.positive_border_size) *
                  (static_cast<double>(in.negative_border_size) +
                   static_cast<double>(in.rank) *
                       static_cast<double>(in.width)),
              /*exact=*/false});
  report.Add({"termination", "|MTh| + 1 iterations",
              static_cast<double>(in.iterations),
              static_cast<double>(in.positive_border_size + 1),
              /*exact=*/true});
  return report;
}

BoundReport PartitionBoundReport(const PartitionBoundInputs& in) {
  BoundReport report;
  report.Add({"Partition phase 2", "|Th| + |Bd-| full-pass sets",
              static_cast<double>(in.phase2_evaluations),
              static_cast<double>(in.theory_size + in.negative_border_size),
              /*exact=*/false});
  report.Add({"Partition recall", "|Th| <= candidate union",
              static_cast<double>(in.theory_size),
              static_cast<double>(in.candidate_union_size),
              /*exact=*/false});
  return report;
}

BoundReport LevelwiseBoundReportFromRegistry(const MetricsSnapshot& snap) {
  LevelwiseBoundInputs in;
  in.queries =
      static_cast<uint64_t>(snap.GaugeValue("levelwise.last_queries"));
  in.theory_size =
      static_cast<uint64_t>(snap.GaugeValue("levelwise.last_theory_size"));
  in.negative_border_size = static_cast<uint64_t>(
      snap.GaugeValue("levelwise.last_negative_border"));
  in.positive_border_size = static_cast<uint64_t>(
      snap.GaugeValue("levelwise.last_positive_border"));
  in.rank = static_cast<uint64_t>(snap.GaugeValue("levelwise.last_rank"));
  in.width = static_cast<uint64_t>(snap.GaugeValue("levelwise.last_width"));
  return LevelwiseBoundReport(in);
}

BoundReport DualizeAdvanceBoundReportFromRegistry(
    const MetricsSnapshot& snap) {
  DualizeAdvanceBoundInputs in;
  in.queries = static_cast<uint64_t>(snap.GaugeValue("da.last_queries"));
  in.positive_border_size =
      static_cast<uint64_t>(snap.GaugeValue("da.last_positive_border"));
  in.negative_border_size =
      static_cast<uint64_t>(snap.GaugeValue("da.last_negative_border"));
  in.rank = static_cast<uint64_t>(snap.GaugeValue("da.last_rank"));
  in.width = static_cast<uint64_t>(snap.GaugeValue("da.last_width"));
  in.iterations =
      static_cast<uint64_t>(snap.GaugeValue("da.last_iterations"));
  in.max_enumerated_one_iteration =
      static_cast<uint64_t>(snap.GaugeValue("da.last_max_enumerated"));
  return DualizeAdvanceBoundReport(in);
}

BoundReport PartitionBoundReportFromRegistry(const MetricsSnapshot& snap) {
  PartitionBoundInputs in;
  in.phase2_evaluations = static_cast<uint64_t>(
      snap.GaugeValue("partition.last_phase2_evaluations"));
  in.theory_size =
      static_cast<uint64_t>(snap.GaugeValue("partition.last_theory_size"));
  in.negative_border_size = static_cast<uint64_t>(
      snap.GaugeValue("partition.last_negative_border"));
  in.candidate_union_size = static_cast<uint64_t>(
      snap.GaugeValue("partition.last_candidate_union"));
  return PartitionBoundReport(in);
}

BoundReport StreamBoundReport(const StreamBoundInputs& in) {
  BoundReport report;
  // The repair decides exactly the boundary's Th ∪ Bd- plus ∅ — the same
  // population Theorem 10 prices for the batch miner — split between
  // fresh counts and reused maintained supports.
  report.Add({"Theorem 10 (stream)", "evals + reused == |Th| + |Bd-| + 1",
              static_cast<double>(in.evaluations + in.reused),
              static_cast<double>(in.theory_size +
                                  in.negative_border_size + 1),
              /*exact=*/true});
  report.Add({"Stream repair", "fresh evals <= |Th| + |Bd-| + 1",
              static_cast<double>(in.evaluations),
              static_cast<double>(in.theory_size +
                                  in.negative_border_size + 1),
              /*exact=*/false});
  return report;
}

BoundReport StreamBoundReportFromRegistry(const MetricsSnapshot& snap) {
  StreamBoundInputs in;
  in.evaluations =
      static_cast<uint64_t>(snap.GaugeValue("stream.last_evaluations"));
  in.reused = static_cast<uint64_t>(snap.GaugeValue("stream.last_reused"));
  in.theory_size =
      static_cast<uint64_t>(snap.GaugeValue("stream.last_theory_size"));
  in.negative_border_size = static_cast<uint64_t>(
      snap.GaugeValue("stream.last_negative_border"));
  return StreamBoundReport(in);
}

std::vector<std::pair<std::string, BoundReport>> BoundReportsFromRegistry(
    const MetricsSnapshot& snap) {
  struct Family {
    const char* name;
    const char* gauge;  // nonzero once the engine has published
    BoundReport (*build)(const MetricsSnapshot&);
  };
  static constexpr Family kFamilies[] = {
      {"levelwise", "levelwise.last_width", LevelwiseBoundReportFromRegistry},
      {"dualize_advance", "da.last_width",
       DualizeAdvanceBoundReportFromRegistry},
      {"partition", "partition.last_shards", PartitionBoundReportFromRegistry},
      {"stream", "stream.last_window_rows", StreamBoundReportFromRegistry},
  };
  std::vector<std::pair<std::string, BoundReport>> reports;
  for (const Family& f : kFamilies) {
    if (snap.GaugeValue(f.gauge) != 0) {
      reports.emplace_back(f.name, f.build(snap));
    }
  }
  return reports;
}

}  // namespace obs
}  // namespace hgm
