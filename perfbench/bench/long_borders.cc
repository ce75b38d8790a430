/// \file long_borders.cc
/// \brief long_borders: the paper's Section 5 regime.
///
/// A PlantedDatabase with 80 items, 40 random 24-item patterns (50 copies
/// each) and 5 000 noise rows of 3 items, mined for MTh by Dualize and
/// Advance at minsup 50.  Levelwise is infeasible here (each pattern has
/// 2^24 frequent subsets); the time goes to MMCS enumeration and the
/// cached oracle over only 7k rows, so a counting-kernel change should
/// barely move it.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/dualize_advance.h"
#include "core/oracle.h"
#include "core/theory.h"
#include "core/verification.h"
#include "harness.h"
#include "hypergraph/transversal_mmcs.h"
#include "mining/frequency_oracle.h"
#include "mining/generators.h"
#include "mining/max_miner.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

constexpr size_t kItems = 80;
constexpr size_t kPatterns = 40;
constexpr size_t kPatternSize = 24;
constexpr size_t kCopies = 50;
constexpr size_t kNoiseRows = 5000;
constexpr size_t kNoiseItems = 3;
constexpr size_t kMinSupport = 50;
constexpr uint64_t kBaseSeed = 0x10b00002;

struct Instance {
  hgm::TransactionDatabase db;
  /// The planted antichain, canonically sorted: MTh.
  std::vector<hgm::Bitset> planted;
};

/// Set-up: data generation, a row shuffle, and the vertical index.
Instance Setup(uint64_t seed) {
  hgm::Rng rng(kBaseSeed);
  Instance inst;
  inst.planted = hgm::RandomPatterns(kItems, kPatterns, kPatternSize, &rng);
  inst.db = ShuffleRows(hgm::PlantedDatabase(kItems, inst.planted, kCopies,
                                             kNoiseRows, kNoiseItems, &rng),
                        seed, 0);
  hgm::CanonicalSort(&inst.planted);
  inst.db.EnsureVerticalIndex();
  return inst;
}

/// Per-run tallies of the timing decorators below.
struct LayerTimes {
  double enumerate_ms = 0;
  uint64_t enumerate_calls = 0;
  double oracle_ms = 0;
  uint64_t oracle_calls = 0;
};

/// MMCS with every Reset/Next call timed: the HTR engine's share of D&A.
class TimedMmcs : public hgm::TransversalEnumerator {
 public:
  explicit TimedMmcs(LayerTimes* times) : times_(times) {}
  std::string name() const override { return inner_.name(); }
  void Reset(const hgm::Hypergraph& h) override {
    const Clock::time_point start = Clock::now();
    inner_.Reset(h);
    times_->enumerate_ms += MsSince(start);
    ++times_->enumerate_calls;
  }
  bool Next(hgm::Bitset* out) override {
    const Clock::time_point start = Clock::now();
    const bool more = inner_.Next(out);
    times_->enumerate_ms += MsSince(start);
    ++times_->enumerate_calls;
    return more;
  }

 private:
  hgm::MmcsEnumerator inner_;
  LayerTimes* times_;
};

/// Times every Is-interesting query reaching the oracle stack below it.
class TimedOracle : public hgm::InterestingnessOracle {
 public:
  TimedOracle(hgm::InterestingnessOracle* inner, LayerTimes* times)
      : inner_(inner), times_(times) {}
  bool IsInteresting(const hgm::Bitset& x) override {
    const Clock::time_point start = Clock::now();
    const bool answer = inner_->IsInteresting(x);
    times_->oracle_ms += MsSince(start);
    ++times_->oracle_calls;
    return answer;
  }
  std::vector<uint8_t> EvaluateBatch(
      std::span<const hgm::Bitset> batch) override {
    const Clock::time_point start = Clock::now();
    std::vector<uint8_t> answers = inner_->EvaluateBatch(batch);
    times_->oracle_ms += MsSince(start);
    times_->oracle_calls += batch.size();
    return answers;
  }
  size_t num_items() const override { return inner_->num_items(); }

 private:
  hgm::InterestingnessOracle* inner_;
  LayerTimes* times_;
};

/// One measured D&A run through the public façade, then the Corollary 4
/// verification of its answer.
hgm::MaxMinerResult MineAndVerify(Instance* inst, RunResult* out) {
  Clock::time_point start = Clock::now();
  hgm::MaxMinerResult r = hgm::MineMaximalFrequentSets(
      &inst->db, kMinSupport, hgm::MaxMinerAlgorithm::kDualizeAdvance);
  const double dualize_ms = MsSince(start);
  out->Record("dualize", dualize_ms);
  out->work_units += static_cast<double>(r.queries);
  out->work_seconds += dualize_ms / 1000.0;
  out->Check(r.maximal == inst->planted,
             "long_borders: MTh differs from the planted antichain");

  hgm::FrequencyOracle oracle(&inst->db, kMinSupport);
  hgm::MmcsTransversals engine;
  start = Clock::now();
  const hgm::VerificationResult v =
      hgm::VerifyMaxTheory(r.maximal, &oracle, &engine);
  out->Record("verify", MsSince(start));
  out->Check(v.verified && v.border_size ==
                               r.maximal.size() + r.negative_border.size(),
             "long_borders: VerifyMaxTheory (Corollary 4) rejected MTh");
  return r;
}

}  // namespace

void RunLongBorders(const RunArgs& args, SpanLog* spans, RunResult* out) {
  Instance inst;
  TimeSetup([&](int) { inst = Setup(args.seed); }, out);
  const double budget_ms = args.seconds * 1000.0 / (spans ? 3.0 : 1.0);
  const size_t min_runs = spans ? 2 : 3;

  hgm::MaxMinerResult last;
  Clock::time_point start = Clock::now();
  do {
    last = MineAndVerify(&inst, out);
  } while (MsSince(start) < budget_ms ||
           out->ops_ms["dualize"].size() < min_runs);
  out->detail["theory.mth_size"] = static_cast<double>(last.maximal.size());
  out->detail["theory.bd_minus_size"] =
      static_cast<double>(last.negative_border.size());
  out->detail["da.queries"] = static_cast<double>(last.queries);
  if (spans == nullptr) return;

  // ---- Traced run: the same oracle stack as the façade (FrequencyOracle
  // under CachedOracle, MMCS enumerator), with timing decorators. ----
  hgm::obs::EnableMetrics(true);
  const int root = spans->Begin("long_borders", -1);
  const uint64_t busy_before = PoolBusyUs();
  std::vector<double> da_ms, enumerate_ms, oracle_ms, loop_ms;
  hgm::DualizeAdvanceResult traced;
  uint64_t raw_queries = 0;
  uint64_t inner_evaluations = 0;
  start = Clock::now();
  do {
    LayerTimes times;
    hgm::FrequencyOracle frequency(&inst.db, kMinSupport);
    hgm::CachedOracle cached(&frequency);
    TimedOracle timed(&cached, &times);
    hgm::DualizeAdvanceOptions opts;
    opts.make_enumerator = [&times] {
      return std::make_unique<TimedMmcs>(&times);
    };
    const int run = spans->Begin("da.run", root);
    const Clock::time_point t = Clock::now();
    traced = hgm::RunDualizeAdvance(&timed, opts);
    da_ms.push_back(MsSince(t));
    spans->End(run);
    spans->Aggregate("htr.enumerate", run, times.enumerate_ms,
                     times.enumerate_calls);
    spans->Aggregate("oracle.query", run, times.oracle_ms,
                     times.oracle_calls);
    enumerate_ms.push_back(times.enumerate_ms);
    oracle_ms.push_back(times.oracle_ms);
    loop_ms.push_back(da_ms.back() - times.enumerate_ms - times.oracle_ms);
    raw_queries = cached.raw_queries();
    inner_evaluations = cached.inner_evaluations();
    out->Check(traced.positive_border == inst.planted &&
                   traced.queries == raw_queries,
               "long_borders: the traced D&A run disagrees with the façade");
  } while (MsSince(start) < budget_ms || da_ms.size() < 2);
  const double traced_wall_ms = MsSince(start);
  const double busy_ms =
      static_cast<double>(PoolBusyUs() - busy_before) / 1000.0;

  // Level counting of the answer family MTh ∪ Bd-.
  std::vector<hgm::Bitset> family = traced.positive_border;
  family.insert(family.end(), traced.negative_border.begin(),
                traced.negative_border.end());
  hgm::ThreadPool pool(BenchThreads(2));
  CountingReplay counted;
  {
    ScopedSpan span(spans, "counting.vertical", root);
    counted = ReplayCounting(&inst.db, family, &pool);
  }
  bool exact = true;
  for (size_t i = 0; i < family.size(); ++i) {
    const bool frequent = i < traced.positive_border.size();
    exact = exact && (counted.supports[i] >= kMinSupport) == frequent;
  }
  out->Check(exact, "long_borders: counting replay disagrees with MTh/Bd-");

  double kernel_ns = 0;
  {
    ScopedSpan span(spans, "common.kernel_probe", root);
    kernel_ns = KernelNsPerWord(&inst.db);
  }
  spans->End(root);

  const double da_traced = Median(da_ms);
  const double dualize_ms = out->OpMedian("dualize");
  const double loop = Median(loop_ms);
  const double raw = static_cast<double>(raw_queries);
  out->layers["common.kernel_ns_per_word"] = kernel_ns;
  out->layers["common.pool_busy_share"] =
      busy_ms /
      (traced_wall_ms * static_cast<double>(hgm::GlobalPool()->num_threads()));
  out->layers["counting.vertical_ms"] = counted.ms;
  out->layers["counting.sets"] = static_cast<double>(counted.sets);
  out->layers["miner.evaluations"] = static_cast<double>(traced.queries);
  out->layers["miner.reuse_share"] =
      raw > 0 ? 1.0 - static_cast<double>(inner_evaluations) / raw : 0.0;
  out->layers["ladder.residual_share"] = loop / da_traced;
  out->layers["obs.trace_overhead_share"] = da_traced / dualize_ms;

  out->detail["htr.enumerate_ms"] = Median(enumerate_ms);
  out->detail["htr.transversals"] =
      static_cast<double>(traced.transversals_enumerated);
  out->detail["oracle.query_ms"] = Median(oracle_ms);
  out->detail["oracle.raw_queries"] = raw;
  out->detail["oracle.inner_evaluations"] =
      static_cast<double>(inner_evaluations);
  out->detail["oracle.hit_share"] = out->layers["miner.reuse_share"];
  out->detail["da.iterations"] = static_cast<double>(traced.iterations);
  out->detail["da.loop_ms"] = loop;

  out->ladder = {
      {"dualize_ms|htr.enumerate_ms", Median(enumerate_ms)},
      {"dualize_ms|oracle.query_ms", Median(oracle_ms)},
      {"dualize_ms|da.loop_ms (residual)", loop},
      {"dualize_ms|traced", da_traced},
      {"dualize_ms|untraced", dualize_ms},
  };
}

}  // namespace perfbench
