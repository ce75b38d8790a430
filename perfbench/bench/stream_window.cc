/// \file stream_window.cc
/// \brief stream_window: delta maintenance on small buckets.
///
/// A 60k-row Quest feed (100 items, T=8) pushed row by row through
/// StreamMiner with a 4 000-row window sliding by 500 rows at minsup 100;
/// AdvanceWindow runs at each of the 120 boundaries.  Most of the Theorem
/// 10 population comes from maintained supports, so the counting work is
/// bucket-sized: a gain for full-level counting that costs small-bucket
/// counting shows up here.

#include <string>
#include <vector>

#include "common/random.h"
#include "harness.h"
#include "mining/apriori.h"
#include "mining/generators.h"
#include "mining/stream.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

constexpr size_t kFeedRows = 60000;
constexpr size_t kItems = 100;
constexpr size_t kWindow = 4000;
constexpr size_t kSlide = 500;
constexpr size_t kMinSupport = 100;
/// Every kCheckEvery-th boundary is re-mined in batch and compared.
constexpr size_t kCheckEvery = 10;
constexpr uint64_t kBaseSeed = 0x57e40003;

/// Set-up: the feed's generation and a row shuffle within each slide, so
/// every window holds the same rows.
std::vector<hgm::Bitset> Setup(uint64_t seed) {
  hgm::QuestParams params;
  params.num_transactions = kFeedRows;
  params.avg_transaction_size = 8.0;
  params.num_items = kItems;
  hgm::Rng rng(kBaseSeed);
  return ShuffleRows(hgm::GenerateQuest(params, &rng), seed, kSlide).rows();
}

struct Pass {
  double push_ms = 0;
  double advance_ms = 0;
  double check_ms = 0;
  uint64_t fresh = 0;
  uint64_t reused = 0;
  size_t boundaries = 0;
  hgm::StreamWindowResult last;
  hgm::TransactionDatabase last_window;
};

/// Streams the whole feed through a fresh StreamMiner.  Push and
/// AdvanceWindow are timed; the sampled batch re-mines are not part of
/// either (they are the check, and their own "window_mine" samples).
Pass StreamPass(const std::vector<hgm::Bitset>& feed, hgm::ThreadPool* pool,
                const std::string& suffix, SpanLog* spans, int parent,
                RunResult* out) {
  hgm::StreamOptions options;
  options.slide_rows = kSlide;
  options.pool = pool;
  hgm::StreamMiner miner(kItems, kMinSupport, kWindow, options);
  Pass pass;
  Clock::time_point slide_start = Clock::now();
  for (const hgm::Bitset& row : feed) {
    if (!miner.Push(row)) continue;
    const double push_ms = MsSince(slide_start);
    if (spans != nullptr) {
      spans->Aggregate("stream.push", parent, push_ms, kSlide);
    }
    const Clock::time_point start = Clock::now();
    hgm::StreamWindowResult w;
    {
      ScopedSpan span(spans, "stream.advance", parent);
      w = miner.AdvanceWindow();
    }
    const double advance_ms = MsSince(start);
    out->Record("boundary" + suffix, advance_ms);
    pass.push_ms += push_ms;
    pass.advance_ms += advance_ms;
    pass.fresh += w.evaluations;
    pass.reused += w.reused;
    ++pass.boundaries;
    out->Check(w.stop_reason == hgm::StopReason::kCompleted &&
                   w.evaluations + w.reused ==
                       w.frequent.size() + w.negative_border.size(),
               "stream_window: boundary " + std::to_string(w.window_index) +
                   " broke evaluations + reused == |Th| + |Bd-|");
    if (pass.boundaries % kCheckEvery == 0) {
      const Clock::time_point check_start = Clock::now();
      hgm::TransactionDatabase window = miner.WindowSnapshot();
      hgm::AprioriOptions opts;
      opts.pool = pool;
      const Clock::time_point mine_start = Clock::now();
      hgm::AprioriResult batch;
      {
        ScopedSpan span(spans, "stream.window_mine", parent);
        batch = hgm::MineFrequentSets(&window, kMinSupport, opts);
      }
      out->Record("window_mine" + suffix, MsSince(mine_start));
      out->Check(hgm::serve::TheoryFingerprint(w.frequent, w.maximal,
                                               w.negative_border) ==
                     hgm::serve::TheoryFingerprint(
                         batch.frequent, batch.maximal, batch.negative_border),
                 "stream_window: boundary " + std::to_string(w.window_index) +
                     " differs from a batch re-mine of its window");
      pass.check_ms += MsSince(check_start);
    }
    pass.last = std::move(w);
    slide_start = Clock::now();
  }
  pass.last_window = miner.WindowSnapshot();
  return pass;
}

}  // namespace

void RunStreamWindow(const RunArgs& args, SpanLog* spans, RunResult* out) {
  std::vector<hgm::Bitset> feed;
  TimeSetup([&](int) { feed = Setup(args.seed); }, out);
  // One lane, as a serve stream session drives its miner: a boundary's
  // fresh batch is a few hundred sets, too small to gain from a hand-off.
  hgm::ThreadPool pool(1);
  const double budget_ms = args.seconds * 1000.0 / (spans ? 3.0 : 1.0);

  Pass pass;
  std::vector<double> pass_ms;  // pass wall time without the checks
  Clock::time_point start = Clock::now();
  do {
    const Clock::time_point pass_start = Clock::now();
    pass = StreamPass(feed, &pool, "", nullptr, -1, out);
    pass_ms.push_back(MsSince(pass_start) - pass.check_ms);
    out->work_units += static_cast<double>(kFeedRows);
    out->work_seconds += (pass.push_ms + pass.advance_ms) / 1000.0;
  } while (MsSince(start) < budget_ms);
  out->detail["stream.boundaries_per_pass"] =
      static_cast<double>(pass.boundaries);
  out->detail["stream.fresh_counts"] = static_cast<double>(pass.fresh);
  out->detail["stream.reused"] = static_cast<double>(pass.reused);
  if (spans == nullptr) return;

  // ---- Traced run. ----
  hgm::obs::EnableMetrics(true);
  const int root = spans->Begin("stream_window", -1);
  const uint64_t busy_before = PoolBusyUs();
  double push_ms = 0, advance_ms = 0, check_ms = 0, wall_ms = 0;
  size_t boundaries = 0;
  start = Clock::now();
  do {
    const Clock::time_point pass_start = Clock::now();
    const int pass_span = spans->Begin("stream.pass", root);
    pass = StreamPass(feed, &pool, ".traced", spans, pass_span, out);
    spans->End(pass_span);
    wall_ms += MsSince(pass_start);
    push_ms += pass.push_ms;
    advance_ms += pass.advance_ms;
    check_ms += pass.check_ms;
    boundaries += pass.boundaries;
  } while (MsSince(start) < budget_ms);
  const double traced_wall_ms = MsSince(start);
  const double busy_ms =
      static_cast<double>(PoolBusyUs() - busy_before) / 1000.0;

  // Level counting of the last window's Th ∪ Bd-.
  CountingReplay counted;
  bool exact = false;
  {
    ScopedSpan span(spans, "counting.vertical", root);
    counted = ReplayTheory(&pass.last_window, pass.last.frequent,
                           pass.last.negative_border, kMinSupport, &pool,
                           &exact);
  }
  out->Check(exact, "stream_window: counting replay disagrees with the "
                    "maintained supports");

  double kernel_ns = 0;
  {
    ScopedSpan span(spans, "common.kernel_probe", root);
    kernel_ns = KernelNsPerWord(&pass.last_window);
  }
  spans->End(root);

  const double population = static_cast<double>(pass.fresh + pass.reused);
  const double advance_traced = Median(spans->DurationsMs("stream.advance"));
  const double traced_ms = wall_ms - check_ms;
  const double residual_ms = traced_ms - push_ms - advance_ms;
  out->layers["common.kernel_ns_per_word"] = kernel_ns;
  out->layers["common.pool_busy_share"] =
      busy_ms / (traced_wall_ms * static_cast<double>(pool.num_threads()));
  out->layers["counting.vertical_ms"] = counted.ms;
  out->layers["counting.sets"] = static_cast<double>(counted.sets);
  out->layers["miner.evaluations"] =
      population / static_cast<double>(pass.boundaries);
  out->layers["miner.reuse_share"] =
      population > 0 ? static_cast<double>(pass.reused) / population : 0.0;
  out->layers["ladder.residual_share"] = residual_ms / traced_ms;
  out->layers["obs.trace_overhead_share"] =
      advance_traced / out->OpMedian("boundary");

  const double per_boundary = 1.0 / static_cast<double>(boundaries);
  out->detail["stream.advance_ms"] = advance_traced;
  out->detail["stream.push_ms"] = Median(spans->DurationsMs("stream.push"));
  out->detail["stream.reuse_share"] = out->layers["miner.reuse_share"];

  // Per boundary: the slide's pushes, the repair and the pass loop add
  // up to the pass time (the sampled batch checks excluded), which is
  // kSlide rows over stream rows/s.
  const std::string group = "stream ms per 500-row slide|";
  out->ladder = {
      {group + "stream.push_ms", push_ms * per_boundary},
      {group + "stream.advance_ms", advance_ms * per_boundary},
      {group + "loop (residual)", residual_ms * per_boundary},
      {group + "traced", traced_ms * per_boundary},
      {group + "untraced",
       Median(pass_ms) / static_cast<double>(pass.boundaries)},
      {"boundary_p50_ms|stream.advance_ms (traced p50)", advance_traced},
      {"boundary_p50_ms|untraced", out->OpMedian("boundary")},
  };
}

}  // namespace perfbench
