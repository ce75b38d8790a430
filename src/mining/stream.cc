#include "mining/stream.h"

#include <algorithm>
#include <utility>

#include "common/apriori_gen.h"
#include "common/check.h"
#include "core/theory.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/transversal_berge.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace hgm {

namespace {

/// AprioriResult's output order: by size, then by set value.
void SortFrequent(std::vector<FrequentItemset>* frequent) {
  std::sort(frequent->begin(), frequent->end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              size_t ca = a.items.Count(), cb = b.items.Count();
              if (ca != cb) return ca < cb;
              return a.items < b.items;
            });
}

}  // namespace

StreamMiner::StreamMiner(size_t num_items, size_t min_support,
                         size_t window_rows, StreamOptions options)
    : num_items_(num_items),
      min_support_(min_support),
      window_rows_(window_rows),
      slide_rows_(options.slide_rows == 0 ? window_rows : options.slide_rows),
      options_(std::move(options)) {
  HGMINE_CHECK_GE(window_rows_, size_t{1})
      << "stream window must hold at least one row";
  HGMINE_CHECK_GE(slide_rows_, size_t{1});
  HGMINE_CHECK_EQ(window_rows_ % slide_rows_, size_t{0})
      << "slide_rows must divide window_rows so expiry drops whole buckets";
  HGMINE_CHECK_GE(options_.tilt_capacity, size_t{2})
      << "tilted-time coarsening needs >= 2 summaries per level";
  pending_.reserve(slide_rows_);
}

bool StreamMiner::Push(const Bitset& row) {
  HGMINE_CHECK(!boundary_due_)
      << "Push while a window boundary is due; call AdvanceWindow first";
  HGMINE_CHECK(!repair_pending_)
      << "Push while a budget-tripped repair is pending; call ResumeAdvance";
  HGMINE_CHECK_EQ(row.size(), num_items_)
      << "stream row width does not match the item universe";
  pending_.push_back(row);
  HGM_OBS_COUNT("stream.arrivals", 1);
  if (pending_.size() == slide_rows_) boundary_due_ = true;
  return boundary_due_;
}

void StreamMiner::RotateRing() {
  // Seal the pending slide into a bucket with its own vertical index —
  // the only index build this boundary ever does.
  TransactionDatabase arrived(num_items_);
  for (Bitset& row : pending_) arrived.AddTransaction(std::move(row));
  pending_.clear();
  arrived.EnsureVerticalIndex();
  rows_in_window_ += arrived.num_transactions();

  const bool expire = ring_.size() == window_rows_ / slide_rows_;
  const TransactionDatabase* expired = expire ? &ring_.front() : nullptr;
  if (expire) {
    rows_in_window_ -= expired->num_transactions();
    HGM_OBS_COUNT("stream.expiries", expired->num_transactions());
    CoarsenExpired(*expired);
  }

  // Incremental support maintenance: every tracked set is counted only
  // in the delta buckets (each a slide of rows with a prebuilt vertical
  // index), never against the full window.  Exactness of these sums is
  // what makes the reused answers bit-identical to fresh counts.
  HGM_OBS_COUNT("stream.delta_updates", tracked_.size());
  for (auto& [itemset, support] : tracked_) {
    support += arrived.SupportVerticalPrebuilt(itemset);
    if (expire) support -= expired->SupportVerticalPrebuilt(itemset);
  }
  if (expire) ring_.pop_front();
  ring_.push_back(std::move(arrived));
}

StreamWindowResult StreamMiner::AdvanceWindow() {
  HGMINE_CHECK(boundary_due_)
      << "AdvanceWindow without a full slide accumulated";
  HGMINE_CHECK(!repair_pending_)
      << "AdvanceWindow while a tripped repair is pending";
  RotateRing();
  boundary_due_ = false;
  repair_pending_ = true;
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kPhase, "stream.advance",
      static_cast<int64_t>(window_index_),
      static_cast<int64_t>(rows_in_window_));
  // ∅'s support is the window row count the ring maintains, so it is
  // always answered without a count — charged as the one reused query
  // the batch miner spends on level 0.
  return RunRepair(/*start_level=*/1, /*evaluations=*/0, /*reused=*/1);
}

Result<StreamWindowResult> StreamMiner::ResumeAdvance(
    const Checkpoint& checkpoint) {
  if (!repair_pending_) {
    return Status::FailedPrecondition(
        "stream resume: no budget-tripped repair is pending");
  }
  if (checkpoint.kind != "stream") {
    return Status::InvalidArgument("checkpoint kind '" + checkpoint.kind +
                                   "' is not 'stream'");
  }
  if (checkpoint.width != num_items_) {
    return Status::InvalidArgument(
        "stream checkpoint width " + std::to_string(checkpoint.width) +
        " does not match the engine's " + std::to_string(num_items_) +
        " items");
  }
  uint64_t window_index = 0, next_level = 0, evaluations = 0, reused = 0;
  uint64_t min_support = 0, rows = 0;
  if (!checkpoint.GetScalar("window_index", &window_index) ||
      !checkpoint.GetScalar("next_level", &next_level) ||
      !checkpoint.GetScalar("evaluations", &evaluations) ||
      !checkpoint.GetScalar("reused", &reused) ||
      !checkpoint.GetScalar("min_support", &min_support) ||
      !checkpoint.GetScalar("rows_in_window", &rows)) {
    return Status::InvalidArgument("stream checkpoint missing a scalar");
  }
  if (window_index != window_index_ || rows != rows_in_window_ ||
      min_support != min_support_) {
    return Status::InvalidArgument(
        "stream checkpoint does not match the engine's pending boundary");
  }
  if (next_level == 0) {
    return Status::InvalidArgument("stream checkpoint next_level is 0");
  }
  const std::vector<CheckpointEntry>* tracked =
      checkpoint.FindSection("tracked");
  if (tracked == nullptr) {
    return Status::InvalidArgument(
        "stream checkpoint missing the tracked section");
  }
  tracked_.clear();
  tracked_.reserve(tracked->size());
  for (const CheckpointEntry& e : *tracked) {
    if (e.items.size() != num_items_) {
      return Status::InvalidArgument(
          "stream checkpoint tracked-set width mismatch");
    }
    tracked_.emplace(e.items, static_cast<size_t>(e.value));
  }
  HGM_OBS_COUNT("stream.resumes", 1);
  return RunRepair(static_cast<size_t>(next_level), evaluations, reused);
}

std::vector<size_t> StreamMiner::CountFreshBatch(
    const std::vector<Bitset>& batch) {
  // The oracle-seam cost contract: a batch of m fresh candidates is m
  // support computations, answered in parallel, each slot written by
  // exactly one worker and each support summed over the ring buckets in
  // bucket order — bit-identical at every thread count.
  std::vector<size_t> supports(batch.size(), 0);
  ThreadPool* pool = PoolOrGlobal(options_.pool);
  pool->ParallelFor(batch.size(), [&](size_t begin, size_t end, size_t) {
    for (size_t c = begin; c < end; ++c) {
      size_t total = 0;
      for (const TransactionDatabase& bucket : ring_) {
        total += bucket.SupportVerticalPrebuilt(batch[c]);
      }
      supports[c] = total;
    }
  });
  return supports;
}

Checkpoint StreamMiner::MakeCheckpoint(size_t next_level,
                                       uint64_t evaluations,
                                       uint64_t reused) const {
  Checkpoint cp;
  cp.kind = "stream";
  cp.width = num_items_;
  cp.SetScalar("window_index", window_index_);
  cp.SetScalar("next_level", next_level);
  cp.SetScalar("evaluations", evaluations);
  cp.SetScalar("reused", reused);
  cp.SetScalar("min_support", min_support_);
  cp.SetScalar("rows_in_window", rows_in_window_);
  std::vector<CheckpointEntry>* entries = cp.AddSection("tracked");
  entries->reserve(tracked_.size());
  for (const auto& [itemset, support] : tracked_) {
    entries->push_back({itemset, support});
  }
  // Canonical entry order: the map iterates in hash order, which would
  // make checkpoint bytes differ run to run.
  std::sort(entries->begin(), entries->end(),
            [](const CheckpointEntry& a, const CheckpointEntry& b) {
              size_t ca = a.items.Count(), cb = b.items.Count();
              if (ca != cb) return ca < cb;
              return a.items < b.items;
            });
  return cp;
}

StreamWindowResult StreamMiner::RunRepair(size_t start_level,
                                          uint64_t evaluations,
                                          uint64_t reused) {
  const size_t n = num_items_;
  obs::TraceSpan repair_span("stream.repair", "mining",
                             {{"window", window_index_},
                              {"rows", rows_in_window_},
                              {"tracked", tracked_.size()}});
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kPhase, "stream.repair",
      static_cast<int64_t>(window_index_),
      static_cast<int64_t>(tracked_.size()));

  StreamWindowResult result;
  result.window_index = window_index_;
  result.rows_in_window = rows_in_window_;
  result.evaluations = evaluations;
  result.reused = reused;
  BudgetTracker tracker(options_.budget, evaluations);

  // Level 0: ∅, answered from the ring's row count (see AdvanceWindow).
  if (rows_in_window_ < min_support_) {
    result.negative_border.push_back(Bitset(n));
    return FinishRepair(std::move(result));
  }
  result.frequent.push_back({Bitset(n), rows_in_window_});

  // The certified-partial exit for a budget trip at the edge of level k:
  // levels < k are fully decided, level k has left no trace.
  auto finish_partial = [&](size_t k, StopReason reason) {
    Checkpoint cp = MakeCheckpoint(k, result.evaluations, result.reused);
    result.stop_reason = reason;
    result.checkpoint = std::move(cp);
    std::vector<Bitset> maximal;
    maximal.reserve(result.frequent.size());
    for (const FrequentItemset& f : result.frequent) {
      maximal.push_back(f.items);
    }
    AntichainMaximize(&maximal);
    CanonicalSort(&maximal);
    result.maximal = std::move(maximal);
    CanonicalSort(&result.negative_border);
    SortFrequent(&result.frequent);
    return std::move(result);
  };

  std::vector<ItemVec> level;  // F_{k-1} as sorted item vectors
  std::unordered_set<Bitset, BitsetHash> level_set;
  for (size_t k = 1;; ++k) {
    const std::vector<AprioriCandidate> candidates =
        k == 1 ? SingletonCandidates(n) : AprioriGen(level, level_set, n);
    if (candidates.empty()) break;
    // Levels below start_level were decided before the trip that led
    // here: every candidate is already tracked, so the replay rebuilds
    // the output without charging queries or consulting the budget —
    // the resumed run's tallies continue from the checkpoint's.
    const bool replay = k < start_level;
    if (!replay) {
      if (StopReason r = tracker.CheckBoundary();
          r != StopReason::kCompleted) {
        return finish_partial(k, r);
      }
    }

    std::vector<Bitset> cand_sets;
    cand_sets.reserve(candidates.size());
    std::vector<size_t> supports(candidates.size(), 0);
    std::vector<size_t> fresh_idx;
    std::vector<Bitset> fresh_sets;
    for (size_t i = 0; i < candidates.size(); ++i) {
      cand_sets.push_back(Bitset::FromIndices(n, candidates[i].items));
      auto it = tracked_.find(cand_sets.back());
      if (it != tracked_.end()) {
        supports[i] = it->second;
      } else {
        fresh_idx.push_back(i);
        fresh_sets.push_back(cand_sets.back());
      }
    }
    if (replay) {
      HGMINE_CHECK(fresh_idx.empty())
          << "stream resume: level " << k
          << " has an untracked candidate; checkpoint does not belong to "
             "this boundary";
    } else {
      if (!fresh_idx.empty()) {
        StopReason pre = tracker.CheckBeforeBatch(
            fresh_idx.size(), uint64_t{fresh_idx.size()} * ((n + 7) / 8));
        if (pre != StopReason::kCompleted) {
          return finish_partial(k, pre);
        }
        std::vector<size_t> fresh = CountFreshBatch(fresh_sets);
        for (size_t j = 0; j < fresh_idx.size(); ++j) {
          supports[fresh_idx[j]] = fresh[j];
          tracked_.emplace(fresh_sets[j], fresh[j]);
        }
        tracker.ChargeQueries(fresh_idx.size());
        result.evaluations += fresh_idx.size();
        HGM_OBS_COUNT("stream.evaluations", fresh_idx.size());
      }
      result.reused += candidates.size() - fresh_idx.size();
      HGM_OBS_COUNT("stream.reused", candidates.size() - fresh_idx.size());
      obs::FlightRecorder::Global().Record(
          obs::FlightEventType::kLevel, "stream.level",
          static_cast<int64_t>(k), static_cast<int64_t>(fresh_idx.size()));
    }

    std::vector<ItemVec> next;
    std::unordered_set<Bitset, BitsetHash> next_set;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (supports[i] >= min_support_) {
        result.frequent.push_back({cand_sets[i], supports[i]});
        next_set.insert(cand_sets[i]);
        next.push_back(candidates[i].items);
      } else {
        result.negative_border.push_back(cand_sets[i]);
      }
    }
    if (next.empty()) break;
    level = std::move(next);
    level_set = std::move(next_set);
  }
  return FinishRepair(std::move(result));
}

StreamWindowResult StreamMiner::FinishRepair(StreamWindowResult result) {
  // Bd+ from Th; same family and order as the batch miner's per-level
  // sweep followed by AntichainMaximize + CanonicalSort.
  std::vector<Bitset> maximal;
  maximal.reserve(result.frequent.size());
  for (const FrequentItemset& f : result.frequent) {
    maximal.push_back(f.items);
  }
  AntichainMaximize(&maximal);
  CanonicalSort(&maximal);
  result.maximal = std::move(maximal);
  CanonicalSort(&result.negative_border);
  SortFrequent(&result.frequent);

  if (options_.cross_check_borders) {
    // Theorem 7 (the Berge dualization path): Bd-(Th) is the minimal
    // transversals of the complemented Bd+.  The repaired border must be
    // the same family, or the incremental state has drifted.
    std::vector<Bitset> theory;
    theory.reserve(result.frequent.size());
    for (const FrequentItemset& f : result.frequent) {
      theory.push_back(f.items);
    }
    BergeTransversals berge;
    std::vector<Bitset> via_tr =
        NegativeBorderViaTransversals(theory, num_items_, &berge);
    HGMINE_CHECK(SameFamily(via_tr, result.negative_border))
        << "stream repair drifted: Bd- disagrees with the Theorem-7 "
           "dualization of the repaired theory at window "
        << result.window_index;
  }

  // Promotion/demotion accounting against the previous boundary's Th.
  std::unordered_set<Bitset, BitsetHash> theory_now;
  theory_now.reserve(result.frequent.size());
  for (const FrequentItemset& f : result.frequent) {
    theory_now.insert(f.items);
    if (!prev_theory_.contains(f.items)) ++result.promoted;
  }
  for (const Bitset& x : prev_theory_) {
    if (!theory_now.contains(x)) ++result.demoted;
  }

  // The tracked population for the next boundary is exactly this
  // boundary's Th ∪ Bd- (∅ implicit): every member was decided above, so
  // its exact support is at hand; everything else is dropped — stale
  // entries never survive a boundary.
  std::unordered_map<Bitset, size_t, BitsetHash> next_tracked;
  next_tracked.reserve(result.frequent.size() +
                       result.negative_border.size());
  for (const FrequentItemset& f : result.frequent) {
    if (f.items.Count() == 0) continue;
    next_tracked.emplace(f.items, f.support);
  }
  for (const Bitset& x : result.negative_border) {
    if (x.Count() == 0) continue;
    auto it = tracked_.find(x);
    HGMINE_CHECK(it != tracked_.end())
        << "stream repair lost the support of a negative-border set";
    next_tracked.emplace(x, it->second);
  }
  tracked_ = std::move(next_tracked);
  prev_theory_ = std::move(theory_now);

  repair_pending_ = false;
  ++window_index_;
  result.stop_reason = StopReason::kCompleted;

  HGM_OBS_COUNT("stream.windows", 1);
  HGM_OBS_COUNT("stream.promoted", result.promoted);
  HGM_OBS_COUNT("stream.demoted", result.demoted);
  HGM_OBS_GAUGE_SET("stream.last_window_rows",
                    static_cast<int64_t>(result.rows_in_window));
  HGM_OBS_GAUGE_SET("stream.last_theory_size",
                    static_cast<int64_t>(result.frequent.size()));
  HGM_OBS_GAUGE_SET("stream.last_negative_border",
                    static_cast<int64_t>(result.negative_border.size()));
  HGM_OBS_GAUGE_SET("stream.last_evaluations",
                    static_cast<int64_t>(result.evaluations));
  HGM_OBS_GAUGE_SET("stream.last_reused",
                    static_cast<int64_t>(result.reused));
  HGM_OBS_GAUGE_SET("stream.last_promoted",
                    static_cast<int64_t>(result.promoted));
  HGM_OBS_GAUGE_SET("stream.last_demoted",
                    static_cast<int64_t>(result.demoted));
  (void)obs::SampleMemory();  // boundary edge: tracked state peaks here
  return result;
}

void StreamMiner::CoarsenExpired(const TransactionDatabase& bucket) {
  if (tilt_levels_.empty()) tilt_levels_.emplace_back();
  TiltedSummary summary;
  summary.buckets = 1;
  summary.rows = bucket.num_transactions();
  summary.item_supports = bucket.ItemSupports();
  tilt_levels_[0].push_back(std::move(summary));
  // FP-Stream's tilted-time cascade: when a granularity level overflows,
  // its two oldest summaries merge into one cell of the next (coarser)
  // level — recent history stays fine-grained, old history logarithmic.
  for (size_t g = 0; g < tilt_levels_.size(); ++g) {
    if (tilt_levels_[g].size() <= options_.tilt_capacity) break;
    if (g + 1 == tilt_levels_.size()) tilt_levels_.emplace_back();
    TiltedSummary a = std::move(tilt_levels_[g].front());
    tilt_levels_[g].pop_front();
    TiltedSummary b = std::move(tilt_levels_[g].front());
    tilt_levels_[g].pop_front();
    TiltedSummary merged;
    merged.buckets = a.buckets + b.buckets;
    merged.rows = a.rows + b.rows;
    merged.item_supports = std::move(a.item_supports);
    for (size_t i = 0; i < merged.item_supports.size(); ++i) {
      merged.item_supports[i] += b.item_supports[i];
    }
    tilt_levels_[g + 1].push_back(std::move(merged));
    HGM_OBS_COUNT("stream.coarsen_merges", 1);
    obs::FlightRecorder::Global().Record(
        obs::FlightEventType::kMark, "stream.coarsen",
        static_cast<int64_t>(g + 1), static_cast<int64_t>(merged.rows));
  }
  HGM_OBS_GAUGE_SET("stream.last_tilt_levels",
                    static_cast<int64_t>(tilt_levels_.size()));
}

TransactionDatabase StreamMiner::WindowSnapshot() const {
  TransactionDatabase db(num_items_);
  for (const TransactionDatabase& bucket : ring_) {
    for (const Bitset& row : bucket.rows()) {
      db.AddTransaction(row);
    }
  }
  return db;
}

std::vector<TiltedSummary> StreamMiner::TiltedHistory() const {
  std::vector<TiltedSummary> out;
  for (size_t g = tilt_levels_.size(); g-- > 0;) {
    for (const TiltedSummary& s : tilt_levels_[g]) out.push_back(s);
  }
  return out;
}

}  // namespace hgm
