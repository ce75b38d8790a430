#include "mining/stream.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.h"
#include "common/level_loop.h"
#include "core/theory.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/transversal_berge.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace hgm {

namespace {

/// The order AprioriGen emits sets of one size in, on flat set words:
/// lexicographic on the sorted items, so the set holding the smallest
/// element of the symmetric difference comes first.  < 0, 0 or > 0.
int CompareGenOrder(const uint64_t* a, const uint64_t* b, size_t words) {
  for (size_t i = 0; i < words; ++i) {
    const uint64_t diff = a[i] ^ b[i];
    if (diff != 0) return (a[i] & diff & (~diff + 1)) != 0 ? -1 : 1;
  }
  return 0;
}

/// The largest item of a nonempty flat set.
size_t LargestItem(const uint64_t* set, size_t words) {
  size_t w = words;
  while (set[--w] == 0) {
  }
  return 64 * w + 63 - static_cast<size_t>(std::countl_zero(set[w]));
}

/// Each item's cover words in \p bucket (vertical index built).
std::vector<const uint64_t*> ItemCovers(const TransactionDatabase& bucket,
                                        size_t n) {
  std::vector<const uint64_t*> covers(n);
  for (size_t v = 0; v < n; ++v) {
    covers[v] = bucket.ItemCoverPrebuilt(v).words().data();
  }
  return covers;
}

/// Rows of a bucket of \p words words holding every item of the
/// nonempty \p items, given the bucket's ItemCovers.
size_t BucketSupport(const std::vector<const uint64_t*>& covers, size_t words,
                     const ItemVec& items) {
  size_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t acc = covers[items[0]][w];
    for (size_t i = 1; i < items.size(); ++i) acc &= covers[items[i]][w];
    count += static_cast<size_t>(std::popcount(acc));
  }
  return count;
}

Bitset SetFromWords(size_t n, const uint64_t* set) {
  Bitset x(n);
  for (size_t i = 0; i < n; ++i) {
    if ((set[i / 64] >> (i % 64)) & 1) x.Set(i);
  }
  return x;
}

}  // namespace

StreamMiner::StreamMiner(size_t num_items, size_t min_support,
                         size_t window_rows, StreamOptions options)
    : num_items_(num_items),
      min_support_(min_support),
      window_rows_(window_rows),
      slide_rows_(options.slide_rows == 0 ? window_rows : options.slide_rows),
      words_per_set_((num_items + 63) / 64),
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
  HGM_OBS_COUNT("stream.delta_updates", TrackedCount(tracked_));
  UpdateTrackedSupports(arrived, expired);
  if (expire) ring_.pop_front();
  ring_.push_back(std::move(arrived));
}

size_t StreamMiner::TrackedCount(const std::vector<TrackedLevel>& levels) {
  size_t total = 0;
  for (const TrackedLevel& level : levels) total += level.size();
  return total;
}

void StreamMiner::UpdateTrackedSupports(const TransactionDatabase& arrived,
                                        const TransactionDatabase* expired) {
  // One level at a time: a set's cover in a bucket is its prefix's cover
  // (one level down) AND the cover of its largest item, so each tracked
  // set costs one word-wise AND per bucket.
  const std::vector<const TransactionDatabase*> buckets =
      expired == nullptr
          ? std::vector<const TransactionDatabase*>{&arrived}
          : std::vector<const TransactionDatabase*>{&arrived, expired};
  for (size_t b = 0; b < buckets.size(); ++b) {
    const TransactionDatabase& bucket = *buckets[b];
    const std::vector<const uint64_t*> items = ItemCovers(bucket, num_items_);
    const size_t words = (bucket.num_transactions() + 63) / 64;
    std::vector<uint64_t> below, here;
    for (size_t k = 1; k < tracked_.size(); ++k) {
      TrackedLevel& level = tracked_[k];
      here.resize(level.size() * words);
      for (size_t i = 0; i < level.size(); ++i) {
        const uint64_t* item = items[LargestItem(
            level.words.data() + i * words_per_set_, words_per_set_)];
        const uint64_t* prefix =
            k == 1 ? item : below.data() + level.prefix[i] * words;
        uint64_t* cover = here.data() + i * words;
        size_t count = 0;
        for (size_t w = 0; w < words; ++w) {
          cover[w] = prefix[w] & item[w];
          count += static_cast<size_t>(std::popcount(cover[w]));
        }
        if (b == 0) {
          level.supports[i] += count;
        } else {
          level.supports[i] -= count;
        }
      }
      below.swap(here);
    }
  }
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
  // The previous boundary's Th flags stay with the sets that carry them;
  // the resumed repair re-decides (and so re-stamps) every set it keeps.
  std::vector<std::vector<CheckpointEntry>> by_size;
  for (const CheckpointEntry& e : *tracked) {
    if (e.items.size() != num_items_) {
      return Status::InvalidArgument(
          "stream checkpoint tracked-set width mismatch");
    }
    const size_t k = e.items.Count();
    if (by_size.size() <= k) by_size.resize(k + 1);
    by_size[k].push_back(e);
  }
  std::vector<TrackedLevel> restored(by_size.size());
  for (size_t k = 0; k < by_size.size(); ++k) {
    std::vector<CheckpointEntry>& entries = by_size[k];
    std::stable_sort(entries.begin(), entries.end(),
                     [&](const CheckpointEntry& a, const CheckpointEntry& b) {
                       return CompareGenOrder(a.items.words().data(),
                                              b.items.words().data(),
                                              words_per_set_) < 0;
                     });
    TrackedLevel& level = restored[k];
    const TrackedLevel* before = k < tracked_.size() ? &tracked_[k] : nullptr;
    size_t j = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i > 0 && entries[i].items == entries[i - 1].items) continue;
      const uint64_t* x = entries[i].items.words().data();
      // The Th flag of the same set before the trip, found by a merge pass.
      bool in_theory = false;
      if (before != nullptr) {
        while (j < before->size() &&
               CompareGenOrder(before->words.data() + j * words_per_set_, x,
                               words_per_set_) < 0) {
          ++j;
        }
        in_theory = j < before->size() &&
                    CompareGenOrder(before->words.data() + j * words_per_set_,
                                    x, words_per_set_) == 0 &&
                    before->in_theory[j] != 0;
      }
      level.words.insert(level.words.end(), x, x + words_per_set_);
      level.supports.push_back(static_cast<size_t>(entries[i].value));
      level.in_theory.push_back(in_theory ? 1 : 0);
    }
  }
  tracked_ = std::move(restored);
  HGM_OBS_COUNT("stream.resumes", 1);
  return RunRepair(static_cast<size_t>(next_level), evaluations, reused);
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
  // The tracked population plus the running repair's fresh counts (a
  // set both hold carries the same support in each).
  std::vector<CheckpointEntry>* entries = cp.AddSection("tracked");
  entries->reserve(TrackedCount(tracked_) + TrackedCount(decided_));
  for (const std::vector<TrackedLevel>* levels : {&tracked_, &decided_}) {
    for (const TrackedLevel& level : *levels) {
      for (size_t i = 0; i < level.size(); ++i) {
        entries->push_back(
            {SetFromWords(num_items_, level.words.data() + i * words_per_set_),
             level.supports[i]});
      }
    }
  }
  // Canonical entry order, so checkpoint bytes are a function of the
  // mining state alone.
  std::sort(entries->begin(), entries->end(),
            [](const CheckpointEntry& a, const CheckpointEntry& b) {
              return CanonicalLess(a.items, b.items);
            });
  entries->erase(std::unique(entries->begin(), entries->end(),
                             [](const CheckpointEntry& a,
                                const CheckpointEntry& b) {
                               return a.items == b.items;
                             }),
                 entries->end());
  return cp;
}

/// The repair kernel: a candidate's window support is its tracked one
/// when the set was in Th ∪ Bd- of the previous boundary, found by one
/// merge pass over the tracked level (both are in apriori-gen order), and
/// a fresh full-window count otherwise.  Only the fresh counts are
/// charged.  Levels below `start_level` replay a repair that tripped:
/// every candidate there is already tracked.  Each decided level lands
/// in decided_, with the prefix positions the next delta pass follows.
struct StreamMiner::RepairKernel {
  StreamMiner* miner;
  StreamWindowResult* result;
  size_t start_level;
  // The level being decided: tracked supports, then the fresh ones, and
  // which candidates were in Th at the previous boundary.
  std::vector<size_t> supports = {};
  std::vector<size_t> fresh_idx = {};
  std::vector<uint8_t> was_in_theory = {};
  // Position in decided_ of each frontier set (the last level's kept sets).
  std::vector<uint32_t> frontier_pos = {};
  // Per ring bucket, oldest first: its item covers and words per cover.
  std::vector<std::vector<const uint64_t*>> ring_covers = {};
  std::vector<size_t> ring_words = {};

  uint64_t Plan(const CandidateLevel& level) {
    const size_t m = level.sets.size();
    supports.assign(m, 0);
    was_in_theory.assign(m, 0);
    fresh_idx.clear();
    const TrackedLevel* tracked = level.size < miner->tracked_.size()
                                      ? &miner->tracked_[level.size]
                                      : nullptr;
    const size_t words = miner->words_per_set_;
    size_t j = 0;
    for (size_t i = 0; i < m; ++i) {
      const uint64_t* x = level.sets[i].words().data();
      if (tracked != nullptr) {
        int order = 1;
        while (j < tracked->size() &&
               (order = CompareGenOrder(tracked->words.data() + j * words, x,
                                        words)) < 0) {
          ++j;
        }
        if (j < tracked->size() && order == 0) {
          supports[i] = tracked->supports[j];
          was_in_theory[i] = tracked->in_theory[j];
          continue;
        }
      }
      fresh_idx.push_back(i);
    }
    HGMINE_CHECK(level.size >= start_level || fresh_idx.empty())
        << "stream resume: level " << level.size
        << " has an untracked candidate; checkpoint does not belong to "
           "this boundary";
    return fresh_idx.size();
  }

  std::vector<uint8_t> Evaluate(const CandidateLevel& level) {
    if (level.size >= start_level) {
      // Fresh counts follow the oracle-seam cost contract: a batch of m
      // is m support computations, each slot written by one worker and
      // summed over the ring buckets in bucket order — bit-identical at
      // every thread count.  A batch too small to pay for waking the
      // pool runs inline.
      if (ring_covers.empty()) {
        for (const TransactionDatabase& bucket : miner->ring_) {
          ring_covers.push_back(ItemCovers(bucket, miner->num_items_));
          ring_words.push_back((bucket.num_transactions() + 63) / 64);
        }
      }
      const auto count = [&](size_t begin, size_t end, size_t) {
        for (size_t j = begin; j < end; ++j) {
          const ItemVec& items = level.candidates[fresh_idx[j]].items;
          for (size_t b = 0; b < ring_covers.size(); ++b) {
            supports[fresh_idx[j]] +=
                BucketSupport(ring_covers[b], ring_words[b], items);
          }
        }
      };
      if (fresh_idx.size() < kInlineBatchItems) {
        count(0, fresh_idx.size(), 0);
      } else {
        PoolOrGlobal(miner->options_.pool)->ParallelFor(fresh_idx.size(), count);
      }
      result->evaluations += fresh_idx.size();
      HGM_OBS_COUNT("stream.evaluations", fresh_idx.size());
      const size_t reused = level.sets.size() - fresh_idx.size();
      result->reused += reused;
      HGM_OBS_COUNT("stream.reused", reused);
    }
    const size_t m = level.sets.size();
    std::vector<TrackedLevel>& decided = miner->decided_;
    if (decided.size() <= level.size) decided.resize(level.size + 1);
    TrackedLevel& out = decided[level.size];
    out.words.clear();
    out.words.reserve(m * miner->words_per_set_);
    for (const Bitset& x : level.sets) {
      out.words.insert(out.words.end(), x.words().begin(), x.words().end());
    }
    out.supports = supports;
    out.in_theory.assign(m, 0);
    out.prefix.assign(m, 0);
    std::vector<uint8_t> keep(m, 0);
    std::vector<uint32_t> kept_pos;
    for (size_t i = 0; i < m; ++i) {
      if (level.size >= 2) {
        out.prefix[i] = frontier_pos[level.candidates[i].parent_i];
      }
      if (supports[i] < miner->min_support_) continue;
      keep[i] = 1;
      out.in_theory[i] = 1;
      kept_pos.push_back(static_cast<uint32_t>(i));
      if (!was_in_theory[i]) ++result->promoted;
      result->frequent.push_back({level.sets[i], supports[i]});
    }
    frontier_pos = std::move(kept_pos);
    return keep;
  }
};

StreamWindowResult StreamMiner::RunRepair(size_t start_level,
                                          uint64_t evaluations,
                                          uint64_t reused) {
  const size_t n = num_items_;
  obs::TraceSpan repair_span("stream.repair", "mining",
                             {{"window", window_index_},
                              {"rows", rows_in_window_},
                              {"tracked", TrackedCount(tracked_)}});
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kPhase, "stream.repair",
      static_cast<int64_t>(window_index_),
      static_cast<int64_t>(TrackedCount(tracked_)));

  StreamWindowResult result;
  result.window_index = window_index_;
  result.rows_in_window = rows_in_window_;
  result.evaluations = evaluations;
  result.reused = reused;

  // Level 0: ∅, answered from the ring's row count (see AdvanceWindow).
  const bool frequent = rows_in_window_ >= min_support_;
  if (frequent) result.frequent.push_back({Bitset(n), rows_in_window_});

  // Levels below start_level were decided before the trip that led here:
  // the replay rebuilds their output from the tracked supports without
  // charging queries or consulting the budget, so the resumed run's
  // tallies continue from the checkpoint's.
  BudgetTracker tracker(options_.budget, evaluations);
  LevelLoopOptions loop;
  loop.num_items = n;
  loop.tracker = &tracker;
  loop.replay_below = start_level;
  loop.names.flight = "stream.level";
  decided_.clear();
  RepairKernel kernel{this, &result, start_level};
  LevelWalk walk = LevelWalk::AfterEmptySet(frequent, n);
  const StopReason stop = RunLevelLoop(&walk, kernel, loop);
  result.negative_border = walk.TakeNegativeBorder();
  result.maximal = walk.PositiveBorderSoFar(n);
  if (stop != StopReason::kCompleted) {
    // The certified-partial exit for a trip at the edge of level k:
    // levels < k are fully decided, level k has left no trace.
    result.stop_reason = stop;
    result.checkpoint =
        MakeCheckpoint(walk.size + 1, result.evaluations, result.reused);
    SortFrequent(&result.frequent);
    return result;
  }
  return FinishRepair(std::move(result));
}

StreamWindowResult StreamMiner::FinishRepair(StreamWindowResult result) {
  SortFrequent(&result.frequent);

  if (options_.cross_check_borders) {
    // Theorem 7 (the Berge dualization path): Bd-(Th) is the minimal
    // transversals of the complemented Bd+.  The repaired border must be
    // the same family, or the incremental state has drifted.
    BergeTransversals berge;
    std::vector<Bitset> via_tr =
        NegativeBorderViaTransversals(result.maximal, num_items_, &berge);
    HGMINE_CHECK(SameFamily(via_tr, result.negative_border))
        << "stream repair drifted: Bd- disagrees with the Theorem-7 "
           "dualization of the repaired theory at window "
        << result.window_index;
  }

  // Promotion/demotion accounting against the previous boundary's Th:
  // the walk counted the sets it kept that were not in it, ∅ (in Th iff
  // Th is nonempty) is counted here.
  if (!result.frequent.empty() && prev_theory_size_ == 0) ++result.promoted;
  result.demoted =
      prev_theory_size_ - (result.frequent.size() - result.promoted);
  prev_theory_size_ = result.frequent.size();

  // The tracked population for the next boundary is exactly this
  // boundary's Th ∪ Bd- (∅ implicit): the sets this repair decided.
  // Everything else is dropped — stale entries never survive a boundary.
  tracked_ = std::move(decided_);
  decided_.clear();

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
