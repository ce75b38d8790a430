#pragma once

/// \file level_loop.h
/// \brief The level loop of Algorithm 9, shared by every levelwise walk.
///
/// Everything Algorithm 9 does between two levels lives here once: the
/// level-edge budget checks (a trip leaves the walk at a level boundary a
/// checkpoint resumes from), candidate generation (singletons, then
/// apriori-gen), the split of the decided candidates into the next
/// frontier and Bd-, the per-level tallies, span, flight event and memory
/// sample under the caller's names, and Bd+.  Bd+ comes from
/// downward-closure marking: each kept (k+1)-set marks its k-subsets,
/// found by the prune step's lookups, and in a downward-closed theory the
/// unmarked k-sets are exactly the maximal ones — O(sum |X|) work where a
/// subset sweep is O(|L_k| * |L_{k+1}|).  At a trip or a size cap, Bd+ of
/// the theory so far is `maximal` plus the frontier.
///
/// A caller supplies only a kernel that decides one level's candidates:
///
///   std::vector<uint8_t> Evaluate(CandidateLevel& level);
///       result[c] != 0 iff candidate c is kept (interesting).  Called
///       once per level, in level order; the kernel records anything
///       else it needs (supports, covers, the theory) itself, and may
///       take `level.sets`: the loop reads only `candidates` and
///       `subsets` afterwards.
///   uint64_t Plan(const CandidateLevel& level);            (optional)
///       the queries Evaluate will charge, for the pre-batch budget
///       check; defaults to the number of candidates.
///
/// Kernels: oracle verdicts (core/levelwise.cc), parent-cover ANDs
/// (mining/apriori.cc), tracked or fresh window supports
/// (mining/stream.cc), stripped-partition products (fd/partitions.cc),
/// "is not a transversal" (hypergraph/transversal_levelwise.cc) and
/// membership in a down-closed family (core/theory.cc).

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/apriori_gen.h"
#include "common/bitset.h"
#include "common/run_budget.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace hgm {

/// A family's positions by set: an open-addressing table over the sets'
/// words, built once.  The loop indexes each frontier with it for
/// apriori-gen's prune lookups.
class FrontierIndex {
 public:
  /// Indexes \p frontier (sets over \p n items) by position.
  void Build(const std::vector<ItemVec>& frontier, size_t n) {
    Reset(frontier.size(), n);
    for (size_t p = 0; p < size_; ++p) {
      uint64_t* key = keys_.data() + p * words_;
      for (uint32_t item : frontier[p]) key[item / 64] |= uint64_t{1} << (item % 64);
      Insert(p);
    }
  }

  /// Indexes \p sets (each over \p n items) by position.
  void Build(const std::vector<Bitset>& sets, size_t n) {
    Reset(sets.size(), n);
    for (size_t p = 0; p < size_; ++p) {
      std::copy(sets[p].words().begin(), sets[p].words().end(),
                keys_.begin() + static_cast<std::ptrdiff_t>(p * words_));
      Insert(p);
    }
  }

  /// Position of \p x in the frontier, or -1.
  int64_t Find(const Bitset& x) const {
    if (size_ == 0) return -1;
    const uint64_t* key = x.words().data();
    const size_t mask = slots_.size() - 1;
    for (size_t h = Hash(key) & mask; slots_[h] != 0; h = (h + 1) & mask) {
      const size_t p = slots_[h] - 1;
      if (std::equal(key, key + words_, keys_.data() + p * words_)) {
        return static_cast<int64_t>(p);
      }
    }
    return -1;
  }

  size_t size() const { return size_; }
  void clear() { size_ = 0; }

 private:
  void Reset(size_t size, size_t n) {
    words_ = (n + 63) / 64;
    size_ = size;
    keys_.assign(size_ * words_, 0);
    size_t capacity = 16;
    while (capacity < 2 * size_) capacity *= 2;
    slots_.assign(capacity, 0);
  }

  /// Adds position \p p, whose key is in place.
  void Insert(size_t p) {
    const size_t mask = slots_.size() - 1;
    size_t h = Hash(keys_.data() + p * words_) & mask;
    while (slots_[h] != 0) h = (h + 1) & mask;
    slots_[h] = static_cast<uint32_t>(p + 1);
  }

  /// The words folded through the splitmix64 finalizer, so every bit
  /// reaches the low bits the table uses.
  uint64_t Hash(const uint64_t* key) const {
    uint64_t h = 0;
    for (size_t w = 0; w < words_; ++w) {
      h = (h ^ key[w]) + 0x9e3779b97f4a7c15ull;
      h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
      h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
      h ^= h >> 31;
    }
    return h;
  }

  size_t words_ = 0;
  size_t size_ = 0;
  std::vector<uint64_t> keys_;   // position p's words at p * words_
  std::vector<uint32_t> slots_;  // position + 1; 0 = empty
};

/// One level's candidates, as a kernel sees them.
struct CandidateLevel {
  /// Set size of every candidate (the frontier's size + 1).
  size_t size = 0;
  /// Candidates in apriori-gen order, with their join parents as
  /// positions in the frontier.
  std::vector<AprioriCandidate> candidates;
  /// sets[c] is candidates[c].items as a Bitset.
  std::vector<Bitset> sets;
  /// subsets[c * (size - 2) + d]: frontier position of candidate c's
  /// subset without its item d, for every d but the two parents'.
  std::vector<uint32_t> subsets;
};

/// The state of a levelwise walk at a level boundary: everything a
/// checkpoint must hold to resume it.
struct LevelWalk {
  /// A fresh walk, once the caller has decided ∅ itself: the frontier
  /// {∅} when ∅ is kept, else no frontier and Bd- = {∅}.
  static LevelWalk AfterEmptySet(bool kept, size_t n) {
    LevelWalk walk;
    if (!kept) {
      walk.frontier.clear();
      walk.negative.push_back(Bitset(n));
    }
    return walk;
  }

  /// Set size of the frontier; the next candidates have size + 1.
  size_t size = 0;
  /// The kept sets of that size, lexicographically sorted.
  std::vector<ItemVec> frontier = {ItemVec{}};
  /// Bd+ so far: sets of finished levels that no kept set extends, in
  /// discovery order.  Empty when Bd+ is not tracked.
  std::vector<Bitset> maximal;
  /// Bd- so far: the rejected candidates, in discovery order.
  std::vector<Bitset> negative;
  /// Per-level tallies, index = set size.  The loop appends one entry per
  /// level it evaluates; callers that count ∅ seed level 0.
  std::vector<size_t> candidates_per_level;
  std::vector<size_t> kept_per_level;
  /// Frontier set -> its position; built by the loop (and rebuilt from
  /// `frontier` when a resumed walk arrives without it).
  FrontierIndex index;

  /// Replaces the frontier (resuming a walk); false unless every set has
  /// `size` items.
  bool SetFrontier(const std::vector<Bitset>& sets) {
    frontier.clear();
    index.clear();
    for (const Bitset& x : sets) {
      if (x.Count() != size) return false;
      ItemVec items;
      x.ForEach([&](size_t i) { items.push_back(static_cast<uint32_t>(i)); });
      frontier.push_back(std::move(items));
    }
    return true;
  }

  /// The frontier as Bitsets over \p n items.
  std::vector<Bitset> FrontierSets(size_t n) const {
    std::vector<Bitset> out;
    out.reserve(frontier.size());
    for (const ItemVec& items : frontier) {
      out.push_back(Bitset::FromIndices(n, items));
    }
    return out;
  }

  /// Bd+ of the theory found so far, canonically sorted: `maximal` plus
  /// the frontier (maximal until the next level is evaluated).
  std::vector<Bitset> PositiveBorderSoFar(size_t n) const {
    std::vector<Bitset> out = FrontierSets(n);
    out.insert(out.end(), maximal.begin(), maximal.end());
    std::sort(out.begin(), out.end(), CanonicalLess);
    return out;
  }

  /// Moves Bd- so far out, canonically sorted.
  std::vector<Bitset> TakeNegativeBorder() {
    std::sort(negative.begin(), negative.end(), CanonicalLess);
    return std::move(negative);
  }
};

/// Telemetry names for one caller's levels; null entries are skipped.
struct LevelLoopNames {
  const char* span = nullptr;      ///< trace span per level
  const char* category = "core";   ///< the span's trace category
  const char* flight = nullptr;    ///< kLevel flight event (size, frontier)
  /// Counters of candidates decided and kept, and the histogram of level
  /// sizes: all three or none.
  const char* candidates = nullptr;
  const char* kept = nullptr;
  const char* level_candidates = nullptr;
  const char* kept_arg = "kept";  ///< span argument for `kept`
  bool sample_memory = false;  ///< obs::SampleMemory at each level edge
};

/// How one walk runs.
struct LevelLoopOptions {
  size_t num_items = 0;
  /// Largest candidate size to evaluate; Bitset::npos means no cap.
  size_t max_size = Bitset::npos;
  /// Level-edge budget checks; nullptr runs unbudgeted.
  BudgetTracker* tracker = nullptr;
  /// Candidate sizes below this replay levels decided before a trip: they
  /// skip the budget checks and charge nothing.
  size_t replay_below = 0;
  /// Mark subsets to collect Bd+ in LevelWalk::maximal.
  bool track_maximal = true;
  LevelLoopNames names;
};

/// Runs levels until the frontier empties (kCompleted), the size cap is
/// reached (kCompleted, with a nonempty frontier), or the budget trips at
/// a level edge (the StopReason; nothing of the tripped level is in
/// \p walk, so it resumes the walk as is).
template <typename Kernel>
StopReason RunLevelLoop(LevelWalk* walk, Kernel& kernel,
                        const LevelLoopOptions& options) {
  const size_t n = options.num_items;
  const LevelLoopNames& names = options.names;
  if (walk->size > 0 && walk->index.size() != walk->frontier.size()) {
    walk->index.Build(walk->frontier, n);
  }
  while (!walk->frontier.empty() && walk->size < options.max_size) {
    const size_t size = walk->size + 1;
    BudgetTracker* tracker =
        size < options.replay_below ? nullptr : options.tracker;
    // Level edge: nothing of this level is recorded yet, so a trip here
    // resumes by re-entering the loop at the same frontier.
    if (tracker != nullptr) {
      StopReason r = tracker->CheckBoundary();
      if (r != StopReason::kCompleted) return r;
    }
    std::optional<obs::TraceSpan> span;
    if (names.span != nullptr) {
      span.emplace(names.span, names.category,
                   std::initializer_list<obs::TraceArg>{{"level", size}});
    }
    if (names.flight != nullptr) {
      obs::FlightRecorder::Global().Record(
          obs::FlightEventType::kLevel, names.flight,
          static_cast<int64_t>(size),
          static_cast<int64_t>(walk->frontier.size()));
    }
    if (names.sample_memory) (void)obs::SampleMemory();

    CandidateLevel level;
    level.size = size;
    if (walk->size == 0) {
      level.candidates = SingletonCandidates(n);
      level.sets.reserve(n);
      for (size_t v = 0; v < n; ++v) {
        level.sets.push_back(Bitset::Singleton(n, v));
      }
    } else {
      level.candidates = AprioriGen(walk->frontier, walk->index, n,
                                    &level.sets, &level.subsets);
    }

    // Pre-batch check: generation touched no data, so a trip here drops
    // the candidates and the resumed walk regenerates them identically.
    uint64_t cost = level.candidates.size();
    if constexpr (requires { kernel.Plan(level); }) {
      cost = kernel.Plan(level);
    }
    if (tracker != nullptr && cost > 0) {
      StopReason r = tracker->CheckBeforeBatch(cost, cost * ((n + 7) / 8));
      if (r != StopReason::kCompleted) return r;
    }
    const std::vector<uint8_t> keep = kernel.Evaluate(level);
    if (tracker != nullptr) tracker->ChargeQueries(cost);

    // Split into the next frontier and Bd-, marking each kept set's
    // one-smaller subsets: the join parents and the positions the prune
    // step looked up.
    std::vector<uint8_t> extended(options.track_maximal ? walk->frontier.size()
                                                        : 0);
    std::vector<ItemVec> next;
    for (size_t c = 0; c < level.candidates.size(); ++c) {
      AprioriCandidate& cand = level.candidates[c];
      if (!keep[c]) {
        walk->negative.push_back(Bitset::FromIndices(n, cand.items));
        continue;
      }
      if (options.track_maximal) {
        extended[cand.parent_i] = 1;
        extended[cand.parent_j] = 1;
        const size_t others = size >= 2 ? size - 2 : 0;
        for (size_t d = 0; d < others; ++d) {
          extended[level.subsets[c * others + d]] = 1;
        }
      }
      next.push_back(std::move(cand.items));
    }
    if (options.track_maximal) {
      for (size_t i = 0; i < walk->frontier.size(); ++i) {
        if (!extended[i]) {
          walk->maximal.push_back(Bitset::FromIndices(n, walk->frontier[i]));
        }
      }
    }

    const size_t decided = level.candidates.size();
    walk->candidates_per_level.push_back(decided);
    walk->kept_per_level.push_back(next.size());
    if (obs::MetricsOn() && names.candidates != nullptr) {
      obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
      metrics.GetCounter(names.candidates).Add(decided);
      metrics.GetCounter(names.kept).Add(next.size());
      metrics.GetHistogram(names.level_candidates).Observe(decided);
    }
    if (span) {
      span->AddArg("candidates", decided);
      span->AddArg(names.kept_arg, next.size());
      span->AddArg("border_growth", walk->negative.size());
    }
    walk->frontier = std::move(next);
    walk->index.Build(walk->frontier, n);
    walk->size = size;
  }
  return StopReason::kCompleted;
}

}  // namespace hgm
