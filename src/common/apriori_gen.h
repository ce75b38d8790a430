#pragma once

/// \file apriori_gen.h
/// \brief Levelwise candidate generation over the subset lattice.
///
/// Step 5 of Algorithm 9 specialized to languages represented as sets:
/// given the interesting sets of size k (as sorted index vectors, sorted
/// lexicographically), produce the candidate sets of size k+1 all of whose
/// k-subsets are interesting.  This is the classic apriori-gen join+prune
/// of [2]; the paper notes it "uses only a negligible amount of time"
/// compared to evaluating the quality predicate.

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/bitset.h"

namespace hgm {

using ItemVec = std::vector<uint32_t>;

/// A (k+1)-candidate and the two k-sets it was joined from, as indices
/// into the generating level (parent_i < parent_j).  Apriori intersects
/// the parents' covers to count the candidate; the other callers only
/// read `items`.
struct AprioriCandidate {
  ItemVec items;
  size_t parent_i = 0;
  size_t parent_j = 0;
};

/// Joins lexicographically sorted k-sets sharing a (k-1)-prefix and prunes
/// candidates with a non-interesting k-subset.  \p level must be sorted,
/// duplicate-free and contain sets of equal size k >= 1; \p level_set
/// must contain exactly the Bitset forms of \p level (any container with
/// `contains(const Bitset&)`, or a FrontierIndex, whose `Find` gives
/// positions).  The join walks \p level in order, so the
/// (k+1)-candidates come out sorted and duplicate-free.  When \p sets is
/// given, (*sets)[c] receives candidate c as a Bitset over \p n items.
/// When \p subsets is given (with a FrontierIndex), candidate c appends
/// the positions of its k - 1 subsets other than the two join parents
/// (those found by the prune), so (*subsets)[c * (k - 1) + d] is the
/// subset without item d.
template <typename LevelSet = std::unordered_set<Bitset, BitsetHash>>
std::vector<AprioriCandidate> AprioriGen(const std::vector<ItemVec>& level,
                                         const LevelSet& level_set, size_t n,
                                         std::vector<Bitset>* sets = nullptr,
                                         std::vector<uint32_t>* subsets =
                                             nullptr) {
  std::vector<AprioriCandidate> candidates;
  if (sets != nullptr) sets->clear();
  if (subsets != nullptr) subsets->clear();
  if (level.empty()) return candidates;
  const size_t k = level[0].size();
  for (size_t i = 0; i < level.size(); ++i) {
    // level[i] as a Bitset; each join below sets and clears one more bit.
    Bitset x;
    for (size_t j = i + 1; j < level.size(); ++j) {
      if (!std::equal(level[i].begin(), level[i].end() - 1,
                      level[j].begin())) {
        break;  // sorted input keeps shared-prefix blocks contiguous
      }
      if (x.size() != n) x = Bitset::FromIndices(n, level[i]);
      // Prune: dropping either of the last two items gives a join parent,
      // so only the first k-1 drops need a lookup.  Each one clears and
      // restores a bit of the candidate in place.
      x.Set(level[j].back());
      const size_t mark = subsets != nullptr ? subsets->size() : 0;
      bool ok = true;
      for (size_t drop = 0; ok && drop + 1 < k; ++drop) {
        x.Reset(level[i][drop]);
        if constexpr (requires { level_set.Find(x); }) {
          const int64_t at = level_set.Find(x);
          ok = at >= 0;
          if (ok && subsets != nullptr) {
            subsets->push_back(static_cast<uint32_t>(at));
          }
        } else {
          ok = level_set.contains(x);
        }
        x.Set(level[i][drop]);
      }
      if (ok) {
        ItemVec cand;
        cand.reserve(k + 1);
        cand.assign(level[i].begin(), level[i].end());
        cand.push_back(level[j].back());
        if (sets != nullptr) sets->push_back(x);
        candidates.push_back({std::move(cand), i, j});
      } else if (subsets != nullptr) {
        subsets->resize(mark);
      }
      x.Reset(level[j].back());
    }
  }
  return candidates;
}

/// All singleton candidates {0}, ..., {n-1} (level-1 seeding).  Each one
/// extends the only level-0 set, ∅, so both parents are index 0.
inline std::vector<AprioriCandidate> SingletonCandidates(size_t n) {
  std::vector<AprioriCandidate> out;
  out.reserve(n);
  for (uint32_t v = 0; v < n; ++v) out.push_back({ItemVec{v}, 0, 0});
  return out;
}

}  // namespace hgm
