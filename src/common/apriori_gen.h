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
/// duplicate-free and contain sets of equal size k >= 1; \p level_set must
/// contain exactly the Bitset forms of \p level.  The join walks \p level
/// in order, so the (k+1)-candidates come out sorted and duplicate-free.
inline std::vector<AprioriCandidate> AprioriGen(
    const std::vector<ItemVec>& level,
    const std::unordered_set<Bitset, BitsetHash>& level_set, size_t n) {
  std::vector<AprioriCandidate> candidates;
  if (level.empty()) return candidates;
  const size_t k = level[0].size();
  for (size_t i = 0; i < level.size(); ++i) {
    for (size_t j = i + 1; j < level.size(); ++j) {
      if (!std::equal(level[i].begin(), level[i].end() - 1,
                      level[j].begin())) {
        break;  // sorted input keeps shared-prefix blocks contiguous
      }
      ItemVec cand = level[i];
      cand.push_back(level[j].back());
      if (cand[k - 1] > cand[k]) std::swap(cand[k - 1], cand[k]);
      bool ok = true;
      for (size_t drop = 0; ok && drop + 2 <= cand.size(); ++drop) {
        ItemVec sub;
        sub.reserve(k);
        for (size_t t = 0; t < cand.size(); ++t) {
          if (t != drop) sub.push_back(cand[t]);
        }
        ok = level_set.contains(Bitset::FromIndices(n, sub));
      }
      if (ok) candidates.push_back({std::move(cand), i, j});
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
