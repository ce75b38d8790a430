#include "core/theory.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "common/apriori_gen.h"

namespace hgm {

std::vector<Bitset> PositiveBorder(std::vector<Bitset> s) {
  AntichainMaximize(&s);
  return s;
}

std::vector<Bitset> NegativeBorderViaTransversals(
    const std::vector<Bitset>& s, size_t n, TransversalAlgorithm* engine) {
  // H(S) = { R \ f(phi) : phi in Bd+(S) }  (Theorem 7).
  std::vector<Bitset> maximal = PositiveBorder(s);
  Hypergraph h(n);
  for (const auto& m : maximal) h.AddEdge(~m);
  if (h.empty()) {
    // S empty: every singleton... no — the downward closure of ∅ is empty,
    // so the unique minimal set outside it is ∅ itself.  Tr of the
    // edge-free hypergraph is {∅}, which engine->Compute returns.
  }
  return engine->Compute(h).SortedEdges();
}

std::vector<Bitset> NegativeBorderViaGeneration(const std::vector<Bitset>& s,
                                                size_t n) {
  std::vector<Bitset> border;
  if (s.empty()) {
    border.push_back(Bitset(n));
    return border;
  }
  size_t max_k = 0;
  for (const Bitset& x : s) max_k = std::max(max_k, x.Count());
  std::vector<std::vector<ItemVec>> levels(max_k + 1);
  std::vector<std::unordered_set<Bitset, BitsetHash>> level_sets(max_k + 2);
  for (const Bitset& x : s) {
    const size_t k = x.Count();
    ItemVec v;
    v.reserve(k);
    x.ForEach([&](size_t i) { v.push_back(static_cast<uint32_t>(i)); });
    levels[k].push_back(std::move(v));
    level_sets[k].insert(x);
  }
  for (std::vector<ItemVec>& level : levels) {
    std::sort(level.begin(), level.end());
  }
  // Level 1 is not a join: the minimal infrequent singletons are simply
  // the items outside s (s downward closed and non-empty contains ∅, so
  // ∅ is never in the border here).
  for (size_t v = 0; v < n; ++v) {
    Bitset single = Bitset::Singleton(n, v);
    if (!level_sets[1].contains(single)) border.push_back(std::move(single));
  }
  for (size_t k = 1; k <= max_k; ++k) {
    if (levels[k].empty()) break;  // downward closed: nothing above either
    for (const AprioriCandidate& cand :
         AprioriGen(levels[k], level_sets[k], n)) {
      Bitset x = Bitset::FromIndices(n, cand.items);
      if (!level_sets[k + 1].contains(x)) border.push_back(std::move(x));
    }
  }
  CanonicalSort(&border);
  return border;
}

std::vector<Bitset> NegativeBorderBrute(const std::vector<Bitset>& s,
                                        size_t n) {
  assert(n <= 22 && "brute-force border needs small n");
  std::vector<Bitset> maximal = PositiveBorder(s);
  auto in_closure = [&](const Bitset& x) {
    for (const auto& m : maximal) {
      if (x.IsSubsetOf(m)) return true;
    }
    return false;
  };
  std::vector<Bitset> outside;
  const uint64_t limit = uint64_t{1} << n;
  for (uint64_t mask = 0; mask < limit; ++mask) {
    Bitset x(n);
    for (size_t v = 0; v < n; ++v) {
      if ((mask >> v) & 1) x.Set(v);
    }
    if (!in_closure(x)) outside.push_back(std::move(x));
  }
  AntichainMinimize(&outside);
  CanonicalSort(&outside);
  return outside;
}

std::vector<Bitset> DownwardClosure(const std::vector<Bitset>& s, size_t n) {
  std::unordered_set<Bitset, BitsetHash> seen;
  std::vector<Bitset> stack(s.begin(), s.end());
  while (!stack.empty()) {
    Bitset x = std::move(stack.back());
    stack.pop_back();
    if (!seen.insert(x).second) continue;
    for (size_t v = x.FindFirst(); v != Bitset::npos; v = x.FindNext(v)) {
      Bitset sub = x.WithoutBit(v);
      if (!seen.contains(sub)) stack.push_back(std::move(sub));
    }
  }
  std::vector<Bitset> out(seen.begin(), seen.end());
  CanonicalSort(&out);
  (void)n;
  return out;
}

std::vector<Bitset> ComputeTheoryBrute(InterestingnessOracle* oracle) {
  const size_t n = oracle->num_items();
  assert(n <= 22 && "brute-force theory needs small n");
  std::vector<Bitset> theory;
  const uint64_t limit = uint64_t{1} << n;
  for (uint64_t mask = 0; mask < limit; ++mask) {
    Bitset x(n);
    for (size_t v = 0; v < n; ++v) {
      if ((mask >> v) & 1) x.Set(v);
    }
    if (oracle->IsInteresting(x)) theory.push_back(std::move(x));
  }
  CanonicalSort(&theory);
  return theory;
}

std::vector<Bitset> MaxTheoryBrute(InterestingnessOracle* oracle) {
  std::vector<Bitset> theory = ComputeTheoryBrute(oracle);
  AntichainMaximize(&theory);
  CanonicalSort(&theory);
  return theory;
}

size_t RankOf(const std::vector<Bitset>& c) {
  size_t rank = 0;
  for (const auto& x : c) rank = std::max(rank, x.Count());
  return rank;
}

void CanonicalSort(std::vector<Bitset>* sets) {
  std::sort(sets->begin(), sets->end(),
            [](const Bitset& a, const Bitset& b) {
              size_t ca = a.Count(), cb = b.Count();
              if (ca != cb) return ca < cb;
              return a < b;
            });
}

bool SameFamily(std::vector<Bitset> a, std::vector<Bitset> b) {
  CanonicalSort(&a);
  a.erase(std::unique(a.begin(), a.end()), a.end());
  CanonicalSort(&b);
  b.erase(std::unique(b.begin(), b.end()), b.end());
  return a == b;
}

}  // namespace hgm
