#include "core/theory.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "common/level_loop.h"

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

Borders BordersOfDownClosed(const std::vector<Bitset>& s, size_t n) {
  const std::unordered_set<Bitset, BitsetHash> members(s.begin(), s.end());
  struct MembershipKernel {
    const std::unordered_set<Bitset, BitsetHash>* members;

    std::vector<uint8_t> Evaluate(const CandidateLevel& level) {
      std::vector<uint8_t> keep(level.sets.size(), 0);
      for (size_t c = 0; c < level.sets.size(); ++c) {
        keep[c] = members->contains(level.sets[c]) ? 1 : 0;
      }
      return keep;
    }
  };
  LevelLoopOptions loop;
  loop.num_items = n;
  MembershipKernel kernel{&members};
  // A nonempty down-closed s contains ∅; an empty one has Bd- = {∅}.
  LevelWalk walk = LevelWalk::AfterEmptySet(members.contains(Bitset(n)), n);
  (void)RunLevelLoop(&walk, kernel, loop);  // unbudgeted: always completes
  return {walk.PositiveBorderSoFar(n), walk.TakeNegativeBorder()};
}

std::vector<Bitset> NegativeBorderViaGeneration(const std::vector<Bitset>& s,
                                                size_t n) {
  return BordersOfDownClosed(s, n).negative;
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
  std::sort(sets->begin(), sets->end(), CanonicalLess);
}

bool SameFamily(std::vector<Bitset> a, std::vector<Bitset> b) {
  CanonicalSort(&a);
  a.erase(std::unique(a.begin(), a.end()), a.end());
  CanonicalSort(&b);
  b.erase(std::unique(b.begin(), b.end()), b.end());
  return a == b;
}

}  // namespace hgm
