#pragma once

/// \file theory.h
/// \brief Theories, borders, and the transversal connection (Sections 2-3).
///
/// For a set S of sentences (represented as sets over n items, closed
/// downwards or not):
///
///  * Bd+(S) — positive border: the maximal elements of (the downward
///    closure of) S,
///  * Bd-(S) — negative border: the minimal sets outside the downward
///    closure of S,
///  * Theorem 7: Bd-(S) = Tr(H(S)) where H(S) = complements of Bd+(S).
///
/// Brute-force reference implementations (exponential in n) back every
/// optimized algorithm in tests.

#include <vector>

#include "common/bitset.h"
#include "core/oracle.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/transversal.h"

namespace hgm {

/// Positive border of S: maximal elements under inclusion.  S need not be
/// downward closed (the border of S is defined as the border of its
/// downward closure, and maximal elements coincide).
std::vector<Bitset> PositiveBorder(std::vector<Bitset> s);

/// Negative border via Theorem 7: complements of Bd+(S), then minimal
/// transversals.  \p n is the universe size; \p engine computes Tr.
/// For empty S the downward closure is empty, and Bd- = {∅}.
std::vector<Bitset> NegativeBorderViaTransversals(
    const std::vector<Bitset>& s, size_t n, TransversalAlgorithm* engine);

/// Negative border of a *downward-closed* \p s without a transversal
/// computation: BordersOfDownClosed(s, n).negative.
std::vector<Bitset> NegativeBorderViaGeneration(const std::vector<Bitset>& s,
                                                size_t n);

/// Both borders of one family.
struct Borders {
  std::vector<Bitset> positive;  ///< Bd+, canonically sorted
  std::vector<Bitset> negative;  ///< Bd-, canonically sorted
};

/// Bd+ and Bd- of a *downward-closed* \p s over \p n items, from one
/// levelwise walk (common/level_loop.h) whose predicate is membership in
/// s: Bd-_{k+1} is apriori-gen(s_k) \ s_{k+1}, the candidates Apriori
/// would generate and reject, and Bd+ comes from the walk's subset
/// marking.  Same families as Theorem 7's transversal route, at the cost
/// of the join.  For empty s, Bd+ = {} and Bd- = {∅}.
Borders BordersOfDownClosed(const std::vector<Bitset>& s, size_t n);

/// Brute-force negative border: enumerate all 2^n subsets and keep the
/// minimal ones outside the downward closure of S.  Reference for tests;
/// n <= ~22.
std::vector<Bitset> NegativeBorderBrute(const std::vector<Bitset>& s,
                                        size_t n);

/// Explicit downward closure of S (all subsets of members); exponential.
std::vector<Bitset> DownwardClosure(const std::vector<Bitset>& s, size_t n);

/// Brute-force theory: all interesting sets per the oracle (2^n queries).
/// Reference implementation of Th(L, r, q) for tests; n <= ~22.
std::vector<Bitset> ComputeTheoryBrute(InterestingnessOracle* oracle);

/// Brute-force MTh: maximal interesting sets.
std::vector<Bitset> MaxTheoryBrute(InterestingnessOracle* oracle);

/// rank(C): maximum cardinality over the sets in C (paper Section 5);
/// 0 for empty C.
size_t RankOf(const std::vector<Bitset>& c);

/// Sorts a family canonically (by size then value) for deterministic
/// comparisons and output.
void CanonicalSort(std::vector<Bitset>* sets);

/// Set equality of two families, ignoring order and duplicates.
bool SameFamily(std::vector<Bitset> a, std::vector<Bitset> b);

}  // namespace hgm
