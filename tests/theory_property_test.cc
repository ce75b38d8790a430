// Cross-cutting property tests for the border/transversal framework:
// dualities the paper proves, exercised on randomized instances well
// beyond the unit tests' hand examples.

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "core/dualize_advance.h"
#include "core/levelwise.h"
#include "core/oracle.h"
#include "core/theory.h"
#include "core/verification.h"
#include "hypergraph/transversal_berge.h"
#include "mining/frequency_oracle.h"
#include "mining/generators.h"

namespace hgm {
namespace {

struct WorkloadCase {
  size_t n;
  size_t patterns;
  size_t pattern_size;
  size_t copies;
  size_t noise_rows;
  uint64_t seed;
};

class FrequentSetPropertyTest
    : public ::testing::TestWithParam<WorkloadCase> {};

/// The master consistency test: on one workload, check every relationship
/// the paper establishes between Th, MTh, Bd-, transversals, levelwise,
/// Dualize and Advance, and verification.
TEST_P(FrequentSetPropertyTest, FrameworkInvariants) {
  const WorkloadCase& c = GetParam();
  Rng rng(c.seed);
  auto patterns = RandomPatterns(c.n, c.patterns, c.pattern_size, &rng);
  TransactionDatabase db =
      PlantedDatabase(c.n, patterns, c.copies, c.noise_rows, 2, &rng);
  const size_t minsup = c.copies;
  FrequencyOracle oracle(&db, minsup);

  // Guard: the predicate really is monotone (frequency always is, but
  // this also exercises MonotonicityCheckingOracle at scale).
  MonotonicityCheckingOracle checked(&oracle);
  LevelwiseResult lw = RunLevelwise(&checked);
  EXPECT_FALSE(checked.violation_found());

  // 1. Bd+(Th) from the recorded theory equals the reported MTh.
  EXPECT_TRUE(SameFamily(PositiveBorder(lw.theory), lw.positive_border));

  // 2. Theorem 7: Bd- = Tr(complements of MTh), via both engines and
  //    brute force when small.
  BergeTransversals berge;
  auto bd_tr =
      NegativeBorderViaTransversals(lw.positive_border, c.n, &berge);
  EXPECT_TRUE(SameFamily(bd_tr, lw.negative_border));
  if (c.n <= 14) {
    EXPECT_TRUE(SameFamily(NegativeBorderBrute(lw.positive_border, c.n),
                           lw.negative_border));
  }

  // 3. The dual direction: complements of MTh = Tr(Bd-) — the border
  //    correspondence is an involution.
  Hypergraph bd_minus(c.n);
  for (const auto& x : lw.negative_border) bd_minus.AddEdge(x);
  Hypergraph complements_of_mth(c.n);
  for (const auto& m : lw.positive_border) {
    complements_of_mth.AddEdge(~m);
  }
  EXPECT_TRUE(
      berge.Compute(bd_minus).SameEdgeSet(complements_of_mth));

  // 4. Dualize and Advance agrees.
  DualizeAdvanceResult da = RunDualizeAdvance(&oracle);
  EXPECT_TRUE(SameFamily(da.positive_border, lw.positive_border));
  EXPECT_TRUE(SameFamily(da.negative_border, lw.negative_border));

  // 5. Every element of Th is a subset of some maximal element; no
  //    element of Bd- is.
  for (const auto& x : lw.theory) {
    bool below = false;
    for (const auto& m : lw.positive_border) {
      if (x.IsSubsetOf(m)) below = true;
    }
    EXPECT_TRUE(below) << x.ToString();
  }
  for (const auto& x : lw.negative_border) {
    for (const auto& m : lw.positive_border) {
      EXPECT_FALSE(x.IsSubsetOf(m)) << x.ToString();
    }
    // Minimality of border elements: removing any item lands in Th.
    for (size_t v = x.FindFirst(); v != Bitset::npos; v = x.FindNext(v)) {
      EXPECT_TRUE(oracle.IsInteresting(x.WithoutBit(v)));
    }
  }

  // 6. Verification accepts the computed MTh and rejects perturbations.
  EXPECT_TRUE(VerifyMaxTheory(lw.positive_border, &oracle).verified);
  if (!lw.positive_border.empty()) {
    auto wrong = lw.positive_border;
    wrong.pop_back();
    VerificationResult rejected = VerifyMaxTheory(wrong, &oracle);
    // Dropping a maximal set leaves an interesting border element (or an
    // empty family whose border {∅} is interesting).
    EXPECT_FALSE(rejected.verified);
  }

  // 7. Theorem 10 exact accounting re-checked here for the sweep.
  EXPECT_EQ(lw.queries,
            lw.theory.size() + lw.negative_border.size());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, FrequentSetPropertyTest,
    ::testing::Values(WorkloadCase{6, 2, 3, 2, 2, 1},
                      WorkloadCase{8, 3, 4, 2, 4, 2},
                      WorkloadCase{10, 4, 5, 3, 6, 3},
                      WorkloadCase{12, 3, 6, 2, 8, 4},
                      WorkloadCase{14, 5, 5, 3, 5, 5},
                      WorkloadCase{16, 4, 8, 2, 10, 6},
                      WorkloadCase{12, 6, 3, 2, 0, 7},
                      WorkloadCase{10, 1, 9, 2, 0, 8},
                      WorkloadCase{18, 5, 6, 2, 12, 9},
                      WorkloadCase{9, 8, 2, 2, 3, 10}));

/// A random down-closed family over n items: the downward closure of up
/// to `seeds` random sets (each item kept with probability `density`).
std::vector<Bitset> RandomDownClosed(size_t n, size_t seeds, double density,
                                     Rng* rng) {
  std::vector<Bitset> tops;
  for (size_t i = 0; i < seeds; ++i) {
    Bitset x(n);
    for (size_t v = 0; v < n; ++v) {
      if (rng->Bernoulli(density)) x.Set(v);
    }
    tops.push_back(std::move(x));
  }
  return DownwardClosure(tops, n);
}

/// Checks every route to the borders of the down-closed family \p s —
/// the one-walk BordersOfDownClosed, NegativeBorderViaGeneration, and a
/// levelwise run whose predicate is membership in s — against the
/// brute-force references AntichainMaximize and NegativeBorderBrute.
void ExpectBordersMatchBrute(const std::vector<Bitset>& s, size_t n) {
  std::vector<Bitset> want_plus = s;
  AntichainMaximize(&want_plus);
  CanonicalSort(&want_plus);
  const std::vector<Bitset> want_minus = NegativeBorderBrute(s, n);

  Borders borders = BordersOfDownClosed(s, n);
  EXPECT_EQ(borders.positive, want_plus);
  EXPECT_EQ(borders.negative, want_minus);
  EXPECT_EQ(NegativeBorderViaGeneration(s, n), want_minus);

  std::unordered_set<Bitset, BitsetHash> members(s.begin(), s.end());
  FunctionOracle in_s(n, [&](const Bitset& x) { return members.contains(x); });
  LevelwiseResult lw = RunLevelwise(&in_s);
  EXPECT_EQ(lw.theory, s);
  EXPECT_EQ(lw.positive_border, want_plus);
  EXPECT_EQ(lw.negative_border, want_minus);
  EXPECT_EQ(lw.queries, s.size() + want_minus.size());
}

TEST(DownClosedBordersTest, EmptyFamilyAndEmptySet) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{5}}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    // Th = {}: nothing is interesting, Bd+ = {} and Bd- = {∅}.
    ExpectBordersMatchBrute({}, n);
    // Th = {∅}: Bd+ = {∅} and Bd- = every singleton.
    ExpectBordersMatchBrute({Bitset(n)}, n);
  }
}

TEST(DownClosedBordersTest, RandomDownClosedFamilies) {
  Rng rng(1812);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 1 + rng.UniformIndex(12);
    const size_t seeds = 1 + rng.UniformIndex(6);
    const double density = 0.2 + 0.6 * rng.UniformDouble();
    SCOPED_TRACE("trial " + std::to_string(trial) + ", n = " +
                 std::to_string(n));
    ExpectBordersMatchBrute(RandomDownClosed(n, seeds, density, &rng), n);
  }
}

TEST(MonotonicityCheckerTest, FlagsNonMonotonePredicate) {
  // "Interesting iff |x| is even" is blatantly non-monotone.
  FunctionOracle bad(5, [](const Bitset& x) { return x.Count() % 2 == 0; });
  MonotonicityCheckingOracle checked(&bad);
  checked.IsInteresting(Bitset(5));           // true  (size 0)
  checked.IsInteresting(Bitset(5, {0}));      // false (size 1)
  EXPECT_FALSE(checked.violation_found());    // not yet a witnessed pair?
  // {0} ⊆ {0,1}: superset interesting, subset not -> violation.
  checked.IsInteresting(Bitset(5, {0, 1}));
  EXPECT_TRUE(checked.violation_found());
  EXPECT_EQ(checked.violation_interesting(), Bitset(5, {0, 1}));
  EXPECT_EQ(checked.violation_subset(), Bitset(5, {0}));
}

TEST(MonotonicityCheckerTest, SilentOnMonotonePredicate) {
  FunctionOracle good(6, [](const Bitset& x) { return x.Count() <= 3; });
  MonotonicityCheckingOracle checked(&good);
  Rng rng(161);
  for (int i = 0; i < 200; ++i) {
    Bitset x(6);
    for (size_t v = 0; v < 6; ++v) {
      if (rng.Bernoulli(0.5)) x.Set(v);
    }
    checked.IsInteresting(x);
  }
  EXPECT_FALSE(checked.violation_found());
}

TEST(MonotonicityCheckerTest, DetectsReverseDirection) {
  // First see an interesting superset, then a non-interesting subset.
  FunctionOracle bad(4, [](const Bitset& x) { return x.Count() != 1; });
  MonotonicityCheckingOracle checked(&bad);
  EXPECT_TRUE(checked.IsInteresting(Bitset(4, {0, 1})));
  EXPECT_FALSE(checked.IsInteresting(Bitset(4, {0})));
  EXPECT_TRUE(checked.violation_found());
  EXPECT_EQ(checked.violation_interesting(), Bitset(4, {0, 1}));
}

}  // namespace
}  // namespace hgm
