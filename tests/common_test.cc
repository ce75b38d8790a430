#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "common/apriori_gen.h"
#include "common/random.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"

namespace hgm {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicStreams) {
  Rng a(123), b(123), c(124);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a();
    EXPECT_EQ(va, b());
    if (va != c()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformInt(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
  // Degenerate range.
  EXPECT_EQ(rng.UniformInt(5, 5), 5u);
}

TEST(RngTest, UniformIndexCoversRange) {
  Rng rng(11);
  std::set<size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformIndex(5));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 4u);
}

TEST(RngTest, UniformDoubleInHalfOpenUnit) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, PoissonMeanRoughlyCorrect) {
  Rng rng(17);
  double sum = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) sum += static_cast<double>(rng.Poisson(4.0));
  double mean = sum / trials;
  EXPECT_NEAR(mean, 4.0, 0.25);
  EXPECT_EQ(rng.Poisson(0.0), 0u);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(29);
  for (size_t n : {1u, 5u, 40u}) {
    for (size_t k = 0; k <= n; k += (n > 4 ? 3 : 1)) {
      auto sample = rng.SampleWithoutReplacement(n, k);
      EXPECT_EQ(sample.size(), k);
      std::set<size_t> uniq(sample.begin(), sample.end());
      EXPECT_EQ(uniq.size(), k);
      for (size_t v : sample) EXPECT_LT(v, n);
    }
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(StopWatchTest, Advances) {
  StopWatch sw;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i * 0.5;
  EXPECT_GT(sink, 0.0);
  EXPECT_GT(sw.Seconds(), 0.0);
  EXPECT_GE(sw.Millis(), sw.Seconds() * 1e3 * 0.99);
}

TEST(TablePrinterTest, AlignsAndCounts) {
  TablePrinter t({"name", "count", "ratio"});
  t.NewRow().Add("alpha").Add(size_t{12}).Add(0.5, 2);
  t.NewRow().Add("b").Add(size_t{3}).Add(12.25, 2);
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("12.25"), std::string::npos);
  EXPECT_NE(out.find("-+-"), std::string::npos);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter t({"a", "b"});
  t.NewRow().Add(1).Add(2);
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

// ---- apriori-gen --------------------------------------------------------

std::unordered_set<Bitset, BitsetHash> SetsOf(const std::vector<ItemVec>& level,
                                              size_t n) {
  std::unordered_set<Bitset, BitsetHash> sets;
  for (const ItemVec& items : level) sets.insert(Bitset::FromIndices(n, items));
  return sets;
}

ItemVec Without(const ItemVec& items, size_t drop) {
  ItemVec out = items;
  out.erase(out.begin() + static_cast<std::ptrdiff_t>(drop));
  return out;
}

TEST(AprioriGenTest, JoinsSharedPrefixesAndPrunesMissingSubsets) {
  // Items A..D = 0..3.  ABC and ABD join from AB; ACD and BCD are joined
  // too but pruned because CD is absent.
  const std::vector<ItemVec> level = {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}};
  std::vector<AprioriCandidate> out = AprioriGen(level, SetsOf(level, 4), 4);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].items, (ItemVec{0, 1, 2}));
  EXPECT_EQ(out[0].parent_i, 0u);
  EXPECT_EQ(out[0].parent_j, 1u);
  EXPECT_EQ(out[1].items, (ItemVec{0, 1, 3}));
  EXPECT_EQ(out[1].parent_i, 0u);
  EXPECT_EQ(out[1].parent_j, 2u);

  EXPECT_TRUE(AprioriGen({}, {}, 4).empty());
  // Singletons join into every pair; nothing to prune at k = 1.
  const std::vector<ItemVec> items = {{0}, {2}, {3}};
  out = AprioriGen(items, SetsOf(items, 4), 4);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].items, (ItemVec{2, 3}));
  EXPECT_EQ(out[2].parent_i, 1u);
  EXPECT_EQ(out[2].parent_j, 2u);
}

// On random 3-set families, the output is exactly the 4-sets whose every
// 3-subset is in the level, in sorted order with no repeats, and each
// candidate's parents are the level sets it was joined from: the
// candidate without its last item and without its second-to-last.
TEST(AprioriGenTest, MatchesBruteForceWithJoinParents) {
  const size_t n = 8;
  Rng rng(15);
  for (int iter = 0; iter < 20; ++iter) {
    std::set<ItemVec> family;
    while (family.size() < 6 + static_cast<size_t>(iter)) {
      std::vector<size_t> pick = rng.SampleWithoutReplacement(n, 3);
      std::sort(pick.begin(), pick.end());
      family.insert(ItemVec(pick.begin(), pick.end()));
    }
    const std::vector<ItemVec> level(family.begin(), family.end());
    const auto level_set = SetsOf(level, n);

    std::vector<ItemVec> expected;
    for (uint32_t mask = 0; mask < (1u << n); ++mask) {
      if (std::popcount(mask) != 4) continue;
      ItemVec cand;
      for (uint32_t v = 0; v < n; ++v) {
        if ((mask >> v) & 1) cand.push_back(v);
      }
      bool all = true;
      for (size_t drop = 0; drop < cand.size(); ++drop) {
        all = all && family.contains(Without(cand, drop));
      }
      if (all) expected.push_back(cand);
    }
    std::sort(expected.begin(), expected.end());

    std::vector<AprioriCandidate> out = AprioriGen(level, level_set, n);
    ASSERT_EQ(out.size(), expected.size()) << "iter " << iter;
    for (size_t c = 0; c < out.size(); ++c) {
      EXPECT_EQ(out[c].items, expected[c]) << "iter " << iter;
      ASSERT_LT(out[c].parent_i, out[c].parent_j);
      ASSERT_LT(out[c].parent_j, level.size());
      EXPECT_EQ(level[out[c].parent_i], Without(out[c].items, 3));
      EXPECT_EQ(level[out[c].parent_j], Without(out[c].items, 2));
    }
  }
}

}  // namespace
}  // namespace hgm
