#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/random.h"
#include "core/theory.h"
#include "mining/apriori.h"
#include "mining/frequency_oracle.h"
#include "mining/generators.h"
#include "mining/max_miner.h"
#include "mining/rules.h"
#include "mining/transaction_db.h"

namespace hgm {
namespace {

/// A database realizing the Figure 1 situation: over R = {A,B,C,D} the
/// 2-frequent sets are exactly the subsets of {ABC, BD}.
TransactionDatabase Fig1Database() {
  // Rows: ABC, ABC, BD, BD, ABD? no — keep supports clean:
  //   ABC x2 gives all subsets of ABC support >= 2;
  //   BD x2 gives subsets of BD support >= 2 (B reaches 4);
  //   AD x1 keeps AD, CD, ABD... AD has support 1 < 2.
  return TransactionDatabase::FromRows(4, {{0, 1, 2},
                                           {0, 1, 2},
                                           {1, 3},
                                           {1, 3},
                                           {0, 3}});
}

TEST(TransactionDbTest, BasicAccessorsAndSupport) {
  TransactionDatabase db = Fig1Database();
  EXPECT_EQ(db.num_items(), 4u);
  EXPECT_EQ(db.num_transactions(), 5u);
  EXPECT_EQ(db.Support(Bitset(4)), 5u);  // every row contains ∅
  EXPECT_EQ(db.Support(Bitset(4, {1})), 4u);
  EXPECT_EQ(db.Support(Bitset(4, {0, 1, 2})), 2u);
  EXPECT_EQ(db.Support(Bitset(4, {0, 3})), 1u);
  EXPECT_EQ(db.Support(Bitset(4, {2, 3})), 0u);
  EXPECT_DOUBLE_EQ(db.Frequency(Bitset(4, {1})), 0.8);
  EXPECT_DOUBLE_EQ(db.AvgTransactionSize(), (3 + 3 + 2 + 2 + 2) / 5.0);
}

TEST(TransactionDbTest, VerticalMatchesHorizontal) {
  Rng rng(2024);
  QuestParams params;
  params.num_transactions = 200;
  params.num_items = 30;
  params.avg_transaction_size = 6;
  TransactionDatabase db = GenerateQuest(params, &rng);
  for (int i = 0; i < 50; ++i) {
    size_t size = 1 + rng.UniformIndex(4);
    Bitset x = Bitset::FromIndices(
        30, rng.SampleWithoutReplacement(30, size));
    EXPECT_EQ(db.Support(x), db.SupportVertical(x)) << x.ToString();
  }
}

TEST(TransactionDbTest, CoverAndItemCover) {
  TransactionDatabase db = Fig1Database();
  Bitset cover_b = db.Cover(Bitset(4, {1}));
  EXPECT_EQ(cover_b, db.ItemCover(1));
  EXPECT_EQ(cover_b.Count(), 4u);
  Bitset cover_bd = db.Cover(Bitset(4, {1, 3}));
  EXPECT_EQ(cover_bd.Indices(), (std::vector<size_t>{2, 3}));
  // Cover of ∅ is all rows.
  EXPECT_EQ(db.Cover(Bitset(4)).Count(), 5u);
}

TEST(TransactionDbTest, VerticalIndexInvalidatedByInsert) {
  TransactionDatabase db = Fig1Database();
  EXPECT_EQ(db.SupportVertical(Bitset(4, {0})), 3u);
  db.AddTransactionIndices({0});
  EXPECT_EQ(db.SupportVertical(Bitset(4, {0})), 4u);
}

TEST(TransactionDbTest, EmptyDatabase) {
  TransactionDatabase db(3);
  EXPECT_TRUE(db.empty());
  EXPECT_EQ(db.Support(Bitset(3, {0})), 0u);
  EXPECT_DOUBLE_EQ(db.Frequency(Bitset(3)), 0.0);
  EXPECT_DOUBLE_EQ(db.AvgTransactionSize(), 0.0);
}

TEST(TransactionDbTest, BasketFileRoundTrip) {
  TransactionDatabase db = Fig1Database();
  const std::string path = "/tmp/hgm_basket_test.txt";
  ASSERT_TRUE(db.SaveBasketFile(path).ok());
  auto loaded = TransactionDatabase::LoadBasketFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_transactions(), db.num_transactions());
  for (size_t i = 0; i < db.num_transactions(); ++i) {
    EXPECT_EQ(loaded->row(i), db.row(i));
  }
  std::remove(path.c_str());
}

TEST(TransactionDbTest, BasketFileErrors) {
  EXPECT_FALSE(TransactionDatabase::LoadBasketFile("/nonexistent/x").ok());

  const std::string path = "/tmp/hgm_basket_bad.txt";
  {
    std::ofstream out(path);
    out << "1 2 oops\n";
  }
  auto r = TransactionDatabase::LoadBasketFile(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  {
    std::ofstream out(path);
    out << "# comment\n5 6\n";
  }
  auto small = TransactionDatabase::LoadBasketFile(path, 3);
  EXPECT_FALSE(small.ok());
  EXPECT_EQ(small.status().code(), StatusCode::kOutOfRange);
  auto inferred = TransactionDatabase::LoadBasketFile(path);
  ASSERT_TRUE(inferred.ok());
  EXPECT_EQ(inferred->num_items(), 7u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Apriori.
// ---------------------------------------------------------------------
TEST(AprioriTest, Fig1FrequentSets) {
  TransactionDatabase db = Fig1Database();
  AprioriResult r = MineFrequentSets(&db, 2);
  // Th = subsets of {ABC, BD}: 10 sets including ∅.
  EXPECT_EQ(r.frequent.size(), 10u);
  EXPECT_TRUE(SameFamily(r.maximal,
                         {Bitset(4, {0, 1, 2}), Bitset(4, {1, 3})}));
  EXPECT_TRUE(SameFamily(r.negative_border,
                         {Bitset(4, {0, 3}), Bitset(4, {2, 3})}));
  // Theorem 10 accounting: |Th| + |Bd-| = 12.
  EXPECT_EQ(r.support_counts, 12u);
  // Example 11's level profile.
  EXPECT_EQ(r.candidates_per_level[2], 6u);
  EXPECT_EQ(r.frequent_per_level[2], 4u);
  EXPECT_EQ(r.candidates_per_level[3], 1u);
  EXPECT_EQ(r.frequent_per_level[3], 1u);
  // Supports are exact.
  for (const auto& f : r.frequent) {
    EXPECT_EQ(f.support, db.Support(f.items)) << f.items.ToString();
  }
}

TEST(AprioriTest, MatchesBruteForceOnRandomData) {
  Rng rng(6);
  for (int iter = 0; iter < 6; ++iter) {
    QuestParams params;
    params.num_transactions = 60 + 20 * iter;
    params.num_items = 10 + iter;
    params.avg_transaction_size = 4;
    params.num_patterns = 5;
    TransactionDatabase db = GenerateQuest(params, &rng);
    size_t minsup = 3 + iter;
    AprioriResult fast = MineFrequentSets(&db, minsup);
    AprioriResult brute = MineFrequentSetsBrute(&db, minsup);
    ASSERT_EQ(fast.frequent.size(), brute.frequent.size());
    for (size_t i = 0; i < fast.frequent.size(); ++i) {
      EXPECT_EQ(fast.frequent[i].items, brute.frequent[i].items);
      EXPECT_EQ(fast.frequent[i].support, brute.frequent[i].support);
    }
    EXPECT_TRUE(SameFamily(fast.maximal, brute.maximal));
    EXPECT_TRUE(SameFamily(fast.negative_border, brute.negative_border));
  }
}

TEST(AprioriTest, MinSupportAboveRowsYieldsEmptyTheory) {
  TransactionDatabase db = Fig1Database();
  AprioriResult r = MineFrequentSets(&db, 6);
  EXPECT_TRUE(r.frequent.empty());
  EXPECT_TRUE(r.maximal.empty());
  ASSERT_EQ(r.negative_border.size(), 1u);
  EXPECT_TRUE(r.negative_border[0].None());
}

TEST(AprioriTest, MinSupportZeroMakesEverythingFrequent) {
  TransactionDatabase db = TransactionDatabase::FromRows(3, {{0}});
  AprioriResult r = MineFrequentSets(&db, 0);
  EXPECT_EQ(r.frequent.size(), 8u);  // all of P({0,1,2})
  ASSERT_EQ(r.maximal.size(), 1u);
  EXPECT_TRUE(r.maximal[0].AllSet());
}

TEST(AprioriTest, OnlyEmptySetFrequent) {
  TransactionDatabase db = TransactionDatabase::FromRows(3, {{0}, {1}});
  AprioriResult r = MineFrequentSets(&db, 2);
  ASSERT_EQ(r.frequent.size(), 1u);
  EXPECT_TRUE(r.frequent[0].items.None());
  ASSERT_EQ(r.maximal.size(), 1u);
  EXPECT_TRUE(r.maximal[0].None());
  EXPECT_EQ(r.negative_border.size(), 3u);
}

TEST(AprioriTest, MaxLevelTruncation) {
  TransactionDatabase db = Fig1Database();
  AprioriOptions opts;
  opts.max_level = 2;
  AprioriResult r = MineFrequentSets(&db, 2, opts);
  EXPECT_EQ(RankOf(r.maximal), 2u);
  // Pairs AB, AC, BC, BD are the maximal elements of the truncation.
  EXPECT_EQ(r.maximal.size(), 4u);
}

TEST(AprioriTest, PlantedPatternsAreRecoveredExactly) {
  Rng rng(7);
  for (int iter = 0; iter < 5; ++iter) {
    size_t n = 12 + iter * 2;
    auto patterns = RandomPatterns(n, 4, 4 + iter % 3, &rng);
    TransactionDatabase db = PlantedDatabase(n, patterns, 3, 0, 0, &rng);
    AprioriResult r = MineFrequentSets(&db, 3);
    EXPECT_TRUE(SameFamily(r.maximal, patterns));
  }
}

// ---------------------------------------------------------------------
// FrequencyOracle + MaxMiner façade.
// ---------------------------------------------------------------------
TEST(FrequencyOracleTest, AgreesWithSupport) {
  TransactionDatabase db = Fig1Database();
  FrequencyOracle oracle(&db, 2);
  for (uint64_t mask = 0; mask < 16; ++mask) {
    Bitset x(4);
    for (size_t v = 0; v < 4; ++v) {
      if ((mask >> v) & 1) x.Set(v);
    }
    EXPECT_EQ(oracle.IsInteresting(x), db.Support(x) >= 2);
  }
  EXPECT_EQ(oracle.num_items(), 4u);
  EXPECT_EQ(oracle.min_support(), 2u);
}

TEST(MaxMinerTest, BothAlgorithmsAgreeWithApriori) {
  Rng rng(8);
  QuestParams params;
  params.num_transactions = 120;
  params.num_items = 18;
  params.avg_transaction_size = 5;
  TransactionDatabase db = GenerateQuest(params, &rng);
  AprioriResult ap = MineFrequentSets(&db, 6);
  MaxMinerResult lw =
      MineMaximalFrequentSets(&db, 6, MaxMinerAlgorithm::kLevelwise);
  MaxMinerResult da =
      MineMaximalFrequentSets(&db, 6, MaxMinerAlgorithm::kDualizeAdvance);
  EXPECT_TRUE(SameFamily(lw.maximal, ap.maximal));
  EXPECT_TRUE(SameFamily(da.maximal, ap.maximal));
  EXPECT_TRUE(SameFamily(lw.negative_border, ap.negative_border));
  EXPECT_TRUE(SameFamily(da.negative_border, ap.negative_border));
  EXPECT_GT(lw.queries, 0u);
  EXPECT_GT(da.queries, 0u);
}

TEST(MaxMinerTest, DualizeAdvanceWinsOnLongPatterns) {
  // One long pattern: levelwise must walk 2^k subsets; D&A jumps there.
  Rng rng(9);
  size_t n = 18;
  std::vector<Bitset> patterns{
      Bitset::FromIndices(n, rng.SampleWithoutReplacement(n, 12))};
  TransactionDatabase db = PlantedDatabase(n, patterns, 3, 0, 0, &rng);
  MaxMinerResult lw =
      MineMaximalFrequentSets(&db, 3, MaxMinerAlgorithm::kLevelwise);
  MaxMinerResult da =
      MineMaximalFrequentSets(&db, 3, MaxMinerAlgorithm::kDualizeAdvance);
  EXPECT_TRUE(SameFamily(lw.maximal, da.maximal));
  EXPECT_GT(lw.queries, 4096u);      // >= 2^12 subsets examined
  EXPECT_LT(da.queries, lw.queries / 50);  // the Section 5 claim
}

TEST(MaxMinerTest, DepthFirstAgreesWithLevelwise) {
  Rng rng(19);
  for (int i = 0; i < 5; ++i) {
    QuestParams params;
    params.num_transactions = 100;
    params.num_items = 14 + i;
    params.avg_transaction_size = 4;
    TransactionDatabase db = GenerateQuest(params, &rng);
    size_t minsup = 5 + i;
    MaxMinerResult lw =
        MineMaximalFrequentSets(&db, minsup, MaxMinerAlgorithm::kLevelwise);
    MaxMinerResult dfs =
        MineMaximalFrequentSets(&db, minsup, MaxMinerAlgorithm::kDepthFirst);
    EXPECT_TRUE(SameFamily(lw.maximal, dfs.maximal));
    // DFS repeats questions; memoization keeps distinct queries near the
    // levelwise count.
    EXPECT_GE(dfs.queries, dfs.distinct_queries);
  }
}

TEST(MaxMinerTest, DepthFirstDegenerateCases) {
  TransactionDatabase none = TransactionDatabase::FromRows(3, {{0}});
  MaxMinerResult r =
      MineMaximalFrequentSets(&none, 2, MaxMinerAlgorithm::kDepthFirst);
  EXPECT_TRUE(r.maximal.empty());  // not even the empty set is frequent

  MaxMinerResult all =
      MineMaximalFrequentSets(&none, 1, MaxMinerAlgorithm::kDepthFirst);
  ASSERT_EQ(all.maximal.size(), 1u);
  EXPECT_EQ(all.maximal[0], Bitset(3, {0}));
}

TEST(MaxMinerTest, ToStringNames) {
  EXPECT_EQ(ToString(MaxMinerAlgorithm::kLevelwise), "levelwise");
  EXPECT_EQ(ToString(MaxMinerAlgorithm::kDualizeAdvance),
            "dualize-and-advance");
  EXPECT_EQ(ToString(MaxMinerAlgorithm::kDepthFirst), "depth-first");
}

// ---------------------------------------------------------------------
// Association rules.
// ---------------------------------------------------------------------
TEST(RulesTest, Fig1Rules) {
  TransactionDatabase db = Fig1Database();
  AprioriResult mined = MineFrequentSets(&db, 2);
  auto rules = GenerateRules(mined, db.num_transactions(), 0.0).value();
  // Frequent sets of size >= 2: AB, AC, BC, BD, ABC -> 2+2+2+2+3 = 11
  // rules before confidence filtering.
  EXPECT_EQ(rules.size(), 11u);
  // Check one rule exactly: D => B has support(BD)=2, support(D)=3,
  // confidence 2/3; B => D has support(B)=4, confidence 1/2.
  bool found = false;
  for (const auto& r : rules) {
    if (r.antecedent == Bitset(4, {3}) && r.consequent == 1) {
      found = true;
      EXPECT_EQ(r.support, 2u);
      EXPECT_NEAR(r.confidence, 2.0 / 3.0, 1e-12);
      // lift = conf / freq(B) = (2/3) / (4/5).
      ASSERT_TRUE(r.lift.has_value());
      EXPECT_NEAR(*r.lift, (2.0 / 3.0) / 0.8, 1e-12);
    }
  }
  EXPECT_TRUE(found);
  // Sorted by descending confidence.
  for (size_t i = 1; i < rules.size(); ++i) {
    EXPECT_GE(rules[i - 1].confidence, rules[i].confidence);
  }
}

TEST(RulesTest, ConfidenceThresholdFilters) {
  TransactionDatabase db = Fig1Database();
  AprioriResult mined = MineFrequentSets(&db, 2);
  auto all = GenerateRules(mined, db.num_transactions(), 0.0).value();
  auto strict = GenerateRules(mined, db.num_transactions(), 0.9).value();
  EXPECT_LT(strict.size(), all.size());
  for (const auto& r : strict) EXPECT_GE(r.confidence, 0.9);
}

TEST(RulesTest, ConfidenceBoundaryIsInclusive) {
  TransactionDatabase db = Fig1Database();
  AprioriResult mined = MineFrequentSets(&db, 2);
  // A => C: support(AC)=2, support(A)=3, confidence 2/3.
  auto rules = GenerateRules(mined, db.num_transactions(), 2.0 / 3.0).value();
  bool found = false;
  for (const auto& r : rules) {
    if (r.antecedent == Bitset(4, {0}) && r.consequent == 2) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(RulesTest, FormatRule) {
  AssociationRule r;
  r.antecedent = Bitset(4, {1, 3});
  r.consequent = 0;
  r.support = 3;
  r.confidence = 0.75;
  r.lift = 1.2;
  std::vector<std::string> names{"A", "B", "C", "D"};
  EXPECT_EQ(FormatRule(r, names), "BD => A (sup 3, conf 0.75, lift 1.20)");
}

TEST(RulesTest, NoRulesFromSingletonTheory) {
  TransactionDatabase db = TransactionDatabase::FromRows(3, {{0}, {0}});
  AprioriResult mined = MineFrequentSets(&db, 2);
  EXPECT_TRUE(GenerateRules(mined, 2, 0.0).value().empty());
}

// Regression (silent drop): mined without record_all, the old code
// returned an empty rule list as if the theory had no rules; now the
// missing frequent-set list is a FailedPrecondition.
TEST(RulesTest, RecordAllOffIsFailedPrecondition) {
  TransactionDatabase db = Fig1Database();
  AprioriOptions opts;
  opts.record_all = false;
  AprioriResult mined = MineFrequentSets(&db, 2, opts);
  ASSERT_TRUE(mined.frequent.empty());
  ASSERT_FALSE(mined.maximal.empty());
  auto rules = GenerateRules(mined, db.num_transactions(), 0.0);
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), StatusCode::kFailedPrecondition);
}

// A truncated frequent list (antecedent removed) is surfaced, not
// silently skipped.
TEST(RulesTest, TruncatedFrequentListIsFailedPrecondition) {
  TransactionDatabase db = Fig1Database();
  AprioriResult mined = MineFrequentSets(&db, 2);
  std::erase_if(mined.frequent, [](const FrequentItemset& f) {
    return f.items == Bitset(4, {3});  // drop singleton D: antecedent of D=>B
  });
  auto rules = GenerateRules(mined, db.num_transactions(), 0.0);
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), StatusCode::kFailedPrecondition);
}

// Regression: lift used to print as 0.00 when it was never computed
// (consequent singleton absent or num_rows == 0); it is now optional.
TEST(RulesTest, FormatRuleWithoutLiftPrintsNA) {
  AssociationRule r;
  r.antecedent = Bitset(4, {1, 3});
  r.consequent = 0;
  r.support = 3;
  r.confidence = 0.75;
  ASSERT_FALSE(r.lift.has_value());
  std::vector<std::string> names{"A", "B", "C", "D"};
  EXPECT_EQ(FormatRule(r, names), "BD => A (sup 3, conf 0.75, lift n/a)");
}

// num_rows == 0 means frequency(A) is undefined, so lift stays unset on
// every generated rule instead of defaulting to 0.
TEST(RulesTest, LiftUnsetWhenNumRowsZero) {
  TransactionDatabase db = Fig1Database();
  AprioriResult mined = MineFrequentSets(&db, 2);
  auto rules = GenerateRules(mined, /*num_rows=*/0, 0.0).value();
  ASSERT_FALSE(rules.empty());
  for (const auto& r : rules) EXPECT_FALSE(r.lift.has_value());
}

// ---------------------------------------------------------------------
// Quest generator sanity.
// ---------------------------------------------------------------------
TEST(QuestTest, RespectsShapeParameters) {
  Rng rng(10);
  QuestParams params;
  params.num_transactions = 500;
  params.num_items = 60;
  params.avg_transaction_size = 8;
  TransactionDatabase db = GenerateQuest(params, &rng);
  EXPECT_EQ(db.num_transactions(), 500u);
  EXPECT_EQ(db.num_items(), 60u);
  EXPECT_NEAR(db.AvgTransactionSize(), 8.0, 2.0);
  for (const auto& row : db.rows()) EXPECT_GE(row.Count(), 1u);
}

TEST(QuestTest, DeterministicGivenSeed) {
  QuestParams params;
  params.num_transactions = 50;
  params.num_items = 20;
  Rng a(11), b(11);
  TransactionDatabase da = GenerateQuest(params, &a);
  TransactionDatabase dbb = GenerateQuest(params, &b);
  ASSERT_EQ(da.num_transactions(), dbb.num_transactions());
  for (size_t i = 0; i < da.num_transactions(); ++i) {
    EXPECT_EQ(da.row(i), dbb.row(i));
  }
}

TEST(QuestTest, PatternsInduceCorrelation) {
  // With few patterns and low corruption, some pair must co-occur far
  // more often than independence predicts.
  Rng rng(12);
  QuestParams params;
  params.num_transactions = 800;
  params.num_items = 50;
  params.num_patterns = 5;
  params.avg_pattern_size = 5;
  params.avg_transaction_size = 8;
  params.corruption_mean = 0.05;
  TransactionDatabase db = GenerateQuest(params, &rng);
  AprioriResult r = MineFrequentSets(&db, db.num_transactions() / 10);
  // Frequent pairs exist (pure independence at 16% item frequency would
  // make 10%-frequent pairs unlikely).
  ASSERT_GT(r.frequent_per_level.size(), 2u);
  EXPECT_GT(r.frequent_per_level[2], 0u);
}

TEST(QuestTest, EmptyParameterEdgeCases) {
  Rng rng(13);
  QuestParams params;
  params.num_transactions = 0;
  EXPECT_EQ(GenerateQuest(params, &rng).num_transactions(), 0u);
  params.num_transactions = 5;
  params.num_items = 0;
  EXPECT_EQ(GenerateQuest(params, &rng).num_transactions(), 0u);
}

TEST(PlantedTest, NoiseRowsAreAdded) {
  Rng rng(14);
  auto patterns = RandomPatterns(10, 2, 3, &rng);
  TransactionDatabase db = PlantedDatabase(10, patterns, 2, 5, 2, &rng);
  EXPECT_EQ(db.num_transactions(), patterns.size() * 2 + 5);
}

}  // namespace
}  // namespace hgm
