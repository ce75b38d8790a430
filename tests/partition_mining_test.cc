// Tests for the sharded store (mining/sharded_db.h) and the two-phase
// partition miner (mining/partition.h): manifest geometry, the partition
// lemma's local thresholds, and the partition miner's agreement with
// Apriori plus its phase-2 query budget.

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "core/theory.h"
#include "hypergraph/transversal_berge.h"
#include "mining/apriori.h"
#include "mining/generators.h"
#include "mining/partition.h"
#include "mining/rules.h"
#include "mining/sharded_db.h"
#include "obs/bound_report.h"

namespace hgm {
namespace {

/// Figure 1 of the paper: over R = {A,B,C,D} the 2-frequent sets are
/// exactly the subsets of {ABC, BD}.
TransactionDatabase Fig1Database() {
  return TransactionDatabase::FromRows(4, {{0, 1, 2},
                                           {0, 1, 2},
                                           {1, 3},
                                           {1, 3},
                                           {0, 3}});
}

TransactionDatabase QuestDatabase(uint64_t seed) {
  Rng rng(seed);
  QuestParams params;
  params.num_transactions = 800;
  params.num_items = 40;
  params.avg_transaction_size = 6;
  return GenerateQuest(params, &rng);
}

TEST(ShardedDbTest, SplitManifestCoversAllRowsContiguously) {
  TransactionDatabase db = QuestDatabase(3);
  for (size_t k : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
    ShardedTransactionDatabase sharded =
        ShardedTransactionDatabase::Split(db, k);
    EXPECT_EQ(sharded.num_shards(), k);
    EXPECT_EQ(sharded.num_items(), db.num_items());
    EXPECT_EQ(sharded.num_transactions(), db.num_transactions());
    ASSERT_EQ(sharded.manifest().size(), k);
    size_t covered = 0;
    for (size_t s = 0; s < k; ++s) {
      const ShardManifestEntry& m = sharded.manifest()[s];
      EXPECT_EQ(m.row_begin, covered) << "gap before shard " << s;
      EXPECT_LE(m.row_begin, m.row_end);
      EXPECT_EQ(m.row_end - m.row_begin,
                sharded.shard(s).num_transactions());
      // Shard rows are the database rows of the manifest range.
      for (size_t t = m.row_begin; t < m.row_end; ++t) {
        EXPECT_EQ(sharded.shard(s).row(t - m.row_begin), db.row(t));
      }
      covered = m.row_end;
    }
    EXPECT_EQ(covered, db.num_transactions());
  }
}

TEST(ShardedDbTest, MoreShardsThanRowsYieldsEmptyShards) {
  TransactionDatabase db = Fig1Database();  // 5 rows
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 9);
  EXPECT_EQ(sharded.num_shards(), 9u);
  EXPECT_EQ(sharded.num_transactions(), 5u);
  size_t total = 0;
  for (size_t s = 0; s < 9; ++s) {
    total += sharded.shard(s).num_transactions();
  }
  EXPECT_EQ(total, 5u);
  // Mining still works with empty shards present.
  AprioriResult expected = MineFrequentSets(&db, 2);
  PartitionResult r = MinePartitioned(&sharded, 2);
  ASSERT_EQ(r.frequent.size(), expected.frequent.size());
  for (size_t i = 0; i < r.frequent.size(); ++i) {
    EXPECT_EQ(r.frequent[i].items, expected.frequent[i].items);
    EXPECT_EQ(r.frequent[i].support, expected.frequent[i].support);
  }
}

TEST(ShardedDbTest, ZeroShardCountClampsToOne) {
  TransactionDatabase db = Fig1Database();
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 0);
  EXPECT_EQ(sharded.num_shards(), 1u);
  EXPECT_EQ(sharded.shard(0).num_transactions(), 5u);
}

TEST(ShardedDbTest, LocalThresholdsSatisfyPartitionLemma) {
  TransactionDatabase db = QuestDatabase(7);
  for (size_t k : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
    ShardedTransactionDatabase sharded =
        ShardedTransactionDatabase::Split(db, k);
    for (size_t minsup : {size_t{1}, size_t{10}, size_t{25}, size_t{801}}) {
      std::vector<size_t> local = sharded.LocalThresholds(minsup);
      ASSERT_EQ(local.size(), k);
      // Sum over shards of (s_k - 1) < min_support: a set that misses
      // every local threshold has global support <= sum (s_k - 1), hence
      // is globally infrequent — no false negatives in phase 1.
      size_t slack = 0;
      for (size_t s : local) {
        EXPECT_GE(s, 1u);
        slack += s - 1;
      }
      EXPECT_LT(slack, std::max<size_t>(minsup, 1));
    }
  }
}

TEST(PartitionMinerTest, Fig1ExactTheoryAndBorders) {
  TransactionDatabase db = Fig1Database();
  AprioriResult expected = MineFrequentSets(&db, 2);
  for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
    ShardedTransactionDatabase sharded =
        ShardedTransactionDatabase::Split(db, k);
    PartitionResult r = MinePartitioned(&sharded, 2);
    ASSERT_EQ(r.frequent.size(), expected.frequent.size()) << "K=" << k;
    for (size_t i = 0; i < r.frequent.size(); ++i) {
      EXPECT_EQ(r.frequent[i].items, expected.frequent[i].items);
      EXPECT_EQ(r.frequent[i].support, expected.frequent[i].support);
    }
    EXPECT_EQ(r.maximal, expected.maximal) << "K=" << k;
    EXPECT_EQ(r.negative_border, expected.negative_border) << "K=" << k;
    EXPECT_EQ(r.num_shards, k);
    EXPECT_LE(r.phase2_evaluations,
              expected.frequent.size() + expected.negative_border.size());
    EXPECT_LE(r.frequent.size(), r.candidate_union_size);
  }
}

TEST(PartitionMinerTest, ThresholdAboveRowsYieldsEmptyTheory) {
  TransactionDatabase db = Fig1Database();
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 3);
  PartitionResult r = MinePartitioned(&sharded, 6);  // > 5 rows
  EXPECT_TRUE(r.frequent.empty());
  EXPECT_TRUE(r.maximal.empty());
  // Matches Apriori: the theory is empty and Bd- = {∅}.
  ASSERT_EQ(r.negative_border.size(), 1u);
  EXPECT_EQ(r.negative_border[0], Bitset(4));
  EXPECT_LE(r.phase2_evaluations, 1u);
}

TEST(PartitionMinerTest, EmptyDatabase) {
  TransactionDatabase db(4);
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 2);
  PartitionResult r = MinePartitioned(&sharded, 1);
  EXPECT_TRUE(r.frequent.empty());
  ASSERT_EQ(r.negative_border.size(), 1u);
  EXPECT_EQ(r.negative_border[0], Bitset(4));
}

TEST(PartitionMinerTest, MinSupportZeroClampsToOne) {
  TransactionDatabase db = Fig1Database();
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 2);
  AprioriResult expected = MineFrequentSets(&db, 1);
  PartitionResult r = MinePartitioned(&sharded, 0);
  ASSERT_EQ(r.frequent.size(), expected.frequent.size());
  for (size_t i = 0; i < r.frequent.size(); ++i) {
    EXPECT_EQ(r.frequent[i].items, expected.frequent[i].items);
    EXPECT_EQ(r.frequent[i].support, expected.frequent[i].support);
  }
}

TEST(PartitionMinerTest, AsAprioriResultFeedsRuleGeneration) {
  TransactionDatabase db = Fig1Database();
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 2);
  PartitionResult part = MinePartitioned(&sharded, 2);
  AprioriResult as_apriori = AsAprioriResult(part);
  AprioriResult direct = MineFrequentSets(&db, 2);
  auto from_partition =
      GenerateRules(as_apriori, db.num_transactions(), 0.0).value();
  auto from_direct =
      GenerateRules(direct, db.num_transactions(), 0.0).value();
  ASSERT_EQ(from_partition.size(), from_direct.size());
  for (size_t i = 0; i < from_partition.size(); ++i) {
    EXPECT_EQ(from_partition[i].antecedent, from_direct[i].antecedent);
    EXPECT_EQ(from_partition[i].consequent, from_direct[i].consequent);
    EXPECT_EQ(from_partition[i].support, from_direct[i].support);
    EXPECT_DOUBLE_EQ(from_partition[i].confidence,
                     from_direct[i].confidence);
  }
}

// Exact-count reuse: with a single shard the local threshold equals the
// global one, so every union candidate is locally frequent in "every"
// shard and phase 2 confirms the whole theory from phase-1 sums — zero
// database passes.
TEST(PartitionMinerTest, SingleShardReusesEveryCount) {
  TransactionDatabase db = QuestDatabase(19);
  AprioriResult expected = MineFrequentSets(&db, 20);
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 1);
  PartitionResult r = MinePartitioned(&sharded, 20);
  EXPECT_EQ(r.phase2_evaluations, 0u);
  EXPECT_EQ(r.phase2_reused, expected.frequent.size());
  EXPECT_EQ(r.phase2_rejected, 0u);
  ASSERT_EQ(r.frequent.size(), expected.frequent.size());
  for (size_t i = 0; i < r.frequent.size(); ++i) {
    EXPECT_EQ(r.frequent[i].items, expected.frequent[i].items);
    EXPECT_EQ(r.frequent[i].support, expected.frequent[i].support);
  }
  EXPECT_EQ(r.negative_border, expected.negative_border);
}

// Evaluations + reused = gated candidates decided, and reused candidates
// are always confirmed (their summed local thresholds meet the global
// one), so rejected <= evaluations.
TEST(PartitionMinerTest, ReuseAccountingIsConsistent) {
  TransactionDatabase db = QuestDatabase(23);
  for (size_t k : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
    ShardedTransactionDatabase sharded =
        ShardedTransactionDatabase::Split(db, k);
    PartitionResult r = MinePartitioned(&sharded, 20);
    EXPECT_LE(r.phase2_rejected, r.phase2_evaluations) << "K=" << k;
    EXPECT_LE(r.frequent.size(), r.phase2_evaluations + r.phase2_reused)
        << "K=" << k;
    EXPECT_EQ(r.phase2_evaluations + r.phase2_reused,
              r.frequent.size() + r.phase2_rejected)
        << "K=" << k;
  }
}

// The Theorem 7 transversal construction and the level loop's
// apriori-gen rejects produce the identical Bd-(Th).
TEST(PartitionMinerTest, TransversalBorderMatchesGeneration) {
  TransactionDatabase db = QuestDatabase(29);
  for (size_t k : {size_t{1}, size_t{3}}) {
    ShardedTransactionDatabase sharded =
        ShardedTransactionDatabase::Split(db, k);
    PartitionResult generated = MinePartitioned(&sharded, 20);
    BergeTransversals berge;
    std::vector<Bitset> exact = NegativeBorderViaTransversals(
        generated.maximal, db.num_items(), &berge);
    CanonicalSort(&exact);
    EXPECT_EQ(generated.negative_border, exact) << "K=" << k;
  }
}

// The BoundReport line for phase 2 holds: full-pass sets counted in
// phase 2 never exceed |Th| + |Bd-(Th)| (the Theorem 10 budget the
// levelwise algorithm itself would spend), and |Th| <= candidate union.
TEST(PartitionMinerTest, BoundReportHolds) {
  TransactionDatabase db = QuestDatabase(17);
  for (size_t k : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ShardedTransactionDatabase sharded =
        ShardedTransactionDatabase::Split(db, k);
    PartitionResult r = MinePartitioned(&sharded, 20);
    obs::PartitionBoundInputs in;
    in.phase2_evaluations = r.phase2_evaluations;
    in.theory_size = r.frequent.size();
    in.negative_border_size = r.negative_border.size();
    in.candidate_union_size = r.candidate_union_size;
    obs::BoundReport report = obs::PartitionBoundReport(in);
    EXPECT_TRUE(report.AllHold()) << "K=" << k;
    ASSERT_EQ(report.lines().size(), 2u);
    EXPECT_LE(report.lines()[0].Ratio(), 1.0);
  }
}

// Past 64 shards phase 1 runs one walk per group of 64 and merges their
// unions, and exact-count reuse is off; the output is still Apriori's.
TEST(PartitionMinerTest, MoreThan64ShardsMatchApriori) {
  TransactionDatabase db = QuestDatabase(17);
  AprioriResult reference = MineFrequentSets(&db, 20);
  ShardedTransactionDatabase sharded = ShardedTransactionDatabase::Split(db, 70);
  PartitionResult r = MinePartitioned(&sharded, 20);
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.frequent.size(), reference.frequent.size());
  for (size_t i = 0; i < r.frequent.size(); ++i) {
    EXPECT_EQ(r.frequent[i].items, reference.frequent[i].items);
    EXPECT_EQ(r.frequent[i].support, reference.frequent[i].support);
  }
  EXPECT_EQ(r.maximal, reference.maximal);
  EXPECT_EQ(r.negative_border, reference.negative_border);
  EXPECT_EQ(r.phase2_reused, 0u);
}

}  // namespace
}  // namespace hgm
