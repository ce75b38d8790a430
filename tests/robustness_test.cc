// Anytime-mining contract tests: a tripped RunBudget stops an engine at
// a safe boundary with a *certified* partial result (downward-closed
// theory, antichain borders, only actually-evaluated negative-border
// members), and Resume* continues from the checkpoint to output
// bit-identical to a never-interrupted run — at every possible trip
// point, for every checkpointing engine (levelwise, Dualize-and-Advance,
// Apriori, the partition miner) — and the checkpoint bytes themselves
// are pinned for levelwise, Apriori, the stream repair and partition.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/random.h"
#include "common/run_budget.h"
#include "core/audit.h"
#include "core/checkpoint.h"
#include "core/dualize_advance.h"
#include "core/levelwise.h"
#include "mining/apriori.h"
#include "mining/frequency_oracle.h"
#include "mining/generators.h"
#include "mining/partition.h"
#include "mining/sharded_db.h"
#include "mining/stream.h"

namespace hgm {
namespace {

/// Figure 1 of the paper: the 2-frequent sets are exactly the subsets of
/// {ABC, BD}.
TransactionDatabase Fig1Database() {
  return TransactionDatabase::FromRows(4, {{0, 1, 2},
                                           {0, 1, 2},
                                           {1, 3},
                                           {1, 3},
                                           {0, 3}});
}

TransactionDatabase SmallQuestDatabase(uint64_t seed) {
  Rng rng(seed);
  QuestParams params;
  params.num_transactions = 120;
  params.num_items = 12;
  params.avg_transaction_size = 4;
  return GenerateQuest(params, &rng);
}

/// Every one-smaller subset of every member must also be a member.
bool DownwardClosed(const std::vector<Bitset>& family) {
  std::set<Bitset> members(family.begin(), family.end());
  for (const Bitset& x : family) {
    for (size_t i = 0; i < x.size(); ++i) {
      if (!x.Test(i)) continue;
      Bitset sub = x;
      sub.Reset(i);
      if (members.find(sub) == members.end()) return false;
    }
  }
  return true;
}

bool IsSubsetFamily(const std::vector<Bitset>& part,
                    const std::vector<Bitset>& whole) {
  std::set<Bitset> w(whole.begin(), whole.end());
  return std::all_of(part.begin(), part.end(),
                     [&](const Bitset& x) { return w.count(x) > 0; });
}

void ExpectSameLevelwise(const LevelwiseResult& a, const LevelwiseResult& b) {
  EXPECT_EQ(a.theory, b.theory);
  EXPECT_EQ(a.positive_border, b.positive_border);
  EXPECT_EQ(a.negative_border, b.negative_border);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_EQ(a.candidates_per_level, b.candidates_per_level);
  EXPECT_EQ(a.interesting_per_level, b.interesting_per_level);
  EXPECT_EQ(a.stop_reason, StopReason::kCompleted);
  EXPECT_EQ(b.stop_reason, StopReason::kCompleted);
}

TEST(RobustnessLevelwiseTest, QueryBudgetTripsToCertifiedPrefix) {
  TransactionDatabase db = Fig1Database();
  FrequencyOracle clean_oracle(&db, 2);
  LevelwiseResult clean = RunLevelwise(&clean_oracle);
  ASSERT_EQ(clean.stop_reason, StopReason::kCompleted);
  ASSERT_GT(clean.queries, 1u);

  for (uint64_t q = 1; q < clean.queries; ++q) {
    FrequencyOracle oracle(&db, 2);
    LevelwiseOptions opts;
    opts.budget.max_queries = q;
    LevelwiseResult part = RunLevelwise(&oracle, opts);
    ASSERT_EQ(part.stop_reason, StopReason::kQueryBudget) << "cap " << q;
    EXPECT_LE(part.queries, q);
    ASSERT_TRUE(part.checkpoint.has_value());

    PartialTheory pt = AsPartialTheory(part);
    EXPECT_EQ(pt.stop_reason, StopReason::kQueryBudget);
    EXPECT_TRUE(DownwardClosed(pt.theory)) << "cap " << q;
    EXPECT_TRUE(audit::AuditAntichain(pt.positive_border, "partial Bd+"));
    EXPECT_TRUE(audit::AuditAntichain(pt.negative_border, "partial Bd-"));
    // Certification: the prefix never claims sets the full run refutes.
    EXPECT_TRUE(IsSubsetFamily(pt.theory, clean.theory));
    EXPECT_TRUE(IsSubsetFamily(pt.negative_border, clean.negative_border));
  }
}

TEST(RobustnessLevelwiseTest, ResumeIsBitIdenticalAtEveryTripPoint) {
  TransactionDatabase db = SmallQuestDatabase(11);
  FrequencyOracle clean_oracle(&db, 6);
  LevelwiseResult clean = RunLevelwise(&clean_oracle);

  for (uint64_t q = 1; q < clean.queries; ++q) {
    FrequencyOracle oracle(&db, 6);
    LevelwiseOptions opts;
    opts.budget.max_queries = q;
    LevelwiseResult part = RunLevelwise(&oracle, opts);
    ASSERT_NE(part.stop_reason, StopReason::kCompleted) << "cap " << q;
    ASSERT_TRUE(part.checkpoint.has_value());

    FrequencyOracle resumed_oracle(&db, 6);
    auto resumed = ResumeLevelwise(&resumed_oracle, *part.checkpoint);
    ASSERT_TRUE(resumed.ok()) << resumed.status().message();
    ExpectSameLevelwise(clean, *resumed);
  }
}

TEST(RobustnessLevelwiseTest, CancelledTokenStopsAtFirstBoundary) {
  TransactionDatabase db = Fig1Database();
  FrequencyOracle oracle(&db, 2);
  CancellationSource source;
  source.RequestCancel();
  LevelwiseOptions opts;
  opts.budget.cancel = source.token();
  LevelwiseResult part = RunLevelwise(&oracle, opts);
  EXPECT_EQ(part.stop_reason, StopReason::kCancelled);
  // The ∅ probe precedes budget enforcement: the certified prefix is
  // never empty, so a cancelled run still answers for level 0.
  EXPECT_EQ(part.queries, 1u);
  ASSERT_TRUE(part.checkpoint.has_value());

  // A cancelled run resumes exactly like a budget-tripped one.
  FrequencyOracle resumed_oracle(&db, 2);
  auto resumed = ResumeLevelwise(&resumed_oracle, *part.checkpoint);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  FrequencyOracle clean_oracle(&db, 2);
  ExpectSameLevelwise(RunLevelwise(&clean_oracle), *resumed);
}

TEST(RobustnessLevelwiseTest, MemoryBudgetTripsBeforeTheBigLevel) {
  TransactionDatabase db = SmallQuestDatabase(3);
  FrequencyOracle oracle(&db, 4);
  LevelwiseOptions opts;
  // One candidate bitset of width 12 packs into 2 bytes; a 1-byte cap
  // cannot admit any level, so the run trips on the very first batch.
  opts.budget.max_candidate_bytes = 1;
  LevelwiseResult part = RunLevelwise(&oracle, opts);
  EXPECT_EQ(part.stop_reason, StopReason::kMemoryBudget);
  // Only the ∅ probe (charged before enforcement begins) ran.
  EXPECT_EQ(part.queries, 1u);
  ASSERT_TRUE(part.checkpoint.has_value());
}

TEST(RobustnessDualizeAdvanceTest, TripAndResumeAtEveryQueryCap) {
  TransactionDatabase db = Fig1Database();
  FrequencyOracle clean_oracle(&db, 2);
  DualizeAdvanceResult clean = RunDualizeAdvance(&clean_oracle);
  ASSERT_EQ(clean.stop_reason, StopReason::kCompleted);

  for (uint64_t q = 1; q < clean.queries; ++q) {
    FrequencyOracle oracle(&db, 2);
    DualizeAdvanceOptions opts;
    opts.budget.max_queries = q;
    DualizeAdvanceResult part = RunDualizeAdvance(&oracle, opts);
    if (part.stop_reason == StopReason::kCompleted) continue;
    ASSERT_TRUE(part.checkpoint.has_value());
    // Discovered maximal sets are genuinely maximal: an antichain, and a
    // subfamily of the full run's positive border.
    EXPECT_TRUE(audit::AuditAntichain(part.positive_border, "D&A partial"));
    EXPECT_TRUE(IsSubsetFamily(part.positive_border, clean.positive_border));

    FrequencyOracle resumed_oracle(&db, 2);
    auto resumed = ResumeDualizeAdvance(&resumed_oracle, *part.checkpoint);
    ASSERT_TRUE(resumed.ok()) << resumed.status().message();
    EXPECT_EQ(resumed->positive_border, clean.positive_border);
    EXPECT_EQ(resumed->negative_border, clean.negative_border);
    EXPECT_EQ(resumed->queries, clean.queries);
    EXPECT_EQ(resumed->iterations, clean.iterations);
    EXPECT_EQ(resumed->stop_reason, StopReason::kCompleted);
  }
}

void ExpectSameApriori(const AprioriResult& a, const AprioriResult& b) {
  ASSERT_EQ(a.frequent.size(), b.frequent.size());
  for (size_t i = 0; i < a.frequent.size(); ++i) {
    EXPECT_EQ(a.frequent[i].items, b.frequent[i].items) << "index " << i;
    EXPECT_EQ(a.frequent[i].support, b.frequent[i].support) << "index " << i;
  }
  EXPECT_EQ(a.maximal, b.maximal);
  EXPECT_EQ(a.negative_border, b.negative_border);
  EXPECT_EQ(a.support_counts, b.support_counts);
  EXPECT_EQ(a.candidates_per_level, b.candidates_per_level);
  EXPECT_EQ(a.frequent_per_level, b.frequent_per_level);
}

TEST(RobustnessAprioriTest, ResumeIsBitIdenticalAtEveryTripPoint) {
  TransactionDatabase db = Fig1Database();
  AprioriResult clean = MineFrequentSets(&db, 2);
  ASSERT_EQ(clean.stop_reason, StopReason::kCompleted);

  for (uint64_t q = 1; q < clean.support_counts; ++q) {
    AprioriOptions opts;
    opts.budget.max_queries = q;
    AprioriResult part = MineFrequentSets(&db, 2, opts);
    if (part.stop_reason == StopReason::kCompleted) continue;
    ASSERT_TRUE(part.checkpoint.has_value()) << "cap " << q;
    EXPECT_LE(part.support_counts, q);
    EXPECT_TRUE(audit::AuditAntichain(part.maximal, "apriori partial Bd+"));

    auto resumed = ResumeFrequentSets(&db, *part.checkpoint);
    ASSERT_TRUE(resumed.ok()) << resumed.status().message();
    EXPECT_EQ(resumed->stop_reason, StopReason::kCompleted);
    ExpectSameApriori(clean, *resumed);
  }
}

TEST(RobustnessAprioriTest, PreItemScanTripStillCheckpointsItsState) {
  // Regression: a trip before the item scan (only ∅ counted) must still
  // serialize the level-0 state — an early checkpoint whose sections were
  // captured after the result moved out lost ∅ and shifted every
  // per-level tally on resume.
  TransactionDatabase db = Fig1Database();
  AprioriOptions opts;
  opts.budget.max_queries = 1;
  AprioriResult part = MineFrequentSets(&db, 2, opts);
  ASSERT_EQ(part.stop_reason, StopReason::kQueryBudget);
  ASSERT_TRUE(part.checkpoint.has_value());
  const std::vector<CheckpointEntry>* freq =
      part.checkpoint->FindSection("frequent");
  ASSERT_NE(freq, nullptr);
  ASSERT_EQ(freq->size(), 1u);
  EXPECT_EQ((*freq)[0].items.Count(), 0u);
  EXPECT_EQ((*freq)[0].value, db.num_transactions());
}

TEST(RobustnessPartitionTest, ResumeIsBitIdenticalAtEveryTripPoint) {
  TransactionDatabase db = SmallQuestDatabase(17);
  AprioriResult reference = MineFrequentSets(&db, 5);

  for (size_t shards : {size_t{2}, size_t{3}, size_t{70}}) {
    ShardedTransactionDatabase sharded =
        ShardedTransactionDatabase::Split(db, shards);
    PartitionResult clean = MinePartitioned(&sharded, 5);
    ASSERT_EQ(clean.stop_reason, StopReason::kCompleted);
    ASSERT_TRUE(clean.status.ok());

    for (uint64_t q = 1; q <= clean.phase2_evaluations; ++q) {
      PartitionOptions opts;
      opts.budget.max_queries = q;
      PartitionResult part = MinePartitioned(&sharded, 5, opts);
      if (part.stop_reason == StopReason::kCompleted) continue;
      ASSERT_TRUE(part.checkpoint.has_value())
          << "shards " << shards << " cap " << q;

      auto resumed = ResumePartition(&sharded, *part.checkpoint);
      ASSERT_TRUE(resumed.ok()) << resumed.status().message();
      EXPECT_EQ(resumed->stop_reason, StopReason::kCompleted);
      ASSERT_EQ(resumed->frequent.size(), clean.frequent.size());
      for (size_t i = 0; i < clean.frequent.size(); ++i) {
        EXPECT_EQ(resumed->frequent[i].items, clean.frequent[i].items);
        EXPECT_EQ(resumed->frequent[i].support, clean.frequent[i].support);
      }
      EXPECT_EQ(resumed->maximal, clean.maximal);
      EXPECT_EQ(resumed->negative_border, clean.negative_border);
      EXPECT_EQ(resumed->phase2_levels, clean.phase2_levels);
      EXPECT_EQ(resumed->phase2_rejected, clean.phase2_rejected);
      // The checkpoint carries the exact-count-reuse state, so the
      // pass/reuse split of the combined run matches the clean one.
      EXPECT_EQ(resumed->phase2_evaluations, clean.phase2_evaluations);
      EXPECT_EQ(resumed->phase2_reused, clean.phase2_reused);
    }
    // And the clean sharded run agrees with Apriori field for field.
    ASSERT_EQ(clean.frequent.size(), reference.frequent.size());
  }
}

TEST(RobustnessPartitionTest, PartialNegativeBorderIsCertified) {
  TransactionDatabase db = SmallQuestDatabase(17);
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 2);
  PartitionResult clean = MinePartitioned(&sharded, 5);

  for (uint64_t q = 1; q <= clean.phase2_evaluations; ++q) {
    PartitionOptions opts;
    opts.budget.max_queries = q;
    PartitionResult part = MinePartitioned(&sharded, 5, opts);
    if (part.stop_reason == StopReason::kCompleted) continue;
    PartialTheory pt = AsPartialTheory(part);
    EXPECT_TRUE(DownwardClosed(pt.theory)) << "cap " << q;
    EXPECT_TRUE(audit::AuditAntichain(pt.positive_border, "part Bd+"));
    EXPECT_TRUE(audit::AuditAntichain(pt.negative_border, "part Bd-"));
    // Partial Bd- members were individually counted and rejected, so
    // each is genuinely infrequent in the full store.
    for (const Bitset& x : pt.negative_border) {
      EXPECT_LT(db.Support(x), 5u);
    }
  }
}

TEST(RobustnessResumeTest, RejectsMismatchedCheckpointKinds) {
  TransactionDatabase db = Fig1Database();
  AprioriOptions opts;
  opts.budget.max_queries = 2;
  AprioriResult part = MineFrequentSets(&db, 2, opts);
  ASSERT_TRUE(part.checkpoint.has_value());

  FrequencyOracle oracle(&db, 2);
  auto as_levelwise = ResumeLevelwise(&oracle, *part.checkpoint);
  EXPECT_FALSE(as_levelwise.ok());
  auto as_dualize = ResumeDualizeAdvance(&oracle, *part.checkpoint);
  EXPECT_FALSE(as_dualize.ok());
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 2);
  auto as_partition = ResumePartition(&sharded, *part.checkpoint);
  EXPECT_FALSE(as_partition.ok());
}

TEST(RobustnessResumeTest, CheckpointSurvivesSerializeParseRoundTrip) {
  // Resume through the text format, not just the in-memory object — the
  // CLI's --checkpoint/--resume path.
  TransactionDatabase db = SmallQuestDatabase(11);
  FrequencyOracle oracle(&db, 6);
  LevelwiseOptions opts;
  opts.budget.max_queries = 30;
  LevelwiseResult part = RunLevelwise(&oracle, opts);
  ASSERT_NE(part.stop_reason, StopReason::kCompleted);
  ASSERT_TRUE(part.checkpoint.has_value());

  auto reparsed = ParseCheckpoint(SerializeCheckpoint(*part.checkpoint));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  FrequencyOracle resumed_oracle(&db, 6);
  auto resumed = ResumeLevelwise(&resumed_oracle, *reparsed);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  FrequencyOracle clean_oracle(&db, 6);
  ExpectSameLevelwise(RunLevelwise(&clean_oracle), *resumed);
}

// Golden checkpoints: the exact bytes a budget-tripped run writes, plus
// its certified partial Bd+, at fixed trip points on tiny fixtures.  The
// resume tests above only prove a checkpoint round-trips through the
// current code; these pin the format itself, because checkpoints outlive
// the process that wrote them (hgmine_serve reloads parked apriori
// checkpoints from disk, the CLI resumes from --checkpoint files).

std::string PartialBdPlus(const std::vector<Bitset>& positive_border) {
  std::string out = "bd+";
  for (const Bitset& x : positive_border) out += " " + x.ToString();
  return out + "\n";
}

/// Figure 1 plus an item E (index 4) that occurs only twice, alone:
/// E is frequent but never extends, so it enters Bd+ at level 2 and the
/// checkpoints' `maximal` sections are not all empty.
TransactionDatabase Fig1WithLoneItem() {
  return TransactionDatabase::FromRows(
      5, {{0, 1, 2}, {0, 1, 2}, {1, 3}, {1, 3}, {0, 3}, {4}, {4}});
}

std::string LevelwiseGolden(uint64_t max_queries) {
  TransactionDatabase db = Fig1WithLoneItem();
  FrequencyOracle oracle(&db, 2);
  LevelwiseOptions opts;
  opts.budget.max_queries = max_queries;
  LevelwiseResult part = RunLevelwise(&oracle, opts);
  EXPECT_EQ(part.stop_reason, StopReason::kQueryBudget);
  if (!part.checkpoint) return "no checkpoint";
  return SerializeCheckpoint(*part.checkpoint) +
         PartialBdPlus(part.positive_border);
}

std::string AprioriGolden(uint64_t max_queries) {
  TransactionDatabase db = Fig1WithLoneItem();
  AprioriOptions opts;
  opts.budget.max_queries = max_queries;
  AprioriResult part = MineFrequentSets(&db, 2, opts);
  EXPECT_EQ(part.stop_reason, StopReason::kQueryBudget);
  if (!part.checkpoint) return "no checkpoint";
  return SerializeCheckpoint(*part.checkpoint) + PartialBdPlus(part.maximal);
}

/// Streams a 10-row feed (window 4, slide 2, minsup 2) and trips the
/// boundary with index \p trip_boundary at \p max_queries fresh counts.
std::string StreamGolden(size_t trip_boundary, uint64_t max_queries) {
  const std::vector<std::vector<size_t>> rows = {
      {0, 1, 2}, {0, 1}, {1, 3}, {0, 1, 2}, {2, 3},
      {1, 2, 3}, {0, 3}, {0, 1, 3}, {0, 2, 3}, {1, 2}};
  StreamOptions options;
  options.slide_rows = 2;
  StreamMiner miner(4, 2, 4, options);
  for (const std::vector<size_t>& row : rows) {
    if (!miner.Push(Bitset::FromIndices(4, row))) continue;
    if (miner.windows_completed() == trip_boundary) {
      RunBudget tight;
      tight.max_queries = max_queries;
      miner.set_budget(tight);
      StreamWindowResult part = miner.AdvanceWindow();
      EXPECT_EQ(part.stop_reason, StopReason::kQueryBudget);
      if (!part.checkpoint) return "no checkpoint";
      return SerializeCheckpoint(*part.checkpoint) +
             PartialBdPlus(part.maximal);
    }
    (void)miner.AdvanceWindow();
  }
  return "boundary not reached";
}

/// Seven rows in two shards for partition at minsup 2 (local thresholds
/// 1 and 2).  Shard 0 alone makes {0, 3} and {1, 2} locally frequent,
/// so phase 2 counts and rejects them; {1, 3, 4} is frequent in shard 1
/// only, so a third level is counted.  Apriori-gen order and canonical
/// order differ on the level-2 sets, which pins the sections' order.
TransactionDatabase ShardSkewedRows() {
  return TransactionDatabase::FromRows(5, {{0, 3},
                                           {1, 2},
                                           {0, 4},
                                           {0, 4},
                                           {1, 3, 4},
                                           {1, 3, 4},
                                           {2, 3}});
}

/// Trips a K = 2 partition run over ShardSkewedRows (a pre-cancelled
/// token when \p max_queries is 0), resumes it through the text format
/// and checks the result against the clean run.
std::string PartitionGolden(uint64_t max_queries) {
  TransactionDatabase db = ShardSkewedRows();
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 2);
  PartitionOptions opts;
  CancellationSource source;
  if (max_queries == 0) {
    source.RequestCancel();
    opts.budget.cancel = source.token();
  } else {
    opts.budget.max_queries = max_queries;
  }
  PartitionResult part = MinePartitioned(&sharded, 2, opts);
  EXPECT_EQ(part.stop_reason, max_queries == 0 ? StopReason::kCancelled
                                               : StopReason::kQueryBudget);
  if (!part.checkpoint) return "no checkpoint";
  const std::string text = SerializeCheckpoint(*part.checkpoint);

  auto reparsed = ParseCheckpoint(text);
  EXPECT_TRUE(reparsed.ok()) << reparsed.status().message();
  if (!reparsed.ok()) return "unparsable checkpoint";
  auto resumed = ResumePartition(&sharded, *reparsed);
  EXPECT_TRUE(resumed.ok()) << resumed.status().message();
  if (!resumed.ok()) return "resume failed";
  const PartitionResult clean = MinePartitioned(&sharded, 2);
  EXPECT_EQ(resumed->stop_reason, StopReason::kCompleted);
  EXPECT_EQ(resumed->frequent.size(), clean.frequent.size());
  for (size_t i = 0;
       i < std::min(resumed->frequent.size(), clean.frequent.size()); ++i) {
    EXPECT_EQ(resumed->frequent[i].items, clean.frequent[i].items);
    EXPECT_EQ(resumed->frequent[i].support, clean.frequent[i].support);
  }
  EXPECT_EQ(resumed->maximal, clean.maximal);
  EXPECT_EQ(resumed->negative_border, clean.negative_border);
  EXPECT_EQ(resumed->candidate_union_size, clean.candidate_union_size);
  EXPECT_EQ(resumed->phase2_evaluations, clean.phase2_evaluations);
  EXPECT_EQ(resumed->phase2_reused, clean.phase2_reused);
  EXPECT_EQ(resumed->phase2_rejected, clean.phase2_rejected);
  EXPECT_EQ(resumed->phase2_levels, clean.phase2_levels);
  return text + PartialBdPlus(part.maximal);
}

TEST(RobustnessGoldenCheckpointTest, Levelwise) {
  // The fixture costs 17 queries at minsup 2: ∅, 5 singletons, 10 pairs
  // and ABC.  Trip before level 1, before level 2 and before level 3.
  EXPECT_EQ(LevelwiseGolden(1),
            "hgmine-checkpoint v1\n"
            "kind levelwise\n"
            "width 5\n"
            "scalar next_level 0\n"
            "scalar queries 1\n"
            "scalar candidates 1\n"
            "scalar levels 0\n"
            "scalar record_theory 1\n"
            "section frontier 1\n"
            "0 0\n"
            "section maximal 0\n"
            "section negative_border 0\n"
            "section theory 1\n"
            "0 0\n"
            "section candidates_per_level 1\n"
            "0 1\n"
            "section interesting_per_level 1\n"
            "0 1\n"
            "end\n"
            "bd+ {}\n");
  EXPECT_EQ(LevelwiseGolden(6),
            "hgmine-checkpoint v1\n"
            "kind levelwise\n"
            "width 5\n"
            "scalar next_level 1\n"
            "scalar queries 6\n"
            "scalar candidates 6\n"
            "scalar levels 1\n"
            "scalar record_theory 1\n"
            "section frontier 5\n"
            "1 0 0\n"
            "1 0 1\n"
            "1 0 2\n"
            "1 0 3\n"
            "1 0 4\n"
            "section maximal 0\n"
            "section negative_border 0\n"
            "section theory 6\n"
            "0 0\n"
            "1 0 0\n"
            "1 0 1\n"
            "1 0 2\n"
            "1 0 3\n"
            "1 0 4\n"
            "section candidates_per_level 2\n"
            "0 1\n"
            "0 5\n"
            "section interesting_per_level 2\n"
            "0 1\n"
            "0 5\n"
            "end\n"
            "bd+ {0} {1} {2} {3} {4}\n");
  EXPECT_EQ(LevelwiseGolden(16),
            "hgmine-checkpoint v1\n"
            "kind levelwise\n"
            "width 5\n"
            "scalar next_level 2\n"
            "scalar queries 16\n"
            "scalar candidates 16\n"
            "scalar levels 2\n"
            "scalar record_theory 1\n"
            "section frontier 4\n"
            "2 0 0 1\n"
            "2 0 0 2\n"
            "2 0 1 2\n"
            "2 0 1 3\n"
            "section maximal 1\n"
            "1 0 4\n"
            "section negative_border 6\n"
            "2 0 0 3\n"
            "2 0 0 4\n"
            "2 0 1 4\n"
            "2 0 2 3\n"
            "2 0 2 4\n"
            "2 0 3 4\n"
            "section theory 10\n"
            "0 0\n"
            "1 0 0\n"
            "1 0 1\n"
            "1 0 2\n"
            "1 0 3\n"
            "1 0 4\n"
            "2 0 0 1\n"
            "2 0 0 2\n"
            "2 0 1 2\n"
            "2 0 1 3\n"
            "section candidates_per_level 3\n"
            "0 1\n"
            "0 5\n"
            "0 10\n"
            "section interesting_per_level 3\n"
            "0 1\n"
            "0 5\n"
            "0 4\n"
            "end\n"
            "bd+ {4} {0, 1} {0, 2} {1, 2} {1, 3}\n");
}

TEST(RobustnessGoldenCheckpointTest, Apriori) {
  EXPECT_EQ(AprioriGolden(1),
            "hgmine-checkpoint v1\n"
            "kind apriori\n"
            "width 5\n"
            "scalar next_level 1\n"
            "scalar support_counts 1\n"
            "scalar min_support 2\n"
            "scalar record_all 1\n"
            "section frontier 0\n"
            "section maximal 0\n"
            "section negative_border 0\n"
            "section frequent 1\n"
            "0 7\n"
            "section candidates_per_level 1\n"
            "0 1\n"
            "section frequent_per_level 1\n"
            "0 1\n"
            "end\n"
            "bd+ {}\n");
  EXPECT_EQ(AprioriGolden(6),
            "hgmine-checkpoint v1\n"
            "kind apriori\n"
            "width 5\n"
            "scalar next_level 2\n"
            "scalar support_counts 6\n"
            "scalar min_support 2\n"
            "scalar record_all 1\n"
            "section frontier 5\n"
            "1 3 0\n"
            "1 4 1\n"
            "1 2 2\n"
            "1 3 3\n"
            "1 2 4\n"
            "section maximal 0\n"
            "section negative_border 0\n"
            "section frequent 6\n"
            "0 7\n"
            "1 3 0\n"
            "1 4 1\n"
            "1 2 2\n"
            "1 3 3\n"
            "1 2 4\n"
            "section candidates_per_level 2\n"
            "0 1\n"
            "0 5\n"
            "section frequent_per_level 2\n"
            "0 1\n"
            "0 5\n"
            "end\n"
            "bd+ {0} {1} {2} {3} {4}\n");
  EXPECT_EQ(AprioriGolden(16),
            "hgmine-checkpoint v1\n"
            "kind apriori\n"
            "width 5\n"
            "scalar next_level 3\n"
            "scalar support_counts 16\n"
            "scalar min_support 2\n"
            "scalar record_all 1\n"
            "section frontier 4\n"
            "2 2 0 1\n"
            "2 2 0 2\n"
            "2 2 1 2\n"
            "2 2 1 3\n"
            "section maximal 1\n"
            "1 0 4\n"
            "section negative_border 6\n"
            "2 0 0 3\n"
            "2 0 0 4\n"
            "2 0 1 4\n"
            "2 0 2 3\n"
            "2 0 2 4\n"
            "2 0 3 4\n"
            "section frequent 10\n"
            "0 7\n"
            "1 3 0\n"
            "1 4 1\n"
            "1 2 2\n"
            "1 3 3\n"
            "1 2 4\n"
            "2 2 0 1\n"
            "2 2 0 2\n"
            "2 2 1 2\n"
            "2 2 1 3\n"
            "section candidates_per_level 3\n"
            "0 1\n"
            "0 5\n"
            "0 10\n"
            "section frequent_per_level 3\n"
            "0 1\n"
            "0 5\n"
            "0 4\n"
            "end\n"
            "bd+ {4} {0, 1} {0, 2} {1, 2} {1, 3}\n");
}

TEST(RobustnessGoldenCheckpointTest, Stream) {
  // Boundary 1 trips on its first fresh count (level 2); boundary 2 once
  // at level 2 and, with room for two fresh counts, at level 3 — whose
  // resume replays levels 1 and 2 from the tracked supports.
  EXPECT_EQ(StreamGolden(1, 1),
            "hgmine-checkpoint v1\n"
            "kind stream\n"
            "width 4\n"
            "scalar window_index 1\n"
            "scalar next_level 2\n"
            "scalar evaluations 0\n"
            "scalar reused 5\n"
            "scalar min_support 2\n"
            "scalar rows_in_window 4\n"
            "section tracked 5\n"
            "1 3 0\n"
            "1 4 1\n"
            "1 2 2\n"
            "1 1 3\n"
            "2 3 0 1\n"
            "end\n"
            "bd+ {0} {1} {2}\n");
  EXPECT_EQ(StreamGolden(2, 1),
            "hgmine-checkpoint v1\n"
            "kind stream\n"
            "width 4\n"
            "scalar window_index 2\n"
            "scalar next_level 2\n"
            "scalar evaluations 0\n"
            "scalar reused 5\n"
            "scalar min_support 2\n"
            "scalar rows_in_window 4\n"
            "section tracked 8\n"
            "1 1 0\n"
            "1 3 1\n"
            "1 3 2\n"
            "1 3 3\n"
            "2 1 0 1\n"
            "2 1 0 2\n"
            "2 2 1 2\n"
            "3 1 0 1 2\n"
            "end\n"
            "bd+ {1} {2} {3}\n");
  EXPECT_EQ(StreamGolden(2, 2),
            "hgmine-checkpoint v1\n"
            "kind stream\n"
            "width 4\n"
            "scalar window_index 2\n"
            "scalar next_level 3\n"
            "scalar evaluations 2\n"
            "scalar reused 6\n"
            "scalar min_support 2\n"
            "scalar rows_in_window 4\n"
            "section tracked 10\n"
            "1 1 0\n"
            "1 3 1\n"
            "1 3 2\n"
            "1 3 3\n"
            "2 1 0 1\n"
            "2 1 0 2\n"
            "2 2 1 2\n"
            "2 2 1 3\n"
            "2 2 2 3\n"
            "3 1 0 1 2\n"
            "end\n"
            "bd+ {1, 2} {1, 3} {2, 3}\n");
}

TEST(RobustnessGoldenCheckpointTest, Partition) {
  // Phase 2 decides ∅ (reused), 5 singletons (2 counted), 6 pairs (all
  // counted, {0, 3} and {1, 2} rejected) and {1, 3, 4} (counted): 9
  // queries.  Trip before phase 1, before level 2 and before level 3.
  EXPECT_EQ(PartitionGolden(0),
            "hgmine-checkpoint v1\n"
            "kind partition\n"
            "width 5\n"
            "scalar min_support 2\n"
            "scalar phase1_done 0\n"
            "scalar next_level 0\n"
            "scalar phase2_evaluations 0\n"
            "scalar phase2_reused 0\n"
            "scalar phase2_levels 0\n"
            "scalar phase2_rejected 0\n"
            "scalar num_shards 2\n"
            "scalar shard_retries 0\n"
            "scalar unavailable 0\n"
            "end\n"
            "bd+\n");
  EXPECT_EQ(PartitionGolden(2),
            "hgmine-checkpoint v1\n"
            "kind partition\n"
            "width 5\n"
            "scalar min_support 2\n"
            "scalar phase1_done 1\n"
            "scalar next_level 2\n"
            "scalar phase2_evaluations 2\n"
            "scalar phase2_reused 4\n"
            "scalar phase2_levels 2\n"
            "scalar phase2_rejected 0\n"
            "scalar num_shards 2\n"
            "scalar shard_retries 0\n"
            "scalar unavailable 0\n"
            "section local_thresholds 2\n"
            "0 1\n"
            "0 2\n"
            "section local_frequent_per_shard 2\n"
            "0 9\n"
            "0 8\n"
            "section failed_shards 0\n"
            "section union 13\n"
            "0 0\n"
            "1 0 0\n"
            "1 0 1\n"
            "1 0 2\n"
            "1 0 3\n"
            "1 0 4\n"
            "2 0 1 2\n"
            "2 0 0 3\n"
            "2 0 1 3\n"
            "2 0 0 4\n"
            "2 0 1 4\n"
            "2 0 3 4\n"
            "3 0 1 3 4\n"
            "section union_sums 13\n"
            "0 7\n"
            "1 2 0\n"
            "1 3 1\n"
            "1 1 2\n"
            "1 4 3\n"
            "1 4 4\n"
            "2 1 1 2\n"
            "2 1 0 3\n"
            "2 2 1 3\n"
            "2 1 0 4\n"
            "2 2 1 4\n"
            "2 2 3 4\n"
            "3 2 1 3 4\n"
            "section union_masks 13\n"
            "0 3\n"
            "1 1 0\n"
            "1 3 1\n"
            "1 1 2\n"
            "1 3 3\n"
            "1 3 4\n"
            "2 1 1 2\n"
            "2 1 0 3\n"
            "2 2 1 3\n"
            "2 1 0 4\n"
            "2 2 1 4\n"
            "2 2 3 4\n"
            "3 2 1 3 4\n"
            "section confirmed 6\n"
            "0 7\n"
            "1 3 0\n"
            "1 3 1\n"
            "1 2 2\n"
            "1 4 3\n"
            "1 4 4\n"
            "section rejected 0\n"
            "end\n"
            "bd+ {0} {1} {2} {3} {4}\n");
  EXPECT_EQ(PartitionGolden(8),
            "hgmine-checkpoint v1\n"
            "kind partition\n"
            "width 5\n"
            "scalar min_support 2\n"
            "scalar phase1_done 1\n"
            "scalar next_level 3\n"
            "scalar phase2_evaluations 8\n"
            "scalar phase2_reused 4\n"
            "scalar phase2_levels 3\n"
            "scalar phase2_rejected 2\n"
            "scalar num_shards 2\n"
            "scalar shard_retries 0\n"
            "scalar unavailable 0\n"
            "section local_thresholds 2\n"
            "0 1\n"
            "0 2\n"
            "section local_frequent_per_shard 2\n"
            "0 9\n"
            "0 8\n"
            "section failed_shards 0\n"
            "section union 13\n"
            "0 0\n"
            "1 0 0\n"
            "1 0 1\n"
            "1 0 2\n"
            "1 0 3\n"
            "1 0 4\n"
            "2 0 1 2\n"
            "2 0 0 3\n"
            "2 0 1 3\n"
            "2 0 0 4\n"
            "2 0 1 4\n"
            "2 0 3 4\n"
            "3 0 1 3 4\n"
            "section union_sums 13\n"
            "0 7\n"
            "1 2 0\n"
            "1 3 1\n"
            "1 1 2\n"
            "1 4 3\n"
            "1 4 4\n"
            "2 1 1 2\n"
            "2 1 0 3\n"
            "2 2 1 3\n"
            "2 1 0 4\n"
            "2 2 1 4\n"
            "2 2 3 4\n"
            "3 2 1 3 4\n"
            "section union_masks 13\n"
            "0 3\n"
            "1 1 0\n"
            "1 3 1\n"
            "1 1 2\n"
            "1 3 3\n"
            "1 3 4\n"
            "2 1 1 2\n"
            "2 1 0 3\n"
            "2 2 1 3\n"
            "2 1 0 4\n"
            "2 2 1 4\n"
            "2 2 3 4\n"
            "3 2 1 3 4\n"
            "section confirmed 10\n"
            "0 7\n"
            "1 3 0\n"
            "1 3 1\n"
            "1 2 2\n"
            "1 4 3\n"
            "1 4 4\n"
            "2 2 1 3\n"
            "2 2 0 4\n"
            "2 2 1 4\n"
            "2 2 3 4\n"
            "section rejected 2\n"
            "2 0 1 2\n"
            "2 0 0 3\n"
            "end\n"
            "bd+ {2} {1, 3} {0, 4} {1, 4} {3, 4}\n");
}

// Pins the clamp contract documented on RetryPolicy: max_backoff_us is a
// hard per-attempt ceiling on DelayUs under ANY configuration — no
// exponent growth, jitter draw, or saturating sum may exceed it, wrap
// past it, or turn into a surprise tiny sleep.
TEST(RetryPolicyClampTest, DelayNeverExceedsMaxBackoff) {
  const uint64_t bases[] = {1, 1000, uint64_t{1} << 40, uint64_t{1} << 62,
                            std::numeric_limits<uint64_t>::max()};
  const uint64_t caps[] = {1, 999, 100000, uint64_t{1} << 63,
                           std::numeric_limits<uint64_t>::max()};
  for (uint64_t base : bases) {
    for (uint64_t cap : caps) {
      RetryPolicy policy;
      policy.base_backoff_us = base;
      policy.max_backoff_us = cap;
      for (size_t attempt = 0; attempt < 130; attempt += 13) {
        for (uint64_t salt = 0; salt < 3; ++salt) {
          const uint64_t delay = policy.DelayUs(attempt, salt);
          EXPECT_LE(delay, cap)
              << "base=" << base << " cap=" << cap
              << " attempt=" << attempt << " salt=" << salt;
        }
      }
    }
  }
}

TEST(RetryPolicyClampTest, ZeroBaseDisablesSleeping) {
  RetryPolicy policy;
  policy.base_backoff_us = 0;
  policy.max_backoff_us = 100000;
  for (size_t attempt = 0; attempt < 10; ++attempt) {
    EXPECT_EQ(policy.DelayUs(attempt, 7), 0u);
  }
}

TEST(RetryPolicyClampTest, ScheduleIsSeedDeterministicAndGrows) {
  RetryPolicy policy;
  policy.base_backoff_us = 100;
  policy.max_backoff_us = 1u << 20;
  RetryPolicy replay = policy;
  uint64_t prev_floor = 0;
  for (size_t attempt = 0; attempt < 8; ++attempt) {
    const uint64_t delay = policy.DelayUs(attempt, 42);
    // Same (seed, salt, attempt) replays the same schedule — the chaos
    // suite's reproducibility hinges on this.
    EXPECT_EQ(delay, replay.DelayUs(attempt, 42));
    // Exponential floor: attempt a waits at least base * 2^a (pre-cap),
    // and jitter adds at most 100% on top.
    const uint64_t floor = std::min<uint64_t>(100u << attempt,
                                              policy.max_backoff_us);
    EXPECT_GE(delay, floor);
    EXPECT_LE(delay, std::min<uint64_t>(2 * floor, policy.max_backoff_us));
    EXPECT_GE(floor, prev_floor);
    prev_floor = floor;
  }
}

}  // namespace
}  // namespace hgm
