// Chaos suite: run every engine against seed-driven injected faults
// (testing/fault_injection.h) and prove the robustness contract — each
// run completes, retries to the bit-identical answer, or returns a
// certified partial / Unavailable result.  Never UB, never a hang.
// Every schedule is a pure function of its seed, so any failure here
// replays exactly from the seed in the test name/log.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/run_budget.h"
#include "common/thread_pool.h"
#include "core/dualize_advance.h"
#include "core/levelwise.h"
#include "mining/apriori.h"
#include "mining/frequency_oracle.h"
#include "mining/generators.h"
#include "mining/partition.h"
#include "mining/sharded_db.h"
#include "testing/fault_injection.h"

namespace hgm {
namespace {

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
  params.num_transactions = 200;
  params.num_items = 16;
  params.avg_transaction_size = 5;
  return GenerateQuest(params, &rng);
}

/// A no-sleep retry policy with plenty of attempts for chaos rates.
/// A retried batch redraws a fault for every index, so the pass
/// probability per attempt is (1-rate)^batch_size; small batches plus a
/// deep attempt budget make healing certain for any schedule.
RetryPolicy PatientRetry() {
  RetryPolicy retry;
  retry.max_attempts = 64;
  retry.base_backoff_us = 0;
  return retry;
}

TEST(FaultInjectionTest, FaultUniformIsAPureFunctionOfItsInputs) {
  for (uint64_t seed : {0ull, 1ull, 42ull}) {
    for (uint64_t stream : {0ull, 7ull}) {
      for (uint64_t index = 0; index < 64; ++index) {
        double a = FaultUniform(seed, stream, index);
        double b = FaultUniform(seed, stream, index);
        EXPECT_EQ(a, b);
        EXPECT_GE(a, 0.0);
        EXPECT_LT(a, 1.0);
      }
    }
  }
  // Distinct streams decorrelate: the same (seed, index) must not give
  // the same draw on every stream (probability ~0 for honest hashing).
  size_t equal = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    if (FaultUniform(9, 1, i) == FaultUniform(9, 2, i)) ++equal;
  }
  EXPECT_LT(equal, 4u);
}

TEST(FaultInjectionTest, FailOnListTargetsExactAskIndexes) {
  TransactionDatabase db = Fig1Database();
  FrequencyOracle inner(&db, 2);
  FaultSpec spec;
  spec.fail_on = {0};
  FaultInjectingOracle faulty(&inner, spec);
  EXPECT_THROW(faulty.IsInteresting(Bitset(4)), FaultError);
  // Ask index 1 and later are clean.
  EXPECT_TRUE(faulty.IsInteresting(Bitset(4)));
  EXPECT_EQ(faulty.asks(), 2u);
  EXPECT_EQ(faulty.faults(), 1u);
}

TEST(FaultInjectionTest, PermanentFaultBreaksEveryLaterAsk) {
  TransactionDatabase db = Fig1Database();
  FrequencyOracle inner(&db, 2);
  FaultSpec spec;
  spec.permanent_rate = 1.0;
  FaultInjectingOracle faulty(&inner, spec);
  for (int i = 0; i < 3; ++i) {
    try {
      faulty.IsInteresting(Bitset(4));
      FAIL() << "permanently broken oracle answered";
    } catch (const FaultError& e) {
      EXPECT_FALSE(e.transient());
    }
  }
}

TEST(FaultInjectionTest, LatencySpikesUseTheInjectedSleeper) {
  TransactionDatabase db = Fig1Database();
  FrequencyOracle inner(&db, 2);
  FaultSpec spec;
  spec.latency_rate = 1.0;
  spec.latency_us = 250;
  FaultInjectingOracle faulty(&inner, spec);
  std::vector<uint64_t> sleeps;
  faulty.set_sleeper([&](uint64_t us) { sleeps.push_back(us); });
  EXPECT_TRUE(faulty.IsInteresting(Bitset(4)));
  ASSERT_EQ(sleeps.size(), 1u);
  EXPECT_EQ(sleeps[0], 250u);
}

TEST(ChaosLevelwiseTest, TransientFaultsHealToTheCleanAnswer) {
  TransactionDatabase db = Fig1Database();
  FrequencyOracle clean_oracle(&db, 2);
  LevelwiseResult clean = RunLevelwise(&clean_oracle);

  uint64_t total_retries = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    FrequencyOracle inner(&db, 2);
    FaultSpec spec;
    spec.transient_rate = 0.3;
    spec.seed = seed;
    FaultInjectingOracle faulty(&inner, spec);
    RetryingOracle healing(&faulty, PatientRetry());
    healing.set_sleeper([](uint64_t) {});

    LevelwiseResult chaotic = RunLevelwise(&healing);
    EXPECT_EQ(chaotic.theory, clean.theory) << "seed " << seed;
    EXPECT_EQ(chaotic.positive_border, clean.positive_border);
    EXPECT_EQ(chaotic.negative_border, clean.negative_border);
    EXPECT_EQ(chaotic.queries, clean.queries);
    total_retries += healing.retries();
  }
  // At a 30% transient rate across six seeds the suite must actually
  // have exercised the retry path.
  EXPECT_GT(total_retries, 0u);
}

TEST(ChaosLevelwiseTest, SameSeedReplaysTheSameSchedule) {
  TransactionDatabase db = Fig1Database();
  uint64_t retries[2];
  for (int run = 0; run < 2; ++run) {
    FrequencyOracle inner(&db, 2);
    FaultSpec spec;
    spec.transient_rate = 0.3;
    spec.seed = 77;
    FaultInjectingOracle faulty(&inner, spec);
    RetryingOracle healing(&faulty, PatientRetry());
    healing.set_sleeper([](uint64_t) {});
    RunLevelwise(&healing);
    retries[run] = healing.retries();
  }
  EXPECT_EQ(retries[0], retries[1]);
}

TEST(ChaosLevelwiseTest, ScheduleIsThreadCountIndependent) {
  // The batch reserves its whole ask-index range up front, so the fault
  // schedule — and hence the retry count — cannot depend on how many
  // workers evaluate the batch.
  TransactionDatabase db = Fig1Database();
  std::vector<uint64_t> retries;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    ThreadPool pool(threads);
    FrequencyOracle inner(&db, 2, &pool);
    FaultSpec spec;
    spec.transient_rate = 0.25;
    spec.seed = 13;
    FaultInjectingOracle faulty(&inner, spec);
    RetryingOracle healing(&faulty, PatientRetry());
    healing.set_sleeper([](uint64_t) {});
    LevelwiseResult r = RunLevelwise(&healing);
    EXPECT_EQ(r.stop_reason, StopReason::kCompleted);
    retries.push_back(healing.retries());
  }
  EXPECT_EQ(retries[0], retries[1]);
}

TEST(ChaosLevelwiseTest, PermanentFaultEscapesCleanly) {
  TransactionDatabase db = QuestDatabase(5);
  FrequencyOracle inner(&db, 8);
  FaultSpec spec;
  spec.permanent_rate = 0.02;
  spec.seed = 3;
  FaultInjectingOracle faulty(&inner, spec);
  RetryingOracle healing(&faulty, PatientRetry());
  healing.set_sleeper([](uint64_t) {});
  // A permanent fault is not healable: the run must surface FaultError
  // (std::runtime_error) rather than hang or return a wrong answer.
  try {
    LevelwiseResult r = RunLevelwise(&healing);
    EXPECT_EQ(r.stop_reason, StopReason::kCompleted);  // seed missed: fine
  } catch (const FaultError& e) {
    EXPECT_FALSE(e.transient());
  }
}

TEST(ChaosDualizeAdvanceTest, TransientFaultsHealToTheCleanAnswer) {
  TransactionDatabase db = Fig1Database();
  FrequencyOracle clean_oracle(&db, 2);
  DualizeAdvanceResult clean = RunDualizeAdvance(&clean_oracle);

  for (uint64_t seed = 1; seed <= 6; ++seed) {
    FrequencyOracle inner(&db, 2);
    FaultSpec spec;
    spec.transient_rate = 0.3;
    spec.seed = seed;
    FaultInjectingOracle faulty(&inner, spec);
    RetryingOracle healing(&faulty, PatientRetry());
    healing.set_sleeper([](uint64_t) {});

    DualizeAdvanceResult chaotic = RunDualizeAdvance(&healing);
    EXPECT_EQ(chaotic.positive_border, clean.positive_border);
    EXPECT_EQ(chaotic.negative_border, clean.negative_border);
    EXPECT_EQ(chaotic.queries, clean.queries);
  }
}

TEST(ChaosAprioriTest, BudgetAndFaultsComposeIntoResumableRuns) {
  // Chaos under a query budget: the healed run trips at the same point
  // as a fault-free budgeted run, and resumes to the clean answer.
  TransactionDatabase db = Fig1Database();
  AprioriResult clean = MineFrequentSets(&db, 2);

  AprioriOptions opts;
  opts.budget.max_queries = 5;
  AprioriResult part = MineFrequentSets(&db, 2, opts);
  ASSERT_NE(part.stop_reason, StopReason::kCompleted);
  ASSERT_TRUE(part.checkpoint.has_value());
  auto resumed = ResumeFrequentSets(&db, *part.checkpoint);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->support_counts, clean.support_counts);
  EXPECT_EQ(resumed->maximal, clean.maximal);
}

TEST(ChaosPartitionTest, TransientShardFaultsHealByFailover) {
  TransactionDatabase db = QuestDatabase(7);
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 4);
  PartitionResult clean = MinePartitioned(&sharded, 8);
  ASSERT_TRUE(clean.status.ok());

  uint64_t total_retries = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    PartitionOptions opts;
    FaultSpec spec;
    spec.transient_rate = 0.5;
    spec.seed = seed;
    opts.shard_fault_hook = MakeShardFaultSchedule(spec);
    // At rate 0.5 a shard survives some attempt within 24 tries with
    // probability 1 - 2^-24 — exhaustion cannot realistically happen.
    opts.retry.max_attempts = 24;
    opts.sleeper = [](uint64_t) {};

    PartitionResult chaotic = MinePartitioned(&sharded, 8, opts);
    ASSERT_TRUE(chaotic.status.ok()) << "seed " << seed << ": "
                                     << chaotic.status.message();
    EXPECT_TRUE(chaotic.failed_shards.empty());
    ASSERT_EQ(chaotic.frequent.size(), clean.frequent.size());
    for (size_t i = 0; i < clean.frequent.size(); ++i) {
      EXPECT_EQ(chaotic.frequent[i].items, clean.frequent[i].items);
      EXPECT_EQ(chaotic.frequent[i].support, clean.frequent[i].support);
    }
    EXPECT_EQ(chaotic.maximal, clean.maximal);
    EXPECT_EQ(chaotic.negative_border, clean.negative_border);
    total_retries += chaotic.shard_retries;
  }
  EXPECT_GT(total_retries, 0u);
}

TEST(ChaosPartitionTest, PermanentShardFailureYieldsCertifiedUnion) {
  TransactionDatabase db = QuestDatabase(7);
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 4);
  PartitionResult clean = MinePartitioned(&sharded, 8);

  PartitionOptions opts;
  FaultSpec spec;
  spec.permanent_rate = 1.0;  // every shard fails every attempt
  opts.shard_fault_hook = MakeShardFaultSchedule(spec);
  opts.retry.max_attempts = 3;
  opts.sleeper = [](uint64_t) {};

  PartitionResult broken = MinePartitioned(&sharded, 8, opts);
  EXPECT_FALSE(broken.status.ok());
  EXPECT_EQ(broken.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(broken.failed_shards.size(), 4u);
  // 3 attempts per shard -> 2 retries each beyond the first.
  EXPECT_EQ(broken.shard_retries, 8u);
  // The surviving union is empty here, but what is reported must still
  // be certified: every frequent set has its exact global support.
  for (const auto& f : broken.frequent) {
    EXPECT_EQ(db.Support(f.items), f.support);
  }
  EXPECT_LE(broken.frequent.size(), clean.frequent.size());
}

TEST(ChaosPartitionTest, SingleDeadShardKeepsSurvivorsUnion) {
  // Fail exactly shard 0 permanently; the result must be Unavailable yet
  // carry the certified union over shards 1..3 — exact supports, and a
  // subfamily of the clean answer.
  TransactionDatabase db = QuestDatabase(7);
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 4);
  PartitionResult clean = MinePartitioned(&sharded, 8);

  PartitionOptions opts;
  opts.shard_fault_hook = [](size_t shard, size_t) {
    if (shard == 0) throw FaultError("shard 0 is down", false);
  };
  opts.retry.max_attempts = 2;
  opts.sleeper = [](uint64_t) {};

  PartitionResult broken = MinePartitioned(&sharded, 8, opts);
  EXPECT_FALSE(broken.status.ok());
  ASSERT_EQ(broken.failed_shards.size(), 1u);
  EXPECT_EQ(broken.failed_shards[0], 0u);
  EXPECT_LE(broken.frequent.size(), clean.frequent.size());
  for (const auto& f : broken.frequent) {
    EXPECT_EQ(db.Support(f.items), f.support);
  }
}

TEST(ChaosPartitionTest, FaultInsideGroupWalkFailsOnlyItsShard) {
  // Phase 1 mines all four shards in one walk, and the fault hook fires
  // inside it.  The walk's failure must stay with the shard that raised
  // it: the other shards keep their local theories even when no retry is
  // allowed, and a transient fault heals with a single retry.
  TransactionDatabase db = QuestDatabase(7);
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 4);
  PartitionResult clean = MinePartitioned(&sharded, 8);
  ASSERT_TRUE(clean.status.ok());

  for (size_t bad = 0; bad < 4; ++bad) {
    PartitionOptions opts;
    opts.shard_fault_hook = [bad](size_t shard, size_t) {
      if (shard == bad) throw FaultError("shard fails mid-walk", false);
    };
    opts.retry.max_attempts = 1;
    opts.sleeper = [](uint64_t) {};
    PartitionResult broken = MinePartitioned(&sharded, 8, opts);
    EXPECT_EQ(broken.status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(broken.failed_shards, std::vector<size_t>{bad});
    EXPECT_EQ(broken.shard_retries, 0u);
    for (size_t k = 0; k < 4; ++k) {
      if (k == bad) continue;
      EXPECT_EQ(broken.local_frequent_per_shard[k],
                clean.local_frequent_per_shard[k])
          << "bad shard " << bad << ", shard " << k;
    }
    EXPECT_FALSE(broken.frequent.empty());
    for (const auto& f : broken.frequent) {
      EXPECT_EQ(db.Support(f.items), f.support);
    }

    opts.shard_fault_hook = [bad](size_t shard, size_t attempt) {
      if (shard == bad && attempt == 0) {
        throw FaultError("shard fails mid-walk once", true);
      }
    };
    opts.retry.max_attempts = 2;
    PartitionResult healed = MinePartitioned(&sharded, 8, opts);
    ASSERT_TRUE(healed.status.ok()) << healed.status.message();
    EXPECT_EQ(healed.shard_retries, 1u);
    EXPECT_EQ(healed.local_frequent_per_shard,
              clean.local_frequent_per_shard);
    ASSERT_EQ(healed.frequent.size(), clean.frequent.size());
    for (size_t i = 0; i < clean.frequent.size(); ++i) {
      EXPECT_EQ(healed.frequent[i].items, clean.frequent[i].items);
      EXPECT_EQ(healed.frequent[i].support, clean.frequent[i].support);
    }
    EXPECT_EQ(healed.maximal, clean.maximal);
    EXPECT_EQ(healed.negative_border, clean.negative_border);
  }
}

TEST(ChaosShardScheduleTest, DeterministicAcrossRuns) {
  FaultSpec spec;
  spec.transient_rate = 0.5;
  spec.seed = 21;
  auto hook_a = MakeShardFaultSchedule(spec);
  auto hook_b = MakeShardFaultSchedule(spec);
  for (size_t shard = 0; shard < 8; ++shard) {
    for (size_t attempt = 0; attempt < 4; ++attempt) {
      bool threw_a = false, threw_b = false;
      try {
        hook_a(shard, attempt);
      } catch (const FaultError&) {
        threw_a = true;
      }
      try {
        hook_b(shard, attempt);
      } catch (const FaultError&) {
        threw_b = true;
      }
      EXPECT_EQ(threw_a, threw_b)
          << "shard " << shard << " attempt " << attempt;
    }
  }
}

}  // namespace
}  // namespace hgm
