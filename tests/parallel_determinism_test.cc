// Determinism and accounting tests for the batched / parallel oracle
// evaluation layer: every miner must produce bit-for-bit identical
// theories, borders, and per-level tallies at 1, 2, and 8 threads, and
// the paper's query measure (Theorem 10: exactly |Th| + |Bd-|
// evaluations of q) must stay exact under parallel evaluation.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/dualize_advance.h"
#include "core/levelwise.h"
#include "core/oracle.h"
#include "core/theory.h"
#include "fd/fd_miner.h"
#include "fd/key_miner.h"
#include "fd/relation.h"
#include "hypergraph/generators.h"
#include "hypergraph/transversal_berge.h"
#include "hypergraph/transversal_levelwise.h"
#include "mining/apriori.h"
#include "mining/frequency_oracle.h"
#include "mining/generators.h"
#include "mining/partition.h"
#include "mining/sharded_db.h"
#include "mining/stream.h"
#include "testing/fault_injection.h"

namespace hgm {
namespace {

const size_t kThreadCounts[] = {1, 2, 8};

bool SameItemsets(const std::vector<FrequentItemset>& a,
                  const std::vector<FrequentItemset>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].items != b[i].items || a[i].support != b[i].support) {
      return false;
    }
  }
  return true;
}

void ExpectSameAprioriResult(const AprioriResult& base,
                             const AprioriResult& other, size_t threads) {
  EXPECT_TRUE(SameItemsets(base.frequent, other.frequent))
      << "frequent sets differ at " << threads << " threads";
  EXPECT_EQ(base.maximal, other.maximal)
      << "maximal sets differ at " << threads << " threads";
  EXPECT_EQ(base.negative_border, other.negative_border)
      << "negative border differs at " << threads << " threads";
  EXPECT_EQ(base.support_counts.load(), other.support_counts.load())
      << "query count differs at " << threads << " threads";
  EXPECT_EQ(base.candidates_per_level, other.candidates_per_level);
  EXPECT_EQ(base.frequent_per_level, other.frequent_per_level);
}

TEST(ParallelDeterminismTest, AprioriIdenticalAcrossThreadCounts) {
  for (uint64_t seed : {7u, 21u}) {
    Rng rng(seed);
    QuestParams params;
    params.num_transactions = 1200;
    params.num_items = 50;
    params.avg_transaction_size = 7;
    TransactionDatabase db = GenerateQuest(params, &rng);
    const size_t minsup = 25;

    ThreadPool sequential(1);
    AprioriOptions base_opts;
    base_opts.pool = &sequential;
    AprioriResult base = MineFrequentSets(&db, minsup, base_opts);
    // Theorem 10: every candidate is evaluated exactly once.
    EXPECT_EQ(base.support_counts.load(),
              base.frequent.size() + base.negative_border.size());

    for (size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      AprioriOptions opts;
      opts.pool = &pool;
      AprioriResult r = MineFrequentSets(&db, minsup, opts);
      ExpectSameAprioriResult(base, r, threads);
    }
  }
}

TEST(ParallelDeterminismTest, LevelwiseTheoremTenExactUnderParallelism) {
  for (uint64_t seed : {3u, 11u, 19u}) {
    Rng rng(seed);
    auto patterns = RandomPatterns(28, 6, 5, &rng);
    TransactionDatabase db = PlantedDatabase(28, patterns, 8, 30, 2, &rng);

    LevelwiseResult base;
    for (size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      FrequencyOracle oracle(&db, 8, &pool);
      CountingOracle counter(&oracle);
      LevelwiseResult r = RunLevelwise(&counter);
      // Theorem 10: the levelwise algorithm evaluates q exactly
      // |Th| + |Bd-(Th)| times — and the atomic tally must agree with
      // the algorithm's own count at every thread count.
      EXPECT_EQ(counter.raw_queries(), r.queries);
      EXPECT_EQ(r.queries, r.theory.size() + r.negative_border.size());
      EXPECT_EQ(counter.distinct_queries(), counter.raw_queries())
          << "levelwise never repeats a query";
      if (threads == kThreadCounts[0]) {
        base = std::move(r);
        continue;
      }
      EXPECT_EQ(base.theory, r.theory);
      EXPECT_EQ(base.positive_border, r.positive_border);
      EXPECT_EQ(base.negative_border, r.negative_border);
      EXPECT_EQ(base.queries, r.queries);
      EXPECT_EQ(base.candidates_per_level, r.candidates_per_level);
      EXPECT_EQ(base.interesting_per_level, r.interesting_per_level);
    }
  }
}

TEST(ParallelDeterminismTest, TransversalsIdenticalAcrossThreadCounts) {
  Rng rng(17);
  for (int i = 0; i < 6; ++i) {
    // Large-edge hypergraphs: the regime where Corollary 15 applies.
    Hypergraph h = RandomCoSmall(12, 6, 4, &rng);
    Hypergraph base(12);
    uint64_t base_queries = 0;
    for (size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      LevelwiseTransversals algo(Bitset::npos, &pool);
      Hypergraph tr = algo.Compute(h);
      if (threads == kThreadCounts[0]) {
        base = tr;
        base_queries = algo.queries();
        // Sanity: agrees with Berge on the sequential run.
        BergeTransversals berge;
        EXPECT_TRUE(berge.Compute(h).SameEdgeSet(tr));
        continue;
      }
      EXPECT_TRUE(base.SameEdgeSet(tr))
          << "Tr(H) differs at " << threads << " threads";
      EXPECT_EQ(base_queries, algo.queries())
          << "query count differs at " << threads << " threads";
    }
  }
}

TEST(ParallelDeterminismTest, KeyAndFdMinersIdenticalAcrossThreadCounts) {
  Rng rng(23);
  RelationInstance r = RandomRelationWithId(60, 9, 3, &rng);

  std::vector<Bitset> base_keys, base_lhs;
  uint64_t base_key_queries = 0, base_fd_queries = 0;
  for (size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    NonKeyOracle key_oracle(&r, &pool);
    CountingOracle key_counter(&key_oracle);
    LevelwiseOptions opts;
    opts.record_theory = false;
    LevelwiseResult keys = RunLevelwise(&key_counter, opts);

    FdViolationOracle fd_oracle(&r, 2, &pool);
    CountingOracle fd_counter(&fd_oracle);
    LevelwiseResult fds = RunLevelwise(&fd_counter, opts);

    if (threads == kThreadCounts[0]) {
      base_keys = keys.negative_border;
      base_key_queries = key_counter.raw_queries();
      base_lhs = fds.negative_border;
      base_fd_queries = fd_counter.raw_queries();
      // Cross-check against the query-free agree-set route.
      KeyMiningResult agree = KeysViaAgreeSets(r);
      EXPECT_TRUE(SameFamily(agree.minimal_keys, keys.negative_border));
      continue;
    }
    EXPECT_EQ(base_keys, keys.negative_border);
    EXPECT_EQ(base_key_queries, key_counter.raw_queries());
    EXPECT_EQ(base_lhs, fds.negative_border);
    EXPECT_EQ(base_fd_queries, fd_counter.raw_queries());
  }
}

TEST(ParallelDeterminismTest, CachedOracleAccountingStaysExact) {
  Rng rng(29);
  auto patterns = RandomPatterns(16, 4, 5, &rng);
  TransactionDatabase db = PlantedDatabase(16, patterns, 5, 10, 2, &rng);
  ThreadPool pool(8);
  FrequencyOracle oracle(&db, 5, &pool);
  CachedOracle cached(&oracle);

  Bitset probe = patterns[0];
  bool first = cached.IsInteresting(probe);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(cached.IsInteresting(probe), first);
  }
  // Every ask is charged (the paper's measure), but the data was touched
  // only once.
  EXPECT_EQ(cached.raw_queries(), 10u);
  EXPECT_EQ(cached.inner_evaluations(), 1u);
  EXPECT_EQ(cached.cache_size(), 1u);

  // Batch path: hits answered from cache, misses forwarded as one batch.
  std::vector<Bitset> batch = {probe, Bitset(16), probe.WithoutBit(
                                                      probe.FindFirst())};
  std::vector<uint8_t> out = cached.EvaluateBatch(batch);
  EXPECT_EQ(out[0], first ? 1 : 0);
  EXPECT_EQ(out[1], 1);  // ∅ is frequent in a nonempty db with minsup 5
  EXPECT_EQ(cached.raw_queries(), 13u);
  EXPECT_EQ(cached.inner_evaluations(), 3u);  // 1 + the two new sentences
}

// Tentpole acceptance: the two-phase partition miner is bit-identical to
// the single-database Apriori baseline — same frequent sets with the same
// exact supports, same maximal sets, same Bd-(Th) — for every shard count
// and at every thread count, and its phase-2 full-pass budget never
// exceeds the Theorem 10 allowance |Th| + |Bd-(Th)|.
TEST(ParallelDeterminismTest, PartitionMinerMatchesAprioriAtAnyShardCount) {
  for (uint64_t seed : {7u, 21u}) {
    Rng rng(seed);
    QuestParams params;
    params.num_transactions = 1200;
    params.num_items = 50;
    params.avg_transaction_size = 7;
    TransactionDatabase db = GenerateQuest(params, &rng);
    const size_t minsup = 25;

    ThreadPool sequential(1);
    AprioriOptions base_opts;
    base_opts.pool = &sequential;
    AprioriResult base = MineFrequentSets(&db, minsup, base_opts);
    const size_t theorem10 =
        base.frequent.size() + base.negative_border.size();

    for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
      // The reuse/pass split must be a pure function of (db, K, minsup):
      // captured at the first thread count, compared at the rest.
      size_t first_evaluations = 0, first_reused = 0;
      for (size_t threads : kThreadCounts) {
        ShardedTransactionDatabase sharded =
            ShardedTransactionDatabase::Split(db, shards);
        ThreadPool pool(threads);
        PartitionOptions opts;
        opts.pool = &pool;
        PartitionResult r = MinePartitioned(&sharded, minsup, opts);
        EXPECT_TRUE(SameItemsets(base.frequent, r.frequent))
            << "frequent sets differ at K=" << shards << ", " << threads
            << " threads";
        EXPECT_EQ(base.maximal, r.maximal)
            << "maximal sets differ at K=" << shards << ", " << threads
            << " threads";
        EXPECT_EQ(base.negative_border, r.negative_border)
            << "negative border differs at K=" << shards << ", " << threads
            << " threads";
        EXPECT_LE(r.phase2_evaluations, theorem10)
            << "phase-2 pass exceeded |Th| + |Bd-| at K=" << shards;
        if (threads == kThreadCounts[0]) {
          first_evaluations = r.phase2_evaluations;
          first_reused = r.phase2_reused;
        } else {
          EXPECT_EQ(r.phase2_evaluations, first_evaluations)
              << "phase-2 pass count differs at K=" << shards << ", "
              << threads << " threads";
          EXPECT_EQ(r.phase2_reused, first_reused)
              << "exact-count reuse differs at K=" << shards << ", "
              << threads << " threads";
        }
      }
      // The Theorem-7 transversal border is an independent construction
      // of the same family the level loop produced above.
      {
        ShardedTransactionDatabase sharded =
            ShardedTransactionDatabase::Split(db, shards);
        PartitionResult r = MinePartitioned(&sharded, minsup);
        BergeTransversals berge;
        std::vector<Bitset> via =
            NegativeBorderViaTransversals(r.maximal, db.num_items(), &berge);
        CanonicalSort(&via);
        EXPECT_EQ(via, r.negative_border)
            << "transversal border differs at K=" << shards;
      }
    }
  }
}

// Regression (PR 7 annotation pass): each shard's local theory streams
// into the shared phase-1 union the moment the shard finishes
// (StreamingUnion in partition.cc — merge under a mutex, read only after
// the ParallelFor join).  The merged sums and shard-presence masks must
// be independent of the order shards complete in, or the phase-2 reuse
// accounting would wobble with scheduling.  Stagger completion three
// ways — shard 0 last, shard 0 first, unperturbed — and demand
// bit-identical everything.
TEST(ParallelDeterminismTest, StreamedUnionIsCompletionOrderIndependent) {
  Rng rng(77);
  QuestParams params;
  params.num_transactions = 600;
  params.num_items = 40;
  params.avg_transaction_size = 6;
  TransactionDatabase db = GenerateQuest(params, &rng);
  const size_t minsup = 15;
  const size_t shards = 4;

  auto run = [&](std::function<void(size_t, size_t)> stagger) {
    ShardedTransactionDatabase sharded =
        ShardedTransactionDatabase::Split(db, shards);
    ThreadPool pool(4);
    PartitionOptions opts;
    opts.pool = &pool;
    opts.shard_fault_hook = std::move(stagger);
    return MinePartitioned(&sharded, minsup, opts);
  };

  PartitionResult plain = run({});
  ASSERT_TRUE(plain.status.ok());
  const auto sleep_ms = [](size_t ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };
  PartitionResult reversed =
      run([&](size_t k, size_t) { sleep_ms(3 * (shards - k)); });
  PartitionResult forward = run([&](size_t k, size_t) { sleep_ms(3 * k); });

  for (const PartitionResult* r : {&reversed, &forward}) {
    ASSERT_TRUE(r->status.ok());
    EXPECT_TRUE(SameItemsets(plain.frequent, r->frequent));
    EXPECT_EQ(plain.maximal, r->maximal);
    EXPECT_EQ(plain.negative_border, r->negative_border);
    EXPECT_EQ(plain.candidate_union_size, r->candidate_union_size);
    EXPECT_EQ(plain.phase2_evaluations, r->phase2_evaluations);
    EXPECT_EQ(plain.phase2_reused, r->phase2_reused);
    EXPECT_EQ(plain.phase2_levels, r->phase2_levels);
    EXPECT_EQ(plain.phase2_rejected, r->phase2_rejected);
    EXPECT_EQ(plain.local_frequent_per_shard, r->local_frequent_per_shard);
  }
}

TEST(ParallelDeterminismTest, ChaosMatrixIdenticalAcrossSeedsAndThreads) {
  // The chaos matrix: seeds x {levelwise, dualize-advance, partition} x
  // {1, 8} threads.  Healed runs under injected transient faults must
  // stay bit-identical to the clean single-threaded answer — the fault
  // schedule is a pure function of the seed and of ask indexes reserved
  // batch-at-a-time, never of scheduling.
  TransactionDatabase db = TransactionDatabase::FromRows(
      4, {{0, 1, 2}, {0, 1, 2}, {1, 3}, {1, 3}, {0, 3}});
  const size_t minsup = 2;

  FrequencyOracle clean_oracle(&db, minsup);
  LevelwiseResult clean_lw = RunLevelwise(&clean_oracle);
  FrequencyOracle clean_da_oracle(&db, minsup);
  DualizeAdvanceResult clean_da = RunDualizeAdvance(&clean_da_oracle);

  RetryPolicy patient;
  patient.max_attempts = 64;

  for (uint64_t seed : {1u, 2u, 3u}) {
    FaultSpec spec;
    spec.transient_rate = 0.25;
    spec.seed = seed;
    for (size_t threads : {size_t{1}, size_t{8}}) {
      ThreadPool pool(threads);

      FrequencyOracle lw_inner(&db, minsup, &pool);
      FaultInjectingOracle lw_faulty(&lw_inner, spec);
      RetryingOracle lw_healing(&lw_faulty, patient);
      lw_healing.set_sleeper([](uint64_t) {});
      LevelwiseResult lw = RunLevelwise(&lw_healing);
      EXPECT_EQ(lw.theory, clean_lw.theory)
          << "levelwise, seed " << seed << ", " << threads << " threads";
      EXPECT_EQ(lw.negative_border, clean_lw.negative_border);
      EXPECT_EQ(lw.queries, clean_lw.queries);

      FrequencyOracle da_inner(&db, minsup, &pool);
      FaultInjectingOracle da_faulty(&da_inner, spec);
      RetryingOracle da_healing(&da_faulty, patient);
      da_healing.set_sleeper([](uint64_t) {});
      DualizeAdvanceResult da = RunDualizeAdvance(&da_healing);
      EXPECT_EQ(da.positive_border, clean_da.positive_border)
          << "dualize-advance, seed " << seed << ", " << threads
          << " threads";
      EXPECT_EQ(da.negative_border, clean_da.negative_border);

      ShardedTransactionDatabase sharded =
          ShardedTransactionDatabase::Split(db, 4);
      PartitionOptions popts;
      popts.pool = &pool;
      popts.shard_fault_hook = MakeShardFaultSchedule(spec);
      popts.retry.max_attempts = 24;
      popts.sleeper = [](uint64_t) {};
      PartitionResult part = MinePartitioned(&sharded, minsup, popts);
      ASSERT_TRUE(part.status.ok())
          << "partition, seed " << seed << ": " << part.status.message();
      EXPECT_EQ(part.maximal, clean_lw.positive_border)
          << "partition, seed " << seed << ", " << threads << " threads";
      EXPECT_EQ(part.negative_border, clean_lw.negative_border);
    }
  }
}

// Streamed border repair is bit-identical at any thread count: the fresh
// counting batches fan out over the pool, but every boundary's repaired
// Th / Bd+ / Bd- — and the evaluation/reuse accounting split — must be a
// pure function of the rows seen so far.
TEST(ParallelDeterminismTest, StreamRepairIdenticalAcrossThreadCounts) {
  Rng rng(83);
  QuestParams params;
  params.num_transactions = 480;
  params.num_items = 30;
  params.avg_transaction_size = 6;
  TransactionDatabase feed = GenerateQuest(params, &rng);

  std::vector<StreamWindowResult> base;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    StreamOptions opts;
    opts.slide_rows = 40;
    opts.pool = &pool;
    StreamMiner miner(30, 12, 120, opts);
    std::vector<StreamWindowResult> results;
    for (size_t t = 0; t < feed.num_transactions(); ++t) {
      if (miner.Push(feed.row(t))) {
        results.push_back(miner.AdvanceWindow());
      }
    }
    if (threads == 1) {
      ASSERT_GT(results.size(), 2u);
      base = std::move(results);
      continue;
    }
    ASSERT_EQ(results.size(), base.size());
    for (size_t w = 0; w < results.size(); ++w) {
      EXPECT_TRUE(SameItemsets(base[w].frequent, results[w].frequent))
          << "streamed Th differs at boundary " << w << ", " << threads
          << " threads";
      EXPECT_EQ(base[w].maximal, results[w].maximal)
          << "streamed Bd+ differs at boundary " << w;
      EXPECT_EQ(base[w].negative_border, results[w].negative_border)
          << "streamed Bd- differs at boundary " << w;
      EXPECT_EQ(base[w].evaluations, results[w].evaluations)
          << "fresh-count tally differs at boundary " << w;
      EXPECT_EQ(base[w].reused, results[w].reused)
          << "reuse tally differs at boundary " << w;
      EXPECT_EQ(base[w].promoted, results[w].promoted);
      EXPECT_EQ(base[w].demoted, results[w].demoted);
    }
  }
}

TEST(ParallelDeterminismTest, SupportAtLeastAgreesWithExactSupport) {
  Rng rng(31);
  QuestParams params;
  params.num_transactions = 400;
  params.num_items = 30;
  TransactionDatabase db = GenerateQuest(params, &rng);
  db.EnsureVerticalIndex();
  for (int i = 0; i < 200; ++i) {
    size_t size = 1 + rng.UniformIndex(4);
    Bitset x = Bitset::FromIndices(
        30, rng.SampleWithoutReplacement(30, size));
    size_t support = db.Support(x);
    for (size_t threshold :
         {size_t{0}, size_t{1}, support, support + 1, size_t{400}}) {
      EXPECT_EQ(db.SupportAtLeastPrebuilt(x, threshold),
                support >= threshold)
          << x.ToString() << " support=" << support
          << " threshold=" << threshold;
    }
  }
}

}  // namespace
}  // namespace hgm
