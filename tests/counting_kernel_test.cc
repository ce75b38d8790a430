// Differential tests for the support-counting kernels behind partition
// phase 2: the prefix-cached vertical batch counter must agree bit for
// bit with the row-scan reference and with the uncached capped tidset
// chain, on dense and sparse databases at several thread counts; and the
// apriori-gen negative-border derivation must equal the Theorem 7
// transversal construction.

#include <gtest/gtest.h>

#include <vector>

#include "common/bitset.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "core/theory.h"
#include "hypergraph/transversal_berge.h"
#include "mining/generators.h"
#include "mining/partition.h"
#include "mining/sharded_db.h"
#include "mining/transaction_db.h"

namespace hgm {
namespace {

TransactionDatabase RandomDatabase(uint64_t seed, size_t rows, size_t n,
                                   double density) {
  Rng rng(seed);
  TransactionDatabase db(n);
  for (size_t t = 0; t < rows; ++t) {
    Bitset row(n);
    for (size_t v = 0; v < n; ++v) {
      if (rng.Bernoulli(density)) row.Set(v);
    }
    db.AddTransaction(row);
  }
  return db;
}

std::vector<Bitset> RandomProbes(uint64_t seed, size_t n, size_t count,
                                 size_t max_size) {
  Rng rng(seed);
  std::vector<Bitset> probes;
  probes.push_back(Bitset(n));  // ∅ — the k = 0 corner
  for (size_t i = 0; i < count; ++i) {
    const size_t size = 1 + rng.UniformIndex(max_size);
    probes.push_back(
        Bitset::FromIndices(n, rng.SampleWithoutReplacement(n, size)));
  }
  return probes;
}

// The two exact-count kernels agree with the row-scan reference on dense
// and sparse data at every thread count: prefix-cached vertical and the
// uncached capped chain (cap = npos makes it exact).
TEST(CountingKernelTest, VerticalAndChainAgree) {
  struct Shape {
    uint64_t seed;
    double density;
  };
  for (const Shape& shape : {Shape{21, 0.45}, Shape{22, 0.06}}) {
    TransactionDatabase db = RandomDatabase(shape.seed, 300, 24,
                                            shape.density);
    db.EnsureVerticalIndex();
    std::vector<Bitset> probes = RandomProbes(shape.seed + 100, 24, 120, 5);
    std::vector<size_t> reference(probes.size(), 0);
    for (size_t i = 0; i < probes.size(); ++i) {
      reference[i] = db.Support(probes[i]);
      EXPECT_EQ(db.SupportVerticalPrebuilt(probes[i]), reference[i]);
    }
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      ThreadPool pool(threads);
      PrefixCoverCache cache(&db);
      std::vector<size_t> vertical =
          db.CountSupportsVertical(probes, &cache, &pool);
      ASSERT_EQ(vertical.size(), probes.size());
      for (size_t i = 0; i < probes.size(); ++i) {
        EXPECT_EQ(vertical[i], reference[i])
            << "prefix-cached, probe " << probes[i].ToString()
            << " threads " << threads;
      }
    }
  }
}

TEST(CountingKernelTest, PrefixCoverCacheBuildsExactCovers) {
  TransactionDatabase db = RandomDatabase(31, 200, 16, 0.3);
  db.EnsureVerticalIndex();
  PrefixCoverCache cache(&db);
  Rng rng(32);
  for (int iter = 0; iter < 50; ++iter) {
    const size_t size = 1 + rng.UniformIndex(5);
    Bitset x =
        Bitset::FromIndices(16, rng.SampleWithoutReplacement(16, size));
    EXPECT_EQ(cache.EnsureCover(x), db.Cover(x)) << x.ToString();
    EXPECT_EQ(cache.CountPrefixCached(x), db.Support(x)) << x.ToString();
  }
  // Every chain step was memoized, so the cache holds at least one entry
  // per probed prefix size.
  EXPECT_GT(cache.entries(), 0u);
}

// CountPrefixCached stays exact when the prefix was never built (falls
// back to the uncached chain) and after PruneBelow evicts it.
TEST(CountingKernelTest, PrefixCacheFallbackAndPruneStayExact) {
  TransactionDatabase db = RandomDatabase(41, 150, 12, 0.35);
  db.EnsureVerticalIndex();
  PrefixCoverCache cold(&db);
  Bitset x(12, {2, 5, 9});
  EXPECT_EQ(cold.CountPrefixCached(x), db.Support(x));  // nothing cached
  EXPECT_EQ(cold.entries(), 0u);

  PrefixCoverCache cache(&db);
  cache.EnsureCover(x.WithoutBit(9));
  const size_t warm = cache.entries();
  EXPECT_GE(warm, 1u);
  EXPECT_EQ(cache.CountPrefixCached(x), db.Support(x));
  cache.PruneBelow(5);  // evicts everything built so far
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.CountPrefixCached(x), db.Support(x));
  // Capped counting is a lower bound that is exact below the cap.
  const size_t support = db.Support(x);
  if (support > 1) {
    EXPECT_GE(cache.CountPrefixCached(x, support - 1), support - 1);
  }
  EXPECT_EQ(cache.CountPrefixCached(x, support + 1), support);
}

// Mirrors partition phase 2's cache lifecycle: as the level advances to
// k the miner calls PruneBelow(k - 2), so every level's counts run
// against a cache that just evicted the prefixes the previous level
// built.  Exactness must not depend on what survived the eviction.
TEST(CountingKernelTest, ProgressivePruneMirrorsLevelAdvance) {
  TransactionDatabase db = RandomDatabase(71, 200, 14, 0.4);
  db.EnsureVerticalIndex();
  PrefixCoverCache cache(&db);
  Rng rng(72);
  for (size_t k = 1; k <= 5; ++k) {
    cache.PruneBelow(k >= 2 ? k - 2 : 0);  // same schedule as partition.cc
    for (int probe = 0; probe < 40; ++probe) {
      Bitset x = Bitset::FromIndices(14, rng.SampleWithoutReplacement(14, k));
      EXPECT_EQ(cache.CountPrefixCached(x), db.Support(x))
          << "level " << k << " probe " << x.ToString();
    }
  }
}

// PruneBelow eviction interacting with checkpoint resume: the original
// run's phase-2 caches were warm (and progressively pruned); the resumed
// process starts with cold caches, so every count it replays goes through
// the cold-miss fallback.  The combined run must still be bit-identical
// to a never-interrupted one — through the serialized text format, the
// way the CLI's --checkpoint/--resume path round-trips it.
TEST(CountingKernelTest, ColdCacheResumeAfterPruneIsBitIdentical) {
  TransactionDatabase db = RandomDatabase(81, 160, 12, 0.5);
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 3);
  const size_t min_support = 40;
  PartitionResult clean = MinePartitioned(&sharded, min_support);
  ASSERT_EQ(clean.stop_reason, StopReason::kCompleted);
  ASSERT_TRUE(clean.status.ok());
  // The run must go deep enough that PruneBelow actually evicted entries
  // before the trip points below — otherwise this test decays into the
  // plain resume test.
  ASSERT_GE(clean.phase2_levels, 3u)
      << "database too sparse to exercise level-advance pruning";

  for (uint64_t q = 1; q <= clean.phase2_evaluations; ++q) {
    PartitionOptions opts;
    opts.budget.max_queries = q;
    PartitionResult part = MinePartitioned(&sharded, min_support, opts);
    if (part.stop_reason == StopReason::kCompleted) continue;
    ASSERT_TRUE(part.checkpoint.has_value()) << "cap " << q;

    auto reparsed = ParseCheckpoint(SerializeCheckpoint(*part.checkpoint));
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
    auto resumed = ResumePartition(&sharded, *reparsed);
    ASSERT_TRUE(resumed.ok()) << resumed.status().message();
    EXPECT_EQ(resumed->stop_reason, StopReason::kCompleted);
    ASSERT_EQ(resumed->frequent.size(), clean.frequent.size()) << "cap " << q;
    for (size_t i = 0; i < clean.frequent.size(); ++i) {
      EXPECT_EQ(resumed->frequent[i].items, clean.frequent[i].items);
      EXPECT_EQ(resumed->frequent[i].support, clean.frequent[i].support);
    }
    EXPECT_EQ(resumed->negative_border, clean.negative_border);
    EXPECT_EQ(resumed->maximal, clean.maximal);
    EXPECT_EQ(resumed->phase2_levels, clean.phase2_levels);
    EXPECT_EQ(resumed->phase2_evaluations, clean.phase2_evaluations);
    EXPECT_EQ(resumed->phase2_reused, clean.phase2_reused);
  }
}

// The combinatorial border derivation (apriori-gen's rejected candidates)
// produces exactly the Theorem 7 transversal border on random downward-
// closed theories, including the empty and trivial corners.
TEST(CountingKernelTest, BorderViaGenerationMatchesTransversals) {
  BergeTransversals berge;
  const size_t n = 10;
  EXPECT_EQ(NegativeBorderViaGeneration({}, n),
            NegativeBorderViaTransversals({}, n, &berge));
  Rng rng(61);
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<Bitset> seeds;
    const size_t count = 1 + rng.UniformIndex(5);
    for (size_t i = 0; i < count; ++i) {
      const size_t size = 1 + rng.UniformIndex(5);
      seeds.push_back(
          Bitset::FromIndices(n, rng.SampleWithoutReplacement(n, size)));
    }
    std::vector<Bitset> theory = DownwardClosure(seeds, n);
    std::vector<Bitset> generated = NegativeBorderViaGeneration(theory, n);
    EXPECT_EQ(generated, NegativeBorderViaTransversals(theory, n, &berge));
    EXPECT_EQ(generated, NegativeBorderBrute(theory, n));
  }
}

// Derived-state staleness is impossible by construction: mutating the
// database after a cache was built aborts at the next cache read instead
// of silently counting against covers that miss the new rows.
TEST(StalenessDeathTest, StalePrefixCoverCacheAborts) {
  TransactionDatabase db = RandomDatabase(91, 50, 10, 0.3);
  db.EnsureVerticalIndex();
  PrefixCoverCache cache(&db);
  Bitset x(10, {1, 3});
  cache.EnsureCover(x);
  db.AddTransactionIndices({1, 3});
  EXPECT_DEATH(cache.CountPrefixCached(x), "stale");
  EXPECT_DEATH(cache.EnsureCover(x), "stale");
}

// The always-on guard on the const tidset accessors: AddTransaction
// invalidates the vertical index, so a Prebuilt read before the rebuild
// aborts in release builds too (it used to be a debug-only check).
TEST(StalenessDeathTest, StalePrebuiltVerticalReadAborts) {
  TransactionDatabase db = RandomDatabase(92, 50, 10, 0.3);
  db.EnsureVerticalIndex();
  Bitset x(10, {0, 2});
  (void)db.SupportVerticalPrebuilt(x);
  db.AddTransactionIndices({0, 2});
  EXPECT_DEATH((void)db.SupportVerticalPrebuilt(x), "EnsureVerticalIndex");
  EXPECT_DEATH((void)db.SupportAtLeastPrebuilt(x, 1), "EnsureVerticalIndex");
  EXPECT_DEATH((void)db.ItemCoverPrebuilt(0), "EnsureVerticalIndex");
}

// Appending rows through the mutable shard accessor desyncs the shard
// from the Split-time manifest; every entry point partition uses
// catches it.
TEST(StalenessDeathTest, MutatedShardAborts) {
  TransactionDatabase db = RandomDatabase(93, 60, 10, 0.3);
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 3);
  sharded.EnsureVerticalIndexes();
  sharded.shard(1).AddTransactionIndices({0, 1});
  EXPECT_DEATH(sharded.EnsureVerticalIndexes(), "mutated after Split");
  EXPECT_DEATH((void)sharded.LocalThresholds(5), "mutated after Split");
  EXPECT_DEATH((void)MinePartitioned(&sharded, 5), "mutated after Split");
}

// Rebuilding is the supported path after a mutation: re-run
// EnsureVerticalIndex, construct a fresh cache (which pins the new
// generation), or re-Split — all of which see the appended rows.
TEST(CountingKernelTest, RebuildAfterMutationCountsNewRows) {
  TransactionDatabase db = RandomDatabase(94, 40, 8, 0.4);
  db.EnsureVerticalIndex();
  Bitset x(8, {2, 4});
  const size_t before = db.SupportVerticalPrebuilt(x);
  db.AddTransactionIndices({2, 4});
  db.EnsureVerticalIndex();
  EXPECT_EQ(db.SupportVerticalPrebuilt(x), before + 1);
  PrefixCoverCache fresh(&db);
  EXPECT_EQ(fresh.CountPrefixCached(x), before + 1);
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 2);
  EXPECT_EQ(sharded.shard(0).Support(x) + sharded.shard(1).Support(x),
            before + 1);
}

}  // namespace
}  // namespace hgm
