/// \file quest_batch.cc
/// \brief quest_batch: the counting-heavy, long-theory workload.
///
/// A 100k-row Quest database (100 items, T=10) mined at minsup 2 500 by
/// MineFrequentSets with default options, then by MinePartitioned with
/// K=4, both on one fixed 2-thread pool.  The word kernel, level counting,
/// apriori-gen, the maximal sweep and the pool all carry load here, and
/// it is the only workload where partition's parallel phases matter.

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/apriori_gen.h"
#include "common/random.h"
#include "harness.h"
#include "mining/apriori.h"
#include "mining/generators.h"
#include "mining/partition.h"
#include "mining/sharded_db.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

constexpr size_t kRows = 100000;
constexpr size_t kItems = 100;
constexpr size_t kMinSupport = 2500;
constexpr size_t kShards = 4;
constexpr uint64_t kBaseSeed = 0x9e570001;

struct Instance {
  hgm::TransactionDatabase db;
  hgm::ShardedTransactionDatabase sharded;
};

/// Set-up: data generation, a row shuffle within each shard's rows, and
/// both index builds.
Instance Setup(uint64_t seed) {
  hgm::QuestParams params;
  params.num_transactions = kRows;
  params.avg_transaction_size = 10.0;
  params.num_items = kItems;
  hgm::Rng rng(kBaseSeed);
  Instance inst;
  inst.db =
      ShuffleRows(hgm::GenerateQuest(params, &rng), seed, kRows / kShards);
  inst.db.EnsureVerticalIndex();
  inst.sharded = hgm::ShardedTransactionDatabase::Split(inst.db, kShards);
  inst.sharded.EnsureVerticalIndexes();
  return inst;
}

std::string Fingerprint(const hgm::AprioriResult& r) {
  return hgm::serve::TheoryFingerprint(r.frequent, r.maximal,
                                       r.negative_border);
}

struct Round {
  hgm::AprioriResult apriori;
  hgm::PartitionResult partition;
};

/// One measured round: Apriori, then partition, whose answer must be
/// bit-identical to Apriori's.
Round MineRound(Instance* inst, hgm::ThreadPool* pool,
                const std::string& suffix, SpanLog* spans, int parent,
                RunResult* out) {
  hgm::AprioriOptions aopts;
  aopts.pool = pool;
  hgm::PartitionOptions popts;
  popts.pool = pool;
  Round r;
  Clock::time_point start = Clock::now();
  {
    ScopedSpan span(spans, "quest.apriori", parent);
    r.apriori = hgm::MineFrequentSets(&inst->db, kMinSupport, aopts);
  }
  const double apriori_ms = MsSince(start);
  start = Clock::now();
  {
    ScopedSpan span(spans, "quest.partition", parent);
    r.partition = hgm::MinePartitioned(&inst->sharded, kMinSupport, popts);
  }
  const double partition_ms = MsSince(start);
  out->Record("apriori" + suffix, apriori_ms);
  out->Record("partition" + suffix, partition_ms);
  out->work_units += 2.0 * kRows;
  out->work_seconds += (apriori_ms + partition_ms) / 1000.0;

  const hgm::AprioriResult& a = r.apriori;
  const hgm::PartitionResult& p = r.partition;
  out->Check(a.stop_reason == hgm::StopReason::kCompleted && p.status.ok() &&
                 p.stop_reason == hgm::StopReason::kCompleted,
             "quest_batch: a mining run did not complete");
  out->Check(hgm::serve::TheoryFingerprint(p.frequent, p.maximal,
                                           p.negative_border) ==
                 Fingerprint(a),
             "quest_batch: partition fingerprint differs from Apriori's");
  out->Check(a.support_counts.load() ==
                 a.frequent.size() + a.negative_border.size(),
             "quest_batch: Apriori support counts != |Th| + |Bd-| "
             "(Theorem 10, the empty set included)");
  return r;
}

}  // namespace

void RunQuestBatch(const RunArgs& args, SpanLog* spans, RunResult* out) {
  Instance inst;
  TimeSetup([&](int) { inst = Setup(args.seed); }, out);
  hgm::ThreadPool pool(BenchThreads(2));
  // A traced run spends a third of its time untraced (the reference for
  // the overhead ratio), a third traced, and the rest on layer replays.
  const double budget_ms = args.seconds * 1000.0 / (spans ? 3.0 : 1.0);
  const size_t min_rounds = spans ? 2 : 3;

  Round last;
  Clock::time_point start = Clock::now();
  do {
    last = MineRound(&inst, &pool, "", nullptr, -1, out);
  } while (MsSince(start) < budget_ms ||
           out->ops_ms["apriori"].size() < min_rounds);
  {
    const hgm::AprioriResult& a = last.apriori;
    out->detail["theory.th_size"] =
        static_cast<double>(a.frequent.size() - 1);  // ∅ excluded
    out->detail["theory.bd_minus_size"] =
        static_cast<double>(a.negative_border.size());
    out->detail["theory.levels"] =
        static_cast<double>(a.frequent_per_level.size() - 1);
    out->detail["apriori.support_counts"] =
        static_cast<double>(a.support_counts.load());
  }
  if (spans == nullptr) return;

  // ---- Traced run: telemetry on, spans around every layer call. ----
  hgm::obs::EnableMetrics(true);
  const int root = spans->Begin("quest_batch", -1);
  const uint64_t busy_before = PoolBusyUs();
  start = Clock::now();
  size_t traced_rounds = 0;
  do {
    last = MineRound(&inst, &pool, ".traced", spans, root, out);
    ++traced_rounds;
  } while (MsSince(start) < budget_ms || traced_rounds < 2);
  const double rounds_ms = MsSince(start);
  const double busy_ms =
      static_cast<double>(PoolBusyUs() - busy_before) / 1000.0;
  const hgm::AprioriResult& a = last.apriori;
  const hgm::PartitionResult& p = last.partition;

  // The maximal sweep, from outside: the same mine without it.
  hgm::AprioriOptions no_max_opts;
  no_max_opts.pool = &pool;
  no_max_opts.compute_maximal = false;
  Clock::time_point t = Clock::now();
  hgm::AprioriResult no_max;
  {
    ScopedSpan span(spans, "apriori.no_maximal", root);
    no_max = hgm::MineFrequentSets(&inst.db, kMinSupport, no_max_opts);
  }
  const double no_max_ms = MsSince(t);
  out->Check(hgm::serve::TheoryFingerprint(no_max.frequent, a.maximal,
                                           no_max.negative_border) ==
                 Fingerprint(a),
             "quest_batch: compute_maximal=false changed Th or Bd-");

  // apriori-gen over each level's frequent family.
  std::vector<std::vector<hgm::ItemVec>> levels;
  std::vector<std::unordered_set<hgm::Bitset, hgm::BitsetHash>> level_sets;
  for (const hgm::FrequentItemset& f : a.frequent) {
    const size_t k = f.items.Count();
    if (k == 0) continue;
    if (levels.size() < k) {
      levels.resize(k);
      level_sets.resize(k);
    }
    hgm::ItemVec items;
    f.items.ForEach([&](size_t i) { items.push_back(static_cast<uint32_t>(i)); });
    levels[k - 1].push_back(std::move(items));
    level_sets[k - 1].insert(f.items);
  }
  for (auto& level : levels) std::sort(level.begin(), level.end());
  size_t generated = 0;
  t = Clock::now();
  {
    ScopedSpan span(spans, "apriori.gen", root);
    for (size_t k = 0; k < levels.size(); ++k) {
      generated += hgm::AprioriGen(levels[k], level_sets[k], kItems).size();
    }
  }
  const double gen_ms = MsSince(t);
  size_t candidates_above_one = 0;
  for (size_t k = 2; k < a.candidates_per_level.size(); ++k) {
    candidates_above_one += a.candidates_per_level[k];
  }
  out->Check(generated == candidates_above_one,
             "quest_batch: apriori-gen replay generated " +
                 std::to_string(generated) + " candidates, Apriori counted " +
                 std::to_string(candidates_above_one));

  // Level counting: Th ∪ Bd- through the prefix-cached vertical kernel.
  CountingReplay counted;
  bool exact = false;
  {
    ScopedSpan span(spans, "counting.vertical", root);
    counted = ReplayTheory(&inst.db, a.frequent, a.negative_border,
                           kMinSupport, &pool, &exact);
  }
  out->Check(exact, "quest_batch: counting replay disagrees with Apriori");

  // Partition phase 1: local mines per shard at the scaled thresholds,
  // one shard per pool task, as MinePartitioned schedules them for K >= T.
  const std::vector<size_t> thresholds =
      inst.sharded.LocalThresholds(kMinSupport);
  std::vector<size_t> local_frequent(kShards, 0);
  t = Clock::now();
  {
    ScopedSpan span(spans, "partition.phase1", root);
    hgm::ThreadPool inline_pool(1);
    pool.ParallelFor(kShards, [&](size_t begin, size_t end, size_t) {
      for (size_t k = begin; k < end; ++k) {
        hgm::AprioriOptions o;
        o.compute_maximal = false;
        o.pool = &inline_pool;
        local_frequent[k] =
            hgm::MineFrequentSets(&inst.sharded.shard(k), thresholds[k], o)
                .frequent.size();
      }
    });
  }
  const double phase1_ms = MsSince(t);
  out->Check(local_frequent == p.local_frequent_per_shard,
             "quest_batch: phase-1 replay found different local theories");

  double kernel_ns = 0;
  {
    ScopedSpan span(spans, "common.kernel_probe", root);
    kernel_ns = KernelNsPerWord(&inst.db);
  }
  spans->End(root);

  const double apriori_traced = Median(spans->DurationsMs("quest.apriori"));
  const double partition_traced =
      Median(spans->DurationsMs("quest.partition"));
  const double apriori_ms = out->OpMedian("apriori");
  const double partition_ms = out->OpMedian("partition");
  const double sweep_ms = apriori_traced - no_max_ms;
  const double apriori_residual = no_max_ms - counted.ms - gen_ms;
  const double phase2_ms = partition_traced - phase1_ms;
  const double words = static_cast<double>((kRows + 63) / 64);
  const double kernel_est_ms =
      static_cast<double>(counted.sets) * words * kernel_ns / 1e6;
  const double decided =
      static_cast<double>(p.phase2_evaluations + p.phase2_reused);

  out->layers["common.kernel_ns_per_word"] = kernel_ns;
  out->layers["common.pool_busy_share"] =
      busy_ms / (rounds_ms * static_cast<double>(pool.num_threads()));
  out->layers["counting.vertical_ms"] = counted.ms;
  out->layers["counting.sets"] = static_cast<double>(counted.sets);
  out->layers["miner.evaluations"] =
      static_cast<double>(a.support_counts.load());
  out->layers["miner.reuse_share"] =
      decided > 0 ? static_cast<double>(p.phase2_reused) / decided : 0.0;
  out->layers["ladder.residual_share"] = apriori_residual / apriori_traced;
  out->layers["obs.trace_overhead_share"] =
      (apriori_traced + partition_traced) / (apriori_ms + partition_ms);

  out->detail["apriori.gen_ms"] = gen_ms;
  out->detail["apriori.no_maximal_ms"] = no_max_ms;
  out->detail["apriori.maximal_sweep_ms"] = sweep_ms;
  out->detail["partition.phase1_ms"] = phase1_ms;
  out->detail["partition.phase2_ms"] = phase2_ms;
  out->detail["partition.phase2_evaluations"] =
      static_cast<double>(p.phase2_evaluations);
  out->detail["partition.phase2_reused"] =
      static_cast<double>(p.phase2_reused);

  out->ladder = {
      {"apriori_ms|kernel.est_ms (within counting)", kernel_est_ms},
      {"apriori_ms|counting.vertical_ms", counted.ms},
      {"apriori_ms|apriori.gen_ms", gen_ms},
      {"apriori_ms|apriori.maximal_sweep_ms", sweep_ms},
      {"apriori_ms|apriori.residual_ms (residual)", apriori_residual},
      {"apriori_ms|traced", apriori_traced},
      {"apriori_ms|untraced", apriori_ms},
      {"partition_ms|partition.phase1_ms", phase1_ms},
      {"partition_ms|partition.phase2_ms (residual)", phase2_ms},
      {"partition_ms|traced", partition_traced},
      {"partition_ms|untraced", partition_ms},
  };
}

}  // namespace perfbench
