// Fault-tolerance overhead measurements (EXPERIMENTS.md A9).
//
// Two questions the robustness layer must answer with numbers, not
// vibes:
//
//  1. What does interrupt + checkpoint + resume cost against one
//     uninterrupted run?  Protocol: mine a Quest workload with Apriori,
//     then re-mine with a query budget that trips mid-run, serialize
//     the checkpoint, resume, and compare total wall clock and output
//     (which must be bit-identical — asserted, non-zero exit on any
//     mismatch).  Sweeps trip points at 25/50/75% of the clean run's
//     support counts.
//
//  2. What do injected faults cost to heal?  Protocol: sweep fault
//     rates {0, 1%, 10%} over (a) per-query transient faults healed by
//     a RetryingOracle under Dualize-and-Advance, which issues single
//     Is-interesting queries, and (b) shard-level transient faults
//     healed by the partition miner's failover across K = 8 shards.
//     Every healed run must match the fault-free answer bit for bit.
//
// Emits BENCH_robustness.json (hgm.run_report envelope, tables under
// "payload") so future revisions have a trajectory.

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_harness.h"

#include "common/random.h"
#include "common/run_budget.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "core/dualize_advance.h"
#include "mining/apriori.h"
#include "mining/frequency_oracle.h"
#include "mining/generators.h"
#include "mining/partition.h"
#include "mining/sharded_db.h"
#include "testing/fault_injection.h"

namespace {

using namespace hgm;

struct ResumeRecord {
  double trip_fraction = 0.0;
  uint64_t budget = 0;
  double partial_ms = 0.0, resume_ms = 0.0;
  size_t checkpoint_bytes = 0;
  bool identical = false;
};

struct ChaosRecord {
  std::string engine;
  double rate = 0.0;
  uint64_t retries = 0;
  double ms = 0.0;
  bool identical = false;
};

bool SameApriori(const AprioriResult& a, const AprioriResult& b) {
  if (a.frequent.size() != b.frequent.size()) return false;
  for (size_t i = 0; i < a.frequent.size(); ++i) {
    if (a.frequent[i].items != b.frequent[i].items ||
        a.frequent[i].support != b.frequent[i].support) {
      return false;
    }
  }
  return a.maximal == b.maximal && a.negative_border == b.negative_border &&
         a.support_counts.load() == b.support_counts.load();
}

/// Renders the resume/chaos tables as raw-JSON payload members for the
/// harness envelope.
std::string ResumeRunsJson(const std::vector<ResumeRecord>& resumes) {
  std::ostringstream out;
  out << "[\n";
  for (size_t i = 0; i < resumes.size(); ++i) {
    const ResumeRecord& r = resumes[i];
    out << "      {\"trip_fraction\": " << r.trip_fraction
        << ", \"budget\": " << r.budget << ", \"partial_ms\": "
        << r.partial_ms << ", \"resume_ms\": " << r.resume_ms
        << ", \"checkpoint_bytes\": " << r.checkpoint_bytes
        << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
        << (i + 1 < resumes.size() ? "," : "") << "\n";
  }
  out << "    ]";
  return out.str();
}

std::string ChaosRunsJson(const std::vector<ChaosRecord>& chaos) {
  std::ostringstream out;
  out << "[\n";
  for (size_t i = 0; i < chaos.size(); ++i) {
    const ChaosRecord& c = chaos[i];
    out << "      {\"engine\": \"" << c.engine << "\", \"rate\": " << c.rate
        << ", \"retries\": " << c.retries << ", \"ms\": " << c.ms
        << ", \"identical\": " << (c.identical ? "true" : "false") << "}"
        << (i + 1 < chaos.size() ? "," : "") << "\n";
  }
  out << "    ]";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  hgm::bench::BenchHarness harness("bench_robustness", argc, argv);
  int failures = 0;
  StopWatch watch;

  QuestParams params;
  params.num_transactions = 20000;
  params.num_items = 60;
  params.avg_transaction_size = 8;
  Rng rng(1995);
  TransactionDatabase db = GenerateQuest(params, &rng);
  const size_t minsup = 500;

  ThreadPool sequential(1);
  AprioriOptions clean_opts;
  clean_opts.pool = &sequential;
  watch.Lap();
  AprioriResult clean = MineFrequentSets(&db, minsup, clean_opts);
  const double clean_ms = watch.LapMillis();
  const uint64_t total = clean.support_counts.load();
  std::cout << "=== interrupt/checkpoint/resume overhead, |D| = "
            << params.num_transactions << " ===\n"
            << "clean Apriori: " << clean.frequent.size() << " frequent, "
            << total << " support counts, " << clean_ms << " ms\n\n";

  std::vector<ResumeRecord> resumes;
  TablePrinter resume_table({"trip at", "budget", "partial ms", "resume ms",
                             "total vs clean", "cp bytes", "identical"});
  for (double fraction : {0.25, 0.5, 0.75}) {
    ResumeRecord rec;
    rec.trip_fraction = fraction;
    rec.budget = static_cast<uint64_t>(static_cast<double>(total) * fraction);
    AprioriOptions opts;
    opts.pool = &sequential;
    opts.budget.max_queries = rec.budget;
    watch.Lap();
    AprioriResult part = MineFrequentSets(&db, minsup, opts);
    rec.partial_ms = watch.LapMillis();
    if (part.stop_reason == StopReason::kCompleted ||
        !part.checkpoint.has_value()) {
      std::cerr << "budget " << rec.budget << " did not trip\n";
      ++failures;
      continue;
    }
    // Serialize through the text format — the CLI's actual resume path.
    std::string text = SerializeCheckpoint(*part.checkpoint);
    rec.checkpoint_bytes = text.size();
    auto reparsed = ParseCheckpoint(text);
    if (!reparsed.ok()) {
      std::cerr << "checkpoint reparse failed: "
                << reparsed.status().message() << "\n";
      ++failures;
      continue;
    }
    watch.Lap();
    // Resume without the budget: options.budget applies afresh, so
    // passing the tripped budget again would trip again immediately.
    auto resumed = ResumeFrequentSets(&db, *reparsed, clean_opts);
    rec.resume_ms = watch.LapMillis();
    rec.identical = resumed.ok() && SameApriori(clean, *resumed);
    if (!rec.identical) ++failures;
    resume_table.NewRow()
        .Add(static_cast<int>(fraction * 100))
        .Add(rec.budget)
        .Add(rec.partial_ms, 2)
        .Add(rec.resume_ms, 2)
        .Add((rec.partial_ms + rec.resume_ms) / clean_ms, 2)
        .Add(rec.checkpoint_bytes)
        .Add(rec.identical ? "yes" : "NO");
    resumes.push_back(rec);
  }
  resume_table.Print(std::cout);

  std::cout << "\n=== healing cost at fault rates {0, 1%, 10%} ===\n";
  std::vector<ChaosRecord> chaos;
  TablePrinter chaos_table({"engine", "rate", "retries", "ms", "identical"});

  // (a) Per-query transient faults under Dualize-and-Advance.  D&A's
  // wall clock is dominated by dualization, not counting, so it gets a
  // smaller workload sized like the E6/E7 benches.
  QuestParams da_params;
  da_params.num_transactions = 1000;
  da_params.num_items = 20;
  da_params.avg_transaction_size = 5;
  Rng da_rng(7);
  TransactionDatabase da_db = GenerateQuest(da_params, &da_rng);
  const size_t da_minsup = 60;
  FrequencyOracle da_clean_oracle(&da_db, da_minsup, &sequential);
  DualizeAdvanceResult da_clean = RunDualizeAdvance(&da_clean_oracle);
  for (double rate : {0.0, 0.01, 0.10}) {
    ChaosRecord rec;
    rec.engine = "dualize_advance";
    rec.rate = rate;
    FrequencyOracle inner(&da_db, da_minsup, &sequential);
    FaultSpec spec;
    spec.transient_rate = rate;
    spec.seed = 42;
    FaultInjectingOracle faulty(&inner, spec);
    RetryPolicy patient;
    patient.max_attempts = 64;
    RetryingOracle healing(&faulty, patient);
    healing.set_sleeper([](uint64_t) {});
    watch.Lap();
    DualizeAdvanceResult da = RunDualizeAdvance(&healing);
    rec.ms = watch.LapMillis();
    rec.retries = healing.retries();
    rec.identical = da.positive_border == da_clean.positive_border &&
                    da.negative_border == da_clean.negative_border;
    if (!rec.identical) ++failures;
    chaos_table.NewRow()
        .Add(rec.engine)
        .Add(rec.rate, 2)
        .Add(rec.retries)
        .Add(rec.ms, 2)
        .Add(rec.identical ? "yes" : "NO");
    chaos.push_back(rec);
  }

  // (b) Shard-level transient faults under the partition failover.
  const size_t kShardCount = 8;
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, kShardCount);
  PartitionResult part_clean = MinePartitioned(&sharded, minsup);
  for (double rate : {0.0, 0.01, 0.10}) {
    ChaosRecord rec;
    rec.engine = "partition_k8";
    rec.rate = rate;
    PartitionOptions opts;
    FaultSpec spec;
    spec.transient_rate = rate;
    spec.seed = 42;
    opts.shard_fault_hook = MakeShardFaultSchedule(spec);
    opts.retry.max_attempts = 24;
    opts.sleeper = [](uint64_t) {};
    watch.Lap();
    PartitionResult part = MinePartitioned(&sharded, minsup, opts);
    rec.ms = watch.LapMillis();
    rec.retries = part.shard_retries;
    rec.identical = part.status.ok() &&
                    part.maximal == part_clean.maximal &&
                    part.negative_border == part_clean.negative_border &&
                    part.frequent.size() == part_clean.frequent.size();
    if (!rec.identical) ++failures;
    chaos_table.NewRow()
        .Add(rec.engine)
        .Add(rec.rate, 2)
        .Add(rec.retries)
        .Add(rec.ms, 2)
        .Add(rec.identical ? "yes" : "NO");
    chaos.push_back(rec);
  }
  chaos_table.Print(std::cout);

  {
    std::ostringstream ms;
    ms << clean_ms;
    harness.AddPayload("clean_apriori_ms", ms.str());
  }
  harness.AddPayload("resume_runs", ResumeRunsJson(resumes));
  harness.AddPayload("chaos_runs", ChaosRunsJson(chaos));
  if (failures != 0) {
    std::cerr << failures << " run(s) diverged from the clean answer\n";
  }
  return harness.Finish(failures);
}
