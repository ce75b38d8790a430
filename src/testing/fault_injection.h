#pragma once

/// \file fault_injection.h
/// \brief Deterministic, seed-driven fault injection for the chaos suite.
///
/// The robustness contract (ROADMAP "fault-tolerant anytime mining") is
/// behavioural: under injected failures every engine either completes,
/// retries to the bit-identical answer, or returns a certified partial
/// result — never UB, never a hang.  Proving that in tests needs failures
/// that are (a) placed *inside* the data path, not bolted on around it,
/// and (b) a pure function of a seed, so a failing chaos run replays
/// exactly from its seed printed in the log.
///
/// Every fault decision here hashes (seed, ask index) or (seed, shard,
/// attempt) through SplitMix64 — no global RNG state, no ordering
/// dependence.  A batch of m queries reserves a contiguous ask-index
/// range up front, so the schedule is identical at every thread count and
/// a retried batch draws *fresh* indexes (which is what lets transient
/// faults heal on retry while staying deterministic).

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "common/bitset.h"
#include "common/run_budget.h"
#include "core/oracle.h"

namespace hgm {

/// What to inject, and how often.  Rates are probabilities in [0, 1]
/// evaluated against independent hash streams of (seed, index).
struct FaultSpec {
  /// Probability an ask-index throws a transient FaultError (heals when
  /// the caller retries, because the retry draws fresh indexes).
  double transient_rate = 0;
  /// Probability an ask-index breaks the oracle permanently: that ask and
  /// every later one throw FaultError{transient=false}.
  double permanent_rate = 0;
  /// Probability an ask-index stalls for latency_us before answering.
  double latency_rate = 0;
  uint64_t latency_us = 0;
  /// Root of every hash stream; two runs with equal seeds see equal
  /// schedules.
  uint64_t seed = 0;
  /// Explicit ask indexes (0-based) that throw transiently regardless of
  /// transient_rate — "fail exactly on the Nth query" schedules.
  std::vector<uint64_t> fail_on;
};

/// Thrown by injected faults.  `transient` distinguishes errors a retry
/// is expected to heal from permanent breakage.
class FaultError : public std::runtime_error {
 public:
  FaultError(const std::string& what, bool transient)
      : std::runtime_error(what), transient_(transient) {}
  bool transient() const { return transient_; }

 private:
  bool transient_;
};

/// Uniform [0, 1) draw for hash stream \p stream at index \p index under
/// \p seed; the pure function behind every fault decision here.
double FaultUniform(uint64_t seed, uint64_t stream, uint64_t index);

/// InterestingnessOracle wrapper that throws / stalls according to a
/// FaultSpec before delegating to the wrapped oracle.  Answers are never
/// altered — only withheld — so any run that completes computed exactly
/// what the clean oracle would have.
///
/// Thread-compatible the way the engines use oracles: ask indexes come
/// from an atomic counter and each EvaluateBatch reserves its whole range
/// before deciding faults, so concurrent batches get disjoint schedules.
/// Deliberately mutex-free (hence no HGM_GUARDED_BY members): all shared
/// state is the three atomics below, spec_ is immutable after
/// construction, and set_sleeper is test setup before any concurrency.
class FaultInjectingOracle : public InterestingnessOracle {
 public:
  /// \param inner the clean oracle (not owned; must outlive this).
  FaultInjectingOracle(InterestingnessOracle* inner, const FaultSpec& spec)
      : inner_(inner), spec_(spec) {}

  bool IsInteresting(const Bitset& x) override;
  std::vector<uint8_t> EvaluateBatch(std::span<const Bitset> batch) override;
  size_t num_items() const override { return inner_->num_items(); }

  /// Latency sleeper (microseconds); tests inject a recorder.  Unset
  /// sleeps for real.
  void set_sleeper(std::function<void(uint64_t)> sleeper) {
    sleeper_ = std::move(sleeper);
  }

  /// Total ask indexes consumed so far.
  uint64_t asks() const { return asks_.load(std::memory_order_relaxed); }
  /// Faults thrown so far (transient + permanent trips).
  uint64_t faults() const { return faults_.load(std::memory_order_relaxed); }

 private:
  /// Inspects indexes [base, base + count): throws on a fault, sleeps on
  /// injected latency, returns otherwise.
  void MaybeFault(uint64_t base, uint64_t count);

  InterestingnessOracle* inner_;
  FaultSpec spec_;
  std::function<void(uint64_t)> sleeper_;
  std::atomic<uint64_t> asks_{0};
  std::atomic<uint64_t> faults_{0};
  std::atomic<bool> broken_{false};
};

/// Oracle wrapper that heals transient FaultErrors by retrying with a
/// seeded-backoff policy — the single-oracle analogue of the sharded
/// backend's failover.  Permanent FaultErrors and exhausted attempts
/// rethrow; CancelledError always passes straight through.  Because the
/// wrapped oracle's answers are immutable data reads, a healed retry is
/// bit-identical to a run with no faults.
class RetryingOracle : public InterestingnessOracle {
 public:
  RetryingOracle(InterestingnessOracle* inner, const RetryPolicy& retry)
      : inner_(inner), retry_(retry) {}

  bool IsInteresting(const Bitset& x) override;
  std::vector<uint8_t> EvaluateBatch(std::span<const Bitset> batch) override;
  size_t num_items() const override { return inner_->num_items(); }

  void set_sleeper(std::function<void(uint64_t)> sleeper) {
    sleeper_ = std::move(sleeper);
  }

  /// Retries performed (beyond first attempts).
  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }

 private:
  /// Sleeps the policy backoff for \p attempt (0-based) and counts the
  /// retry.
  void BackOff(size_t attempt, uint64_t salt);

  InterestingnessOracle* inner_;
  RetryPolicy retry_;
  std::function<void(uint64_t)> sleeper_;
  std::atomic<uint64_t> retries_{0};
};

/// A PartitionOptions::shard_fault_hook schedule for the sharded backend:
/// shard k throws FaultError on attempt a when the (seed, shard, attempt)
/// hash lands under transient_rate, and on *every* attempt when the
/// (seed, shard) hash lands under permanent_rate — a permanently failed
/// shard exhausts the caller's retry budget deterministically.
std::function<void(size_t, size_t)> MakeShardFaultSchedule(
    const FaultSpec& spec);

}  // namespace hgm
