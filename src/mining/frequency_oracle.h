#pragma once

/// \file frequency_oracle.h
/// \brief The frequent-set quality predicate as an Is-interesting oracle.
///
/// q(r, X) holds iff support(X) >= min_support.  Monotone downward:
/// subsets of frequent sets are frequent.  This is the instance that makes
/// Algorithm 9 the Apriori of [1, 2] and Algorithm 16 the maximal-set miner
/// of [11].
///
/// Batched evaluation: a candidate level is a set of mutually independent
/// support questions, so EvaluateBatch fans the candidates out over a
/// thread pool, each intersecting its items' tidset bitmaps and
/// early-exiting at min_support.  The answers are bit-for-bit those of
/// the sequential loop.
///
/// Counting-kernel seam: this oracle wants only a yes/no at a threshold,
/// so it rides the capped early-exit chain kernel
/// (SupportVerticalPrebuilt / ChainCountCapped).  Exact whole-level
/// counts come from Apriori's join-parent cover kernel; perfbench's level
/// replay uses TransactionDatabase::CountSupportsVertical with a
/// PrefixCoverCache instead, which memoizes each candidate's (k-1)-prefix
/// tidset so a size-k count is one cached-cover x item-tidset
/// intersection rather than a k-way chain.  Same exact numbers from
/// every kernel; the kernel only changes the constant, and it is the
/// seam a future FP-growth-style backend would slot into.

#include "common/thread_pool.h"
#include "core/oracle.h"
#include "mining/transaction_db.h"
#include "obs/metrics.h"

namespace hgm {

/// Is-interesting oracle: "is X sigma-frequent in r?"
class FrequencyOracle : public InterestingnessOracle {
 public:
  /// \param db        the 0/1 relation (not owned; must outlive the oracle)
  /// \param min_support  absolute row-count threshold (sigma * |r|)
  /// \param pool      worker pool for EvaluateBatch; nullptr = global pool
  FrequencyOracle(TransactionDatabase* db, size_t min_support,
                  ThreadPool* pool = nullptr)
      : db_(db), min_support_(min_support), pool_(PoolOrGlobal(pool)) {}

  bool IsInteresting(const Bitset& x) override {
    HGM_OBS_COUNT("freq.support_queries", 1);
    return db_->SupportAtLeast(x, min_support_);
  }

  std::vector<uint8_t> EvaluateBatch(
      std::span<const Bitset> batch) override {
    std::vector<uint8_t> out(batch.size(), 0);
    if (batch.empty()) return out;
    HGM_OBS_COUNT("freq.support_queries", batch.size());
    HGM_OBS_COUNT("freq.batches", 1);
    HGM_OBS_OBSERVE("freq.batch_size", batch.size());
    // Parallel across candidates: each evaluates its own word-streamed
    // tidset intersection against the prebuilt vertical index.
    db_->EnsureVerticalIndex();
    pool_->ParallelFor(batch.size(), [&](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) {
        out[i] = db_->SupportAtLeastPrebuilt(batch[i], min_support_) ? 1 : 0;
      }
    });
    return out;
  }

  size_t num_items() const override { return db_->num_items(); }

  size_t min_support() const { return min_support_; }

 private:
  TransactionDatabase* db_;
  size_t min_support_;
  ThreadPool* pool_;
};

}  // namespace hgm
