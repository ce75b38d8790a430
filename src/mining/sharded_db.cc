#include "mining/sharded_db.h"

#include "common/check.h"
#include "obs/metrics.h"

namespace hgm {

ShardedTransactionDatabase ShardedTransactionDatabase::Split(
    const TransactionDatabase& db, size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  ShardedTransactionDatabase out;
  out.num_items_ = db.num_items();
  out.num_rows_ = db.num_transactions();
  out.shards_.reserve(num_shards);
  out.manifest_.reserve(num_shards);
  const size_t rows = db.num_transactions();
  for (size_t k = 0; k < num_shards; ++k) {
    const size_t begin = k * rows / num_shards;
    const size_t end = (k + 1) * rows / num_shards;
    TransactionDatabase shard(db.num_items());
    for (size_t t = begin; t < end; ++t) shard.AddTransaction(db.row(t));
    out.shards_.push_back(std::move(shard));
    out.manifest_.push_back(ShardManifestEntry{begin, end, 0, 0});
  }
  out.base_generations_.reserve(out.shards_.size());
  for (const TransactionDatabase& shard : out.shards_) {
    out.base_generations_.push_back(shard.generation());
  }
  return out;
}

void ShardedTransactionDatabase::CheckShardsFresh() const {
  for (size_t k = 0; k < shards_.size(); ++k) {
    HGMINE_CHECK(shards_[k].generation() == base_generations_[k])
        << "shard " << k << " mutated after Split (generation "
        << shards_[k].generation() << " vs " << base_generations_[k]
        << "): the row-range manifest and num_transactions() are stale; "
           "re-Split instead of appending to shards";
  }
}

void ShardedTransactionDatabase::EnsureVerticalIndexes() {
  CheckShardsFresh();
  for (TransactionDatabase& shard : shards_) shard.EnsureVerticalIndex();
}

size_t ShardedTransactionDatabase::Support(const Bitset& itemset) const {
  CheckShardsFresh();
  size_t total = 0;
  for (const TransactionDatabase& shard : shards_) {
    total += shard.Support(itemset);
  }
  return total;
}

bool ShardedTransactionDatabase::SupportAtLeast(const Bitset& itemset,
                                                size_t threshold) {
  EnsureVerticalIndexes();
  return SupportAtLeastPrebuilt(itemset, threshold);
}

bool ShardedTransactionDatabase::SupportAtLeastPrebuilt(
    const Bitset& itemset, size_t threshold) const {
  CheckShardsFresh();
  if (threshold == 0) return true;
  if (threshold > num_rows_) return false;
  size_t count = 0;
  for (const TransactionDatabase& shard : shards_) {
    count += shard.SupportVerticalPrebuilt(itemset, threshold - count);
    if (count >= threshold) return true;
  }
  return false;
}

bool ShardedTransactionDatabase::SupportAtLeastPrebuilt(
    const Bitset& itemset, size_t threshold, ThreadPool* pool) const {
  CheckShardsFresh();
  if (threshold == 0) return true;
  if (threshold > num_rows_) return false;
  ThreadPool* p = PoolOrGlobal(pool);
  if (shards_.size() < 2 || p->num_threads() < 2) {
    return SupportAtLeastPrebuilt(itemset, threshold);
  }
  const size_t num_shards = shards_.size();
  std::vector<size_t> caps(num_shards, 0);
  for (size_t k = 0; k < num_shards; ++k) {
    // ceil(threshold * rows_k / rows), clamped >= 1 so every shard can
    // report "capped"; the caps sum to >= threshold.
    const size_t scaled = (threshold * shards_[k].num_transactions() +
                           num_rows_ - 1) /
                          num_rows_;
    caps[k] = scaled == 0 ? 1 : scaled;
  }
  std::vector<size_t> counts(num_shards, 0);
  p->ParallelFor(num_shards, [&](size_t begin, size_t end, size_t /*chunk*/) {
    for (size_t k = begin; k < end; ++k) {
      counts[k] = shards_[k].SupportVerticalPrebuilt(itemset, caps[k]);
    }
  });
  // Capped counts are lower bounds of the exact per-shard supports.
  size_t lower = 0;
  bool any_capped = false;
  for (size_t k = 0; k < num_shards; ++k) {
    lower += counts[k];
    any_capped = any_capped || counts[k] >= caps[k];
  }
  if (lower >= threshold) return true;
  if (!any_capped) return false;  // every count exact, total < threshold
  // Inconclusive: only the capped shards can still hold more rows;
  // re-walk just those with the exact remaining threshold.
  size_t running = 0;
  for (size_t k = 0; k < num_shards; ++k) {
    if (counts[k] < caps[k]) running += counts[k];  // exact
  }
  for (size_t k = 0; k < num_shards; ++k) {
    if (counts[k] < caps[k]) continue;
    running +=
        shards_[k].SupportVerticalPrebuilt(itemset, threshold - running);
    if (running >= threshold) return true;
  }
  return false;
}

std::vector<size_t> ShardedTransactionDatabase::CountSupports(
    std::span<const Bitset> batch, ThreadPool* pool) {
  EnsureVerticalIndexes();
  std::vector<size_t> totals(batch.size(), 0);
  if (batch.empty()) return totals;
  ThreadPool* p = PoolOrGlobal(pool);
  const size_t num_shards = shards_.size();
  // Parallel across candidate × shard pairs: each pair writes one exact
  // per-shard count into its own slot, then per-candidate totals reduce
  // in shard order — independent of the thread count either way (the
  // partial sums are exact), and a batch smaller than the pool still
  // fans out across shards.
  std::vector<size_t> partial(batch.size() * num_shards, 0);
  p->ParallelFor(partial.size(),
                 [&](size_t begin, size_t end, size_t /*chunk*/) {
                   for (size_t t = begin; t < end; ++t) {
                     const size_t c = t / num_shards;
                     const size_t k = t % num_shards;
                     partial[t] = shards_[k].SupportVerticalPrebuilt(batch[c]);
                   }
                 });
  for (size_t c = 0; c < batch.size(); ++c) {
    size_t count = 0;
    for (size_t k = 0; k < num_shards; ++k) {
      count += partial[c * num_shards + k];
    }
    totals[c] = count;
  }
  HGM_OBS_COUNT("partition.full_pass_sets", batch.size());
  return totals;
}

std::vector<size_t> ShardedTransactionDatabase::LocalThresholds(
    size_t min_support) const {
  CheckShardsFresh();
  std::vector<size_t> thresholds;
  thresholds.reserve(shards_.size());
  for (const TransactionDatabase& shard : shards_) {
    // ceil(min_support * rows_k / rows) without floating point; the >= 1
    // clamp keeps empty shards (and min_support == 0) from mining the
    // whole lattice, and only strengthens the partition lemma.
    size_t scaled = 1;
    if (num_rows_ != 0) {
      scaled = (min_support * shard.num_transactions() + num_rows_ - 1) /
               num_rows_;
    }
    thresholds.push_back(scaled == 0 ? 1 : scaled);
  }
  return thresholds;
}

bool ShardedFrequencyOracle::IsInteresting(const Bitset& x) {
  HGM_OBS_COUNT("sharded.support_queries", 1);
  // Single-candidate query: fan the capped counting out across shards
  // (a batch already parallelizes across candidates instead).
  return db_->SupportAtLeastPrebuilt(x, min_support_, pool_);
}

std::vector<uint8_t> ShardedFrequencyOracle::EvaluateBatch(
    std::span<const Bitset> batch) {
  std::vector<uint8_t> out(batch.size(), 0);
  HGM_OBS_COUNT("sharded.support_queries", batch.size());
  pool_->ParallelFor(batch.size(),
                     [&](size_t begin, size_t end, size_t /*chunk*/) {
                       for (size_t c = begin; c < end; ++c) {
                         out[c] = db_->SupportAtLeastPrebuilt(batch[c],
                                                              min_support_)
                                      ? 1
                                      : 0;
                       }
                     });
  return out;
}

}  // namespace hgm
