#include "mining/sharded_db.h"

#include "common/check.h"

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

}  // namespace hgm
