#include "mining/transaction_db.h"

#include <bit>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/check.h"
#include "common/parse.h"

namespace hgm {

TransactionDatabase TransactionDatabase::FromRows(
    size_t num_items, const std::vector<std::vector<size_t>>& rows) {
  TransactionDatabase db(num_items);
  for (const auto& r : rows) {
    db.AddTransaction(Bitset::FromIndices(num_items, r));
  }
  return db;
}

void TransactionDatabase::AddTransaction(Bitset row) {
  HGMINE_DCHECK_EQ(row.size(), num_items_);
  rows_.push_back(std::move(row));
  vertical_valid_ = false;
  ++generation_;
}

void TransactionDatabase::AddTransactionIndices(
    std::initializer_list<size_t> items) {
  AddTransaction(Bitset::FromIndices(num_items_, items));
}

size_t TransactionDatabase::Support(const Bitset& itemset) const {
  size_t count = 0;
  for (const auto& r : rows_) {
    if (itemset.IsSubsetOf(r)) ++count;
  }
  return count;
}

double TransactionDatabase::Frequency(const Bitset& itemset) const {
  if (rows_.empty()) return 0.0;
  return static_cast<double>(Support(itemset)) /
         static_cast<double>(rows_.size());
}

Bitset TransactionDatabase::Cover(const Bitset& itemset) {
  BuildVerticalIndex();
  Bitset cover = Bitset::Full(rows_.size());
  itemset.ForEach([&](size_t item) { cover &= vertical_[item]; });
  return cover;
}

size_t TransactionDatabase::SupportVertical(const Bitset& itemset) {
  return Cover(itemset).Count();
}

bool TransactionDatabase::SupportAtLeast(const Bitset& itemset,
                                         size_t threshold) {
  BuildVerticalIndex();
  return SupportAtLeastPrebuilt(itemset, threshold);
}

namespace {

/// Capped popcount of the word-wise AND across an item-tidset chain:
/// 4-word blocks with the early-exit compare hoisted to the block
/// boundary, like Bitset::IntersectionCountCapped but over k chained
/// tidsets.  Returns the exact count when below \p cap, else the (>= cap)
/// running count at the block where it crossed.
size_t ChainCountCapped(const std::vector<Bitset>& vertical,
                        const std::vector<size_t>& items, size_t cap) {
  const std::vector<uint64_t>& first = vertical[items[0]].words();
  const size_t nw = first.size();
  size_t count = 0;
  size_t wi = 0;
  for (; wi + 4 <= nw; wi += 4) {
    uint64_t w0 = first[wi];
    uint64_t w1 = first[wi + 1];
    uint64_t w2 = first[wi + 2];
    uint64_t w3 = first[wi + 3];
    for (size_t j = 1; j < items.size(); ++j) {
      const std::vector<uint64_t>& tid = vertical[items[j]].words();
      w0 &= tid[wi];
      w1 &= tid[wi + 1];
      w2 &= tid[wi + 2];
      w3 &= tid[wi + 3];
      if ((w0 | w1 | w2 | w3) == 0) break;
    }
    count += static_cast<size_t>(std::popcount(w0)) +
             static_cast<size_t>(std::popcount(w1)) +
             static_cast<size_t>(std::popcount(w2)) +
             static_cast<size_t>(std::popcount(w3));
    if (count >= cap) return count;
  }
  for (; wi < nw; ++wi) {
    uint64_t w = first[wi];
    for (size_t j = 1; w != 0 && j < items.size(); ++j) {
      w &= vertical[items[j]].words()[wi];
    }
    count += static_cast<size_t>(std::popcount(w));
  }
  return count;
}

}  // namespace

bool TransactionDatabase::SupportAtLeastPrebuilt(const Bitset& itemset,
                                                 size_t threshold) const {
  // Always-on: a stale vertical index silently miscounts in release
  // builds, and the branch is noise next to the tidset AND chain.
  HGMINE_CHECK(vertical_valid_)
      << "vertical index stale or unbuilt; call EnsureVerticalIndex() "
         "after the last AddTransaction and before concurrent tidset reads";
  if (threshold == 0) return true;
  if (threshold > rows_.size()) return false;
  std::vector<size_t> items = itemset.Indices();
  if (items.empty()) return true;  // support(∅) = |r| >= threshold here
  if (items.size() == 1) return vertical_[items[0]].CountAtLeast(threshold);
  return ChainCountCapped(vertical_, items, threshold) >= threshold;
}

size_t TransactionDatabase::SupportVerticalPrebuilt(const Bitset& itemset,
                                                    size_t cap) const {
  HGMINE_CHECK(vertical_valid_)
      << "vertical index stale or unbuilt; call EnsureVerticalIndex() "
         "after the last AddTransaction and before concurrent tidset reads";
  if (cap == 0) return 0;
  std::vector<size_t> items = itemset.Indices();
  if (items.empty()) return rows_.size();
  return ChainCountCapped(vertical_, items, cap);
}

std::vector<size_t> TransactionDatabase::CountSupportsVertical(
    std::span<const Bitset> itemsets, PrefixCoverCache* cache,
    ThreadPool* pool) {
  BuildVerticalIndex();
  std::vector<size_t> totals(itemsets.size(), 0);
  if (itemsets.empty()) return totals;
  HGMINE_DCHECK(cache != nullptr);
  // Serial build pass: one AND per distinct not-yet-cached prefix.  The
  // parallel pass below then only reads the cache.
  for (const Bitset& x : itemsets) {
    if (x.Count() >= 2) cache->EnsureCover(x.WithoutBit(x.FindLast()));
  }
  ThreadPool* p = PoolOrGlobal(pool);
  p->ParallelFor(itemsets.size(),
                 [&](size_t begin, size_t end, size_t /*chunk*/) {
                   for (size_t c = begin; c < end; ++c) {
                     totals[c] = cache->CountPrefixCached(itemsets[c]);
                   }
                 });
  return totals;
}

void TransactionDatabase::EnsureVerticalIndex() { BuildVerticalIndex(); }

std::vector<size_t> TransactionDatabase::ItemSupports() const {
  std::vector<size_t> support(num_items_, 0);
  for (const auto& r : rows_) {
    r.ForEach([&](size_t item) { ++support[item]; });
  }
  return support;
}

const Bitset& TransactionDatabase::ItemCover(size_t item) {
  BuildVerticalIndex();
  return vertical_[item];
}

const Bitset& TransactionDatabase::ItemCoverPrebuilt(size_t item) const {
  HGMINE_CHECK(vertical_valid_)
      << "vertical index stale or unbuilt; call EnsureVerticalIndex() "
         "after the last AddTransaction and before concurrent tidset reads";
  return vertical_[item];
}

void PrefixCoverCache::CheckFresh() const {
  HGMINE_CHECK(db_->generation() == generation_)
      << "PrefixCoverCache is stale: database mutated (generation "
      << db_->generation() << " vs " << generation_
      << " at cache construction); rebuild the cache";
}

const Bitset& PrefixCoverCache::EnsureCover(const Bitset& itemset) {
  CheckFresh();
  auto it = covers_.find(itemset);
  if (it != covers_.end()) return it->second;
  Bitset cover;
  const size_t k = itemset.Count();
  if (k == 0) {
    cover = Bitset::Full(db_->num_transactions());
  } else {
    const size_t last = itemset.FindLast();
    if (k == 1) {
      cover = db_->ItemCoverPrebuilt(last);
    } else {
      // Copy-then-refine: the recursive EnsureCover may rehash the map,
      // so the parent cover is copied out before the AND.
      cover = EnsureCover(itemset.WithoutBit(last));
      cover &= db_->ItemCoverPrebuilt(last);
    }
  }
  return covers_.emplace(itemset, std::move(cover)).first->second;
}

size_t PrefixCoverCache::CountPrefixCached(const Bitset& itemset,
                                           size_t cap) const {
  CheckFresh();
  const size_t k = itemset.Count();
  if (k == 0) return db_->num_transactions();
  const size_t last = itemset.FindLast();
  if (k == 1) {
    return db_->ItemCoverPrebuilt(last).IntersectionCountCapped(
        db_->ItemCoverPrebuilt(last), cap);
  }
  auto it = covers_.find(itemset.WithoutBit(last));
  if (it == covers_.end()) {
    return db_->SupportVerticalPrebuilt(itemset, cap);
  }
  return it->second.IntersectionCountCapped(db_->ItemCoverPrebuilt(last),
                                            cap);
}

void PrefixCoverCache::PruneBelow(size_t min_size) {
  if (min_size == 0) return;
  for (auto it = covers_.begin(); it != covers_.end();) {
    it = it->first.Count() < min_size ? covers_.erase(it) : std::next(it);
  }
}

double TransactionDatabase::AvgTransactionSize() const {
  if (rows_.empty()) return 0.0;
  size_t total = 0;
  for (const auto& r : rows_) total += r.Count();
  return static_cast<double>(total) / static_cast<double>(rows_.size());
}

void TransactionDatabase::BuildVerticalIndex() {
  if (vertical_valid_) return;
  vertical_.assign(num_items_, Bitset(rows_.size()));
  for (size_t t = 0; t < rows_.size(); ++t) {
    rows_[t].ForEach([&](size_t item) { vertical_[item].Set(t); });
  }
  vertical_valid_ = true;
}

Result<TransactionDatabase> TransactionDatabase::ParseBasketText(
    std::string_view text, size_t num_items, const std::string& origin) {
  std::vector<std::vector<size_t>> rows;
  size_t max_id = 0;
  bool any_item = false;
  std::vector<std::string_view> tokens;
  // Ids above the declared universe fail fast; with an inferred universe
  // the shared kMaxParseId cap still bounds the allocation.
  const uint64_t id_cap =
      num_items != 0 ? static_cast<uint64_t>(num_items) - 1 : kMaxParseId;

  Status s = ForEachDataLine(
      text, origin, [&](size_t line_no, std::string_view line) {
        SplitDataTokens(line, &tokens);
        std::vector<size_t> items;
        items.reserve(tokens.size());
        for (std::string_view token : tokens) {
          uint64_t id = 0;
          Status ts =
              ParseUnsignedToken(token, id_cap, origin, line_no, &id);
          if (!ts.ok()) return ts;
          items.push_back(static_cast<size_t>(id));
          max_id = std::max(max_id, static_cast<size_t>(id));
          any_item = true;
        }
        rows.push_back(std::move(items));
        return Status::OK();
      });
  if (!s.ok()) return s;

  size_t n = num_items != 0 ? num_items : (any_item ? max_id + 1 : 0);
  return TransactionDatabase::FromRows(n, rows);
}

Result<TransactionDatabase> TransactionDatabase::LoadBasketFile(
    const std::string& path, size_t num_items) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("read failure on " + path);
  return ParseBasketText(buffer.str(), num_items, path);
}

Status TransactionDatabase::SaveBasketFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  for (const auto& r : rows_) {
    bool first = true;
    r.ForEach([&](size_t item) {
      if (!first) out << ' ';
      first = false;
      out << item;
    });
    out << '\n';
  }
  if (!out) return Status::IOError("write failure on " + path);
  return Status::OK();
}

}  // namespace hgm
