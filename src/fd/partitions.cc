#include "fd/partitions.h"

#include <unordered_map>
#include <unordered_set>

#include "common/apriori_gen.h"
#include "core/theory.h"

namespace hgm {

StrippedPartition StrippedPartition::ForAttribute(const RelationInstance& r,
                                                  size_t attribute) {
  std::unordered_map<uint64_t, std::vector<size_t>> groups;
  for (size_t row = 0; row < r.num_rows(); ++row) {
    groups[r.row(row)[attribute]].push_back(row);
  }
  StrippedPartition p;
  for (auto& [value, rows] : groups) {
    if (rows.size() >= 2) p.classes_.push_back(std::move(rows));
  }
  return p;
}

StrippedPartition StrippedPartition::ForSet(const RelationInstance& r,
                                            const Bitset& attributes) {
  StrippedPartition p;
  if (attributes.None()) {
    // One class with every row (if at least two exist).
    if (r.num_rows() >= 2) {
      std::vector<size_t> all(r.num_rows());
      for (size_t i = 0; i < all.size(); ++i) all[i] = i;
      p.classes_.push_back(std::move(all));
    }
    return p;
  }
  bool first = true;
  attributes.ForEach([&](size_t a) {
    StrippedPartition pa = ForAttribute(r, a);
    p = first ? std::move(pa) : p.Product(pa, r.num_rows());
    first = false;
  });
  return p;
}

StrippedPartition StrippedPartition::Product(const StrippedPartition& other,
                                             size_t num_rows) const {
  // Probe table: row -> index of its class in *this (or npos).
  std::vector<size_t> probe(num_rows, Bitset::npos);
  for (size_t c = 0; c < classes_.size(); ++c) {
    for (size_t row : classes_[c]) probe[row] = c;
  }
  StrippedPartition result;
  std::unordered_map<size_t, std::vector<size_t>> buckets;
  for (const auto& oc : other.classes_) {
    buckets.clear();
    for (size_t row : oc) {
      if (probe[row] != Bitset::npos) buckets[probe[row]].push_back(row);
    }
    for (auto& [c, rows] : buckets) {
      if (rows.size() >= 2) result.classes_.push_back(std::move(rows));
    }
  }
  return result;
}

size_t StrippedPartition::num_stripped_rows() const {
  size_t total = 0;
  for (const auto& c : classes_) total += c.size();
  return total;
}

bool StrippedPartition::RefinesAttribute(const RelationInstance& r,
                                         size_t rhs) const {
  for (const auto& c : classes_) {
    uint64_t value = r.row(c.front())[rhs];
    for (size_t row : c) {
      if (r.row(row)[rhs] != value) return false;
    }
  }
  return true;
}

KeyMiningResult KeysLevelwisePartitions(const RelationInstance& r) {
  KeyMiningResult result;
  const size_t n = r.num_attributes();
  const size_t rows = r.num_rows();

  // Level 0: ∅ is a key only for relations with <= 1 row.
  ++result.queries;
  if (rows <= 1) {
    result.minimal_keys.push_back(Bitset(n));
    return result;
  }

  // Level 1: `level` holds the non-key sets in sorted order, and
  // partitions[i] is the stripped partition of level[i].
  std::vector<ItemVec> level;
  std::vector<StrippedPartition> partitions;
  for (size_t a = 0; a < n; ++a) {
    ++result.queries;
    StrippedPartition p = StrippedPartition::ForAttribute(r, a);
    if (p.IsSuperkeyPartition()) {
      result.minimal_keys.push_back(Bitset::Singleton(n, a));
    } else {
      level.push_back(ItemVec{static_cast<uint32_t>(a)});
      partitions.push_back(std::move(p));
    }
  }
  if (level.empty() && result.minimal_keys.empty()) {
    // No attributes at all; with >= 2 rows there is no key.
    return result;
  }
  if (level.empty()) {
    CanonicalSort(&result.minimal_keys);
    return result;
  }

  std::vector<Bitset> maximal_non_keys;
  while (!level.empty()) {
    std::unordered_set<Bitset, BitsetHash> level_set;
    for (const ItemVec& items : level) {
      level_set.insert(Bitset::FromIndices(n, items));
    }
    std::vector<ItemVec> next;
    std::vector<StrippedPartition> next_partitions;
    // A candidate's partition is the product of its two join parents'.
    for (AprioriCandidate& cand : AprioriGen(level, level_set, n)) {
      ++result.queries;
      StrippedPartition p = partitions[cand.parent_i].Product(
          partitions[cand.parent_j], rows);
      if (p.IsSuperkeyPartition()) {
        result.minimal_keys.push_back(Bitset::FromIndices(n, cand.items));
      } else {
        next.push_back(std::move(cand.items));
        next_partitions.push_back(std::move(p));
      }
    }
    // Maximal non-key collection (mirrors RunLevelwise's diff sweep).
    for (const ItemVec& items : level) {
      Bitset x = Bitset::FromIndices(n, items);
      bool covered = false;
      for (const ItemVec& e : next) {
        if (x.IsSubsetOf(Bitset::FromIndices(n, e))) {
          covered = true;
          break;
        }
      }
      if (!covered) maximal_non_keys.push_back(std::move(x));
    }
    level = std::move(next);
    partitions = std::move(next_partitions);
  }
  AntichainMaximize(&maximal_non_keys);
  CanonicalSort(&maximal_non_keys);
  result.maximal_non_keys = std::move(maximal_non_keys);
  CanonicalSort(&result.minimal_keys);
  return result;
}

}  // namespace hgm
