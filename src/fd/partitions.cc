#include "fd/partitions.h"

#include <unordered_map>

#include "common/level_loop.h"
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

namespace {

/// The key kernel: "X is not a key", decided by X's stripped partition —
/// per attribute at level 1, then the product of the two join parents'
/// partitions.  partitions[i] belongs to the walk's frontier[i].
struct PartitionKernel {
  const RelationInstance* r;
  uint64_t* queries;
  std::vector<StrippedPartition> partitions;

  std::vector<uint8_t> Evaluate(const CandidateLevel& level) {
    *queries += level.candidates.size();
    std::vector<uint8_t> keep(level.candidates.size(), 0);
    std::vector<StrippedPartition> next;
    for (size_t c = 0; c < level.candidates.size(); ++c) {
      const AprioriCandidate& cand = level.candidates[c];
      StrippedPartition p =
          level.size == 1
              ? StrippedPartition::ForAttribute(*r, cand.items[0])
              : partitions[cand.parent_i].Product(partitions[cand.parent_j],
                                                  r->num_rows());
      if (p.IsSuperkeyPartition()) continue;
      keep[c] = 1;
      next.push_back(std::move(p));
    }
    partitions = std::move(next);
    return keep;
  }
};

}  // namespace

KeyMiningResult KeysLevelwisePartitions(const RelationInstance& r) {
  KeyMiningResult result;
  const size_t n = r.num_attributes();

  // Level 0: ∅ is a key only for relations with <= 1 row.  The non-keys
  // are the theory: Bd+ = maximal non-keys, Bd- = minimal keys.
  ++result.queries;
  LevelLoopOptions loop;
  loop.num_items = n;
  PartitionKernel kernel{&r, &result.queries, {}};
  LevelWalk walk = LevelWalk::AfterEmptySet(r.num_rows() > 1, n);
  (void)RunLevelLoop(&walk, kernel, loop);  // unbudgeted: always completes
  result.maximal_non_keys = walk.PositiveBorderSoFar(n);
  result.minimal_keys = walk.TakeNegativeBorder();
  return result;
}

}  // namespace hgm
