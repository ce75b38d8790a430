#include "mining/closed.h"

#include <algorithm>
#include <unordered_map>

#include "core/theory.h"

namespace hgm {

Bitset Closure(TransactionDatabase* db, const Bitset& x) {
  const size_t n = db->num_items();
  Bitset cover = db->Cover(x);
  if (cover.None()) return Bitset::Full(n);
  Bitset closure = Bitset::Full(n);
  cover.ForEach([&](size_t row) { closure &= db->row(row); });
  return closure;
}

std::vector<FrequentItemset> MineClosedFrequentSets(TransactionDatabase* db,
                                                    size_t min_support) {
  AprioriResult mined = MineFrequentSets(db, min_support);
  std::unordered_map<Bitset, size_t, BitsetHash> closed;
  for (const auto& f : mined.frequent) {
    // closure(X) has the same support as X; dedupe on the closure.
    closed.emplace(Closure(db, f.items), f.support);
  }
  std::vector<FrequentItemset> out;
  out.reserve(closed.size());
  for (auto& [items, support] : closed) out.push_back({items, support});
  SortFrequent(&out);
  return out;
}

size_t SupportFromClosed(const std::vector<FrequentItemset>& closed,
                         const Bitset& x) {
  size_t best = 0;
  bool found = false;
  for (const auto& c : closed) {
    if (x.IsSubsetOf(c.items)) {
      if (!found || c.support > best) best = c.support;
      found = true;
    }
  }
  // The closure of x is the smallest closed superset, which has the
  // LARGEST support among closed supersets of x.
  return found ? best : 0;
}

}  // namespace hgm
