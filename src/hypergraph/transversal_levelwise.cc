#include "hypergraph/transversal_levelwise.h"

#include <cassert>
#include <unordered_set>

#include "common/apriori_gen.h"
#include "hypergraph/transversal_audit.h"

namespace hgm {

Hypergraph LevelwiseTransversals::Compute(const Hypergraph& h) {
  stats_ = TransversalStats();
  TransversalComputeScope obs_scope(name(), h, &stats_);
  queries_ = 0;
  levels_ = 0;
  const size_t n = h.num_vertices();
  Hypergraph result(n);

  Hypergraph input = h;
  input.Minimize();
  if (input.HasEmptyEdge()) return result;  // no transversals

  auto is_interesting = [&](const Bitset& x) {
    ++queries_;
    ++stats_.checks;
    return !input.IsTransversal(x);
  };

  // Level 0.
  if (!is_interesting(Bitset(n))) {
    result.AddEdge(Bitset(n));  // ∅ is a (the) minimal transversal
    return result;
  }

  std::vector<ItemVec> level;  // interesting sets of the current size
  level.push_back(ItemVec{});
  std::unordered_set<Bitset, BitsetHash> level_set;

  for (size_t k = 0; !level.empty(); ++k) {
    CheckCancelled("levelwise-htr");
    assert(k <= max_level_ && "levelwise exceeded max_level cap");
    levels_ = k;
    // Generate candidates of size k+1.
    std::vector<AprioriCandidate> candidates;
    if (k == 0) {
      candidates = SingletonCandidates(n);
    } else {
      level_set.clear();
      for (const auto& s : level) {
        level_set.insert(Bitset::FromIndices(n, s));
      }
      candidates = AprioriGen(level, level_set, n);
    }
    stats_.candidates += candidates.size();
    ++stats_.recursion_nodes;

    // Evaluate the whole level as one parallel batch of independent
    // Is-transversal checks; each query is still charged (Theorem 10).
    std::vector<Bitset> batch;
    batch.reserve(candidates.size());
    for (const AprioriCandidate& cand : candidates) {
      batch.push_back(Bitset::FromIndices(n, cand.items));
    }
    queries_ += batch.size();
    stats_.checks += batch.size();
    std::vector<uint8_t> interesting(batch.size(), 0);
    pool_->ParallelFor(batch.size(),
                       [&](size_t begin, size_t end, size_t) {
                         for (size_t i = begin; i < end; ++i) {
                           interesting[i] =
                               input.IsTransversal(batch[i]) ? 0 : 1;
                         }
                       });

    std::vector<ItemVec> next;
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (interesting[c]) {
        next.push_back(std::move(candidates[c].items));
      } else {
        // A transversal whose every immediate subset is a non-transversal:
        // by downward closure of non-transversality, x is minimal.
        result.AddEdge(std::move(batch[c]));
      }
    }
    level = std::move(next);
  }
  if (audit::kEnabled) {
    audit::AuditMinimalTransversals(input, result.edges(), "levelwise-htr");
  }
  return result;
}

}  // namespace hgm
