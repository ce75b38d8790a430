#include "hypergraph/transversal_levelwise.h"

#include <cassert>

#include "common/level_loop.h"
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

  // Level 0: when ∅ is a transversal, it is the only minimal one.
  ++queries_;
  ++stats_.checks;
  const bool empty_is_transversal = input.IsTransversal(Bitset(n));

  // "Not a transversal" is the interesting predicate, so the rejected
  // candidates are the transversals whose every immediate subset is a
  // non-transversal: by downward closure of non-transversality, exactly
  // the minimal ones.  Bd+ (the maximal non-transversals) is not needed.
  struct NonTransversalKernel {
    LevelwiseTransversals* self;
    const Hypergraph* input;

    std::vector<uint8_t> Evaluate(const CandidateLevel& level) {
      self->CheckCancelled("levelwise-htr");
      assert(level.size - 1 <= self->max_level_ &&
             "levelwise exceeded max_level cap");
      self->levels_ = level.size - 1;
      self->stats_.candidates += level.sets.size();
      ++self->stats_.recursion_nodes;
      // One parallel batch of independent Is-transversal checks; each
      // query is still charged (Theorem 10).
      self->queries_ += level.sets.size();
      self->stats_.checks += level.sets.size();
      std::vector<uint8_t> interesting(level.sets.size(), 0);
      self->pool_->ParallelFor(
          level.sets.size(), [&](size_t begin, size_t end, size_t) {
            for (size_t i = begin; i < end; ++i) {
              interesting[i] = input->IsTransversal(level.sets[i]) ? 0 : 1;
            }
          });
      return interesting;
    }
  };
  LevelLoopOptions loop;
  loop.num_items = n;
  loop.track_maximal = false;
  NonTransversalKernel kernel{this, &input};
  LevelWalk walk = LevelWalk::AfterEmptySet(!empty_is_transversal, n);
  (void)RunLevelLoop(&walk, kernel, loop);  // unbudgeted: always completes
  for (Bitset& x : walk.negative) result.AddEdge(std::move(x));
  if (audit::kEnabled) {
    audit::AuditMinimalTransversals(input, result.edges(), "levelwise-htr");
  }
  return result;
}

}  // namespace hgm
