#pragma once

/// \file transversal_levelwise.h
/// \brief The paper's new HTR special case (Corollary 15).
///
/// If every edge of H on n vertices has size at least n - k, then every
/// non-transversal is contained in the (size <= k) complement of some edge.
/// Declaring "X is interesting" to mean "X is NOT a transversal" gives a
/// monotone (downward-closed) predicate whose negative border is exactly
/// Tr(H).  Running the levelwise algorithm (Algorithm 9) bottom-up
/// therefore computes Tr(H), touching only sets of size <= k+1; for
/// k = O(log n) this is input-polynomial time -- improving on the
/// brute-force enumeration of Eiter & Gottlob (Theorem 5.4 of [8]), which
/// needs constant k.
///
/// Note (as the paper stresses) the algorithm never inspects the structure
/// of H beyond asking "is this subset a transversal?": that question is
/// the whole kernel it hands the shared level loop (common/level_loop.h).

#include "common/thread_pool.h"
#include "hypergraph/transversal.h"

namespace hgm {

/// Levelwise bottom-up computation of Tr(H); efficient iff Tr(H) consists
/// of small sets (equivalently, all edges are large).
///
/// Each lattice level is evaluated as one batch of independent
/// Is-transversal checks fanned out over a thread pool;
/// Hypergraph::IsTransversal is const with no shared mutable state, and
/// results are reassembled in candidate order, so the computed Tr(H) and
/// query count are identical at every thread count.
class LevelwiseTransversals : public TransversalAlgorithm {
 public:
  /// \param max_level safety cap on the lattice level explored; the
  ///   algorithm aborts (assert) if a transversal frontier has not been
  ///   closed by then.  Defaults to the universe size (no cap).
  /// \param pool worker pool for level batches; nullptr = global pool.
  explicit LevelwiseTransversals(size_t max_level = Bitset::npos,
                                 ThreadPool* pool = nullptr)
      : max_level_(max_level), pool_(PoolOrGlobal(pool)) {}

  std::string name() const override { return "levelwise"; }

  Hypergraph Compute(const Hypergraph& h) override;

  /// Number of Is-transversal evaluations in the last Compute(); this is
  /// the paper's query measure |Th| + |Bd-(Th)|.
  uint64_t queries() const { return queries_; }

  /// Highest lattice level at which an interesting (non-transversal) set
  /// was found, i.e. the paper's k.
  size_t levels() const { return levels_; }

 private:
  size_t max_level_;
  ThreadPool* pool_;
  uint64_t queries_ = 0;
  size_t levels_ = 0;
};

}  // namespace hgm
