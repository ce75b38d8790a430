#include "mining/sampling.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/theory.h"

namespace hgm {

SamplingResult MineWithSampling(TransactionDatabase* db, size_t min_support,
                                const SamplingOptions& options, Rng* rng) {
  SamplingResult result;
  const size_t n = db->num_items();
  const size_t rows = db->num_transactions();
  if (rows == 0) {
    if (min_support == 0) result.frequent.push_back({Bitset(n), 0});
    return result;
  }

  // No set (not even ∅, whose support is `rows`) can reach the threshold,
  // and the unclamped lowered fraction would exceed 1.  Answer without
  // touching the database.
  if (min_support > rows) return result;

  // --- 0. Clamp degenerate options to their nearest defined value. -----
  // sample_size == 0 would mine an empty sample whose theory is empty and
  // push ALL discovery into the repair loop (a levelwise full-database
  // mine); the smallest sample that exercises the sampling path is 1 row.
  const size_t sample_size =
      options.sample_size == 0 ? 1 : options.sample_size;
  // threshold_lowering is a multiplier <= 1 by contract; above 1 it would
  // RAISE the sample threshold (guaranteeing misses), and below 0 the
  // size_t cast of the negative lowered threshold is undefined.
  const double lowering =
      std::min(1.0, std::max(0.0, options.threshold_lowering));

  // --- 1. Draw the sample (with replacement). -------------------------
  TransactionDatabase sample(n);
  for (size_t i = 0; i < sample_size; ++i) {
    sample.AddTransaction(db->row(rng->UniformIndex(rows)));
  }

  // --- 2. Mine the sample at a lowered threshold. ----------------------
  double full_fraction =
      static_cast<double>(min_support) / static_cast<double>(rows);
  double lowered = full_fraction * lowering;
  auto sample_minsup = static_cast<size_t>(
      std::ceil(lowered * static_cast<double>(sample_size) - 1e-9));
  if (sample_minsup == 0) sample_minsup = 1;
  AprioriOptions mine_opts;
  mine_opts.record_all = true;
  AprioriResult sampled = MineFrequentSets(&sample, sample_minsup, mine_opts);

  // --- 3. One full pass over S ∪ Bd-(S). --------------------------------
  std::unordered_map<Bitset, size_t, BitsetHash> support;  // evaluated sets
  auto evaluate = [&](const Bitset& x) -> size_t {
    auto it = support.find(x);
    if (it != support.end()) return it->second;
    ++result.full_db_evaluations;
    size_t s = db->SupportVertical(x);
    support.emplace(x, s);
    return s;
  };

  std::vector<Bitset> verified_frequent;  // downward-closed by invariant
  for (const auto& f : sampled.frequent) {
    if (evaluate(f.items) >= min_support) {
      verified_frequent.push_back(f.items);
    }
  }
  for (const auto& x : sampled.negative_border) {
    if (evaluate(x) >= min_support) {
      result.miss_detected = true;
      result.missed_sets.push_back(x);
      verified_frequent.push_back(x);
    }
  }

  // --- 4. Repair passes: grow until the negative border is clean. ------
  while (true) {
    std::vector<Bitset> border =
        NegativeBorderViaGeneration(verified_frequent, n);
    bool grew = false;
    for (const auto& x : border) {
      if (support.contains(x)) continue;  // already known infrequent/freq
      if (evaluate(x) >= min_support) {
        verified_frequent.push_back(x);
        result.missed_sets.push_back(x);
        result.miss_detected = true;
        grew = true;
      }
    }
    if (!grew) break;
    ++result.repair_passes;
  }

  // Note: verified_frequent is downward closed (subsets of a frequent
  // candidate were themselves sample-frequent candidates, and border sets
  // only enter once their whole lower shadow is in), so at loop exit it
  // is exactly Th.
  CanonicalSort(&verified_frequent);
  for (const auto& x : verified_frequent) {
    result.frequent.push_back({x, support.at(x)});
  }
  return result;
}

}  // namespace hgm
