#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bitset.h"
#include "core/dualize_advance.h"
#include "core/levelwise.h"
#include "core/oracle.h"
#include "mining/frequency_oracle.h"
#include "mining/transaction_db.h"

namespace hgm {
namespace {

/// Paper Figure 1: r over R = {A,B,C,D}, min_support 2.
///   Th  = {∅, A, B, C, D, AB, AC, BC, BD, ABC}   (10 sentences)
///   MTh = Bd+ = {BD, ABC}
///   Bd- = {AD, CD}
/// Theorem 10: the levelwise algorithm evaluates q exactly
/// |Th| + |Bd-(Th)| = 12 times.  These counts must be identical in plain
/// and -DHGMINE_AUDIT=ON builds — auditors never query the oracle.
TransactionDatabase Figure1Db() {
  return TransactionDatabase::FromRows(
      4, {{0, 1, 2}, {0, 1, 2}, {1, 3}, {1, 3}, {0, 3}});
}

bool ContainsSet(const std::vector<Bitset>& family, const Bitset& x) {
  return std::find(family.begin(), family.end(), x) != family.end();
}

TEST(QueryAccountingTest, Theorem10ExactOnFigure1) {
  TransactionDatabase db = Figure1Db();
  FrequencyOracle freq(&db, 2);
  CountingOracle counting(&freq);

  LevelwiseResult result = RunLevelwise(&counting);

  EXPECT_EQ(result.theory.size(), 10u);
  EXPECT_EQ(result.negative_border.size(), 2u);
  EXPECT_EQ(result.queries,
            result.theory.size() + result.negative_border.size());
  EXPECT_EQ(result.queries, 12u);
  // The algorithm's own tally and the oracle-side meter must agree:
  // every generated candidate is evaluated exactly once (Theorem 10's
  // proof hinges on this no-revisit property).
  EXPECT_EQ(counting.raw_queries(), result.queries);
  EXPECT_EQ(counting.distinct_queries(), result.queries);
  EXPECT_EQ(result.candidates, result.queries);

  EXPECT_EQ(result.positive_border.size(), 2u);
  EXPECT_TRUE(ContainsSet(result.positive_border, Bitset(4, {1, 3})));
  EXPECT_TRUE(
      ContainsSet(result.positive_border, Bitset(4, {0, 1, 2})));
  EXPECT_TRUE(ContainsSet(result.negative_border, Bitset(4, {0, 3})));
  EXPECT_TRUE(ContainsSet(result.negative_border, Bitset(4, {2, 3})));
}

TEST(QueryAccountingCachedTest, CachedOracleAccountingOnDualizeAdvance) {
  TransactionDatabase db = Figure1Db();
  FrequencyOracle freq(&db, 2);
  CachedOracle cached(&freq);

  DualizeAdvanceResult result = RunDualizeAdvance(&cached);

  EXPECT_EQ(result.positive_border.size(), 2u);
  EXPECT_EQ(result.negative_border.size(), 2u);
  // |MTh| + 1 iterations: one per discovered maximal set plus the
  // certifying pass (the paper's termination argument).
  EXPECT_EQ(result.iterations, 3u);

  // Every ask is charged (Theorem 21's measure counts repeats), while
  // the data is touched at most once per distinct sentence.
  EXPECT_EQ(cached.raw_queries(), result.queries);
  EXPECT_LE(cached.inner_evaluations(), cached.raw_queries());
  EXPECT_EQ(cached.inner_evaluations(), cached.cache_size());

  // A second identical run answers entirely from cache: raw doubles,
  // inner evaluations stay put.
  const uint64_t inner_after_first = cached.inner_evaluations();
  DualizeAdvanceResult again = RunDualizeAdvance(&cached);
  EXPECT_EQ(again.queries, result.queries);
  EXPECT_EQ(cached.raw_queries(), 2 * result.queries);
  EXPECT_EQ(cached.inner_evaluations(), inner_after_first);
}

/// Records every EvaluateBatch the inner oracle receives, so tests can
/// assert that wrappers forward misses as whole batches instead of
/// degrading to element-wise IsInteresting calls.
class BatchRecordingOracle : public InterestingnessOracle {
 public:
  explicit BatchRecordingOracle(InterestingnessOracle* inner)
      : inner_(inner) {}

  bool IsInteresting(const Bitset& x) override {
    ++single_calls_;
    return inner_->IsInteresting(x);
  }

  std::vector<uint8_t> EvaluateBatch(
      std::span<const Bitset> batch) override {
    batch_sizes_.push_back(batch.size());
    return inner_->EvaluateBatch(batch);
  }

  size_t num_items() const override { return inner_->num_items(); }

  const std::vector<size_t>& batch_sizes() const { return batch_sizes_; }
  size_t single_calls() const { return single_calls_; }

 private:
  InterestingnessOracle* inner_;
  std::vector<size_t> batch_sizes_;
  size_t single_calls_ = 0;
};

/// Regression: the memoized CountingOracle once answered batches with a
/// sequential element-wise loop, silently losing the inner oracle's
/// parallel batching.  Misses must reach the inner oracle as ONE batch,
/// and a batch of size m must charge exactly m raw queries regardless of
/// how many answers came from cache.
TEST(QueryAccountingMemoizedTest, MemoizedBatchForwardsMissesAsOneBatch) {
  TransactionDatabase db = Figure1Db();
  FrequencyOracle freq(&db, 2);
  BatchRecordingOracle recorder(&freq);
  CountingOracle memoized(&recorder, /*memoize=*/true);

  // Fresh batch: all four are misses, forwarded as one inner batch.
  std::vector<Bitset> first = {Bitset(4, {0}), Bitset(4, {1}),
                               Bitset(4, {2}), Bitset(4, {3})};
  std::vector<uint8_t> got = memoized.EvaluateBatch(first);
  EXPECT_EQ(memoized.raw_queries(), 4u);
  EXPECT_EQ(memoized.distinct_queries(), 4u);
  ASSERT_EQ(recorder.batch_sizes().size(), 1u);
  EXPECT_EQ(recorder.batch_sizes()[0], 4u);
  EXPECT_EQ(recorder.single_calls(), 0u);

  // Answers must match the sequential contract.
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(got[i] != 0, freq.IsInteresting(first[i])) << "index " << i;
  }

  // Mixed batch: two cached, two new.  Raw charges the full batch size;
  // only the misses reach the inner oracle, still as one batch.
  std::vector<Bitset> second = {Bitset(4, {0}), Bitset(4, {0, 1}),
                                Bitset(4, {1}), Bitset(4, {0, 3})};
  got = memoized.EvaluateBatch(second);
  EXPECT_EQ(memoized.raw_queries(), 8u);
  EXPECT_EQ(memoized.distinct_queries(), 6u);
  ASSERT_EQ(recorder.batch_sizes().size(), 2u);
  EXPECT_EQ(recorder.batch_sizes()[1], 2u);
  EXPECT_EQ(recorder.single_calls(), 0u);
  for (size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(got[i] != 0, freq.IsInteresting(second[i])) << "index " << i;
  }

  // Fully-cached batch: zero inner traffic, but m raw queries charged.
  got = memoized.EvaluateBatch(second);
  EXPECT_EQ(memoized.raw_queries(), 12u);
  EXPECT_EQ(memoized.distinct_queries(), 6u);
  EXPECT_EQ(recorder.batch_sizes().size(), 2u);
}

/// The memoized oracle must stay a drop-in for the plain one under the
/// levelwise run: same answers, same Theorem-10 raw-query accounting.
TEST(QueryAccountingMemoizedTest, MemoizedLevelwiseKeepsTheorem10Count) {
  TransactionDatabase db = Figure1Db();
  FrequencyOracle freq(&db, 2);
  CountingOracle memoized(&freq, /*memoize=*/true);

  LevelwiseResult result = RunLevelwise(&memoized);
  EXPECT_EQ(result.queries, 12u);
  EXPECT_EQ(memoized.raw_queries(), 12u);
  EXPECT_EQ(memoized.distinct_queries(), 12u);
  EXPECT_EQ(result.positive_border.size(), 2u);
  EXPECT_EQ(result.negative_border.size(), 2u);
}

TEST(QueryAccountingCachedTest, LevelwiseThroughCacheMatchesTheorem10) {
  TransactionDatabase db = Figure1Db();
  FrequencyOracle freq(&db, 2);
  CachedOracle cached(&freq);

  LevelwiseResult result = RunLevelwise(&cached);
  EXPECT_EQ(result.queries, 12u);
  EXPECT_EQ(cached.raw_queries(), 12u);
  // Levelwise never repeats a candidate, so the cache never hits.
  EXPECT_EQ(cached.inner_evaluations(), 12u);
}

}  // namespace
}  // namespace hgm
