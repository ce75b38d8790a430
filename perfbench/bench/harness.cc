#include "harness.h"

#include <algorithm>
#include <numeric>
#include <thread>

#include "common/random.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {
// Keeps the kernel probe's popcounts observable, so they are not elided.
volatile size_t g_kernel_sink = 0;
}  // namespace

int SpanLog::Begin(const std::string& name, int parent) {
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, now, now, 1});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::End(int id) {
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_us = now;
}

void SpanLog::Aggregate(const std::string& name, int parent, double total_ms,
                        uint64_t count) {
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, now - total_ms * 1000.0, now, count});
}

std::vector<double> SpanLog::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back((s.end_us - s.start_us) / 1000.0);
  }
  return out;
}

void SpanLog::WriteJson(std::ostream& os) const {
  using hgm::obs::JsonValue;
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JsonValue> spans;
  spans.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    spans.push_back(JsonValue::Object(
        {{"id", JsonValue::Number(static_cast<double>(i))},
         {"name", JsonValue::String(s.name)},
         {"parent", JsonValue::Number(s.parent)},
         {"start_us", JsonValue::Number(s.start_us)},
         {"end_us", JsonValue::Number(s.end_us)},
         {"count", JsonValue::Number(static_cast<double>(s.count))}}));
  }
  os << hgm::obs::DumpJson(JsonValue::Object(
            {{"spans", JsonValue::Array(std::move(spans))}}))
     << "\n";
}

double RunResult::OpMedian(const std::string& op) const {
  const auto it = ops_ms.find(op);
  return it == ops_ms.end() ? 0.0 : Median(it->second);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

size_t BenchThreads(size_t want) {
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  return std::max<size_t>(1, std::min(want, hw));
}

hgm::TransactionDatabase ShuffleRows(const hgm::TransactionDatabase& base,
                                     uint64_t seed, size_t block) {
  hgm::Rng rng(seed);
  const size_t rows = base.num_transactions();
  if (block == 0) block = rows;
  hgm::TransactionDatabase out(base.num_items());
  for (size_t begin = 0; begin < rows; begin += block) {
    std::vector<size_t> part(std::min(block, rows - begin));
    std::iota(part.begin(), part.end(), begin);
    rng.Shuffle(part);
    for (size_t r : part) out.AddTransaction(base.row(r));
  }
  return out;
}

double KernelNsPerWord(hgm::TransactionDatabase* db) {
  db->EnsureVerticalIndex();
  const size_t n = db->num_items();
  const double words_per_pair =
      static_cast<double>((db->num_transactions() + 63) / 64);
  const double pairs = static_cast<double>(n * (n - 1) / 2);
  std::vector<double> sweeps;
  size_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
    double streamed = 0;
    do {
      for (size_t i = 0; i < n; ++i) {
        const hgm::Bitset& a = db->ItemCoverPrebuilt(i);
        for (size_t j = i + 1; j < n; ++j) {
          sink += a.IntersectionCountCapped(db->ItemCoverPrebuilt(j),
                                            hgm::Bitset::npos);
        }
      }
      streamed += pairs * words_per_pair;
    } while (MsSince(start) < 20.0);
    sweeps.push_back(MsSince(start) * 1e6 / streamed);
  }
  g_kernel_sink = sink;
  return Median(sweeps);
}

CountingReplay ReplayCounting(hgm::TransactionDatabase* db,
                              const std::vector<hgm::Bitset>& family,
                              hgm::ThreadPool* pool) {
  db->EnsureVerticalIndex();
  std::map<size_t, std::vector<size_t>> by_size;
  for (size_t i = 0; i < family.size(); ++i) {
    const size_t k = family[i].Count();
    if (k > 0) by_size[k].push_back(i);
  }
  std::vector<std::vector<hgm::Bitset>> levels;
  for (const auto& [k, members] : by_size) {
    std::vector<hgm::Bitset> level;
    level.reserve(members.size());
    for (size_t i : members) level.push_back(family[i]);
    levels.push_back(std::move(level));
  }

  CountingReplay out;
  out.supports.assign(family.size(), 0);
  hgm::PrefixCoverCache cache(db);
  const Clock::time_point start = Clock::now();
  size_t li = 0;
  for (const auto& [k, members] : by_size) {
    const std::vector<size_t> counts =
        db->CountSupportsVertical(levels[li++], &cache, pool);
    for (size_t j = 0; j < members.size(); ++j) {
      out.supports[members[j]] = counts[j];
    }
    // The next level's prefixes have size >= k.
    cache.PruneBelow(k);
    out.sets += members.size();
  }
  out.ms = MsSince(start);
  return out;
}

CountingReplay ReplayTheory(hgm::TransactionDatabase* db,
                            const std::vector<hgm::FrequentItemset>& frequent,
                            const std::vector<hgm::Bitset>& negative_border,
                            size_t min_support, hgm::ThreadPool* pool,
                            bool* exact) {
  std::vector<hgm::Bitset> family;
  family.reserve(frequent.size() + negative_border.size());
  for (const hgm::FrequentItemset& f : frequent) family.push_back(f.items);
  family.insert(family.end(), negative_border.begin(), negative_border.end());
  CountingReplay out = ReplayCounting(db, family, pool);
  *exact = true;
  for (size_t i = 0; i < family.size(); ++i) {
    if (family[i].None()) continue;  // ∅ is not replayed
    *exact = *exact && (i < frequent.size()
                            ? out.supports[i] == frequent[i].support
                            : out.supports[i] < min_support);
  }
  return out;
}

uint64_t PoolBusyUs() {
  return hgm::obs::MetricsRegistry::Global().Snapshot().CounterValue(
      "pool.busy_us");
}

}  // namespace perfbench
