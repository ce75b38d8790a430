// bench_serve: service-level latency and load-shedding measurements for
// the in-process hgmine_serve core (src/serve/server.h).
//
// Two phases against one resident session:
//
//   steady — N client threads issue mine/support requests with generous
//            deadlines; per-request wall latency is recorded and the
//            p50/p99 quantiles reported.  Every mine answer must carry
//            the fingerprint of a local batch re-mine (bit-identity is
//            part of the bench contract, not just the tests').
//
//   burst  — more concurrent `sleep` requests than queue slots, with
//            short deadlines, so admission control must shed; the bench
//            reports the shed rate and FAILS if any shed is untyped or
//            the whole burst somehow vanishes without an answer.
//
// Output: the usual hgm.run_report envelope in BENCH_serve.json
// (BENCH_serve_quick.json under --quick) with payload
//   {"steady": {"requests":..,"p50_us":..,"p99_us":..},
//    "burst":  {"requests":..,"shed":..,"shed_rate":..}}.
//
// `ctest -L serve` runs `bench_serve --quick` as perf_serve_smoke.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_harness.h"
#include "common/random.h"
#include "mining/apriori.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace {

using hgm::TransactionDatabase;

uint64_t Mix(uint64_t x) { return hgm::SplitMix64(x); }

std::vector<std::vector<size_t>> MakeRows(size_t rows, size_t items,
                                          uint64_t seed) {
  std::vector<std::vector<size_t>> out;
  out.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<size_t> row;
    for (size_t i = 0; i < items; ++i) {
      const uint64_t h =
          Mix(seed ^ (r * 1315423911ull) ^ (i * 2654435761ull));
      const uint64_t threshold =
          (3ull << 62) - ((2ull << 62) / (items == 1 ? 1 : items - 1)) * i;
      if (h < threshold) row.push_back(i);
    }
    out.push_back(std::move(row));
  }
  return out;
}

std::string OpenLine(const std::string& session, size_t items,
                     const std::vector<std::vector<size_t>>& rows) {
  std::ostringstream os;
  os << "{\"op\":\"open\",\"id\":1,\"session\":\"" << session
     << "\",\"items\":" << items << ",\"rows\":[";
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) os << ",";
    os << "[";
    for (size_t i = 0; i < rows[r].size(); ++i) {
      if (i > 0) os << ",";
      os << rows[r][i];
    }
    os << "]";
  }
  os << "]}";
  return os.str();
}

uint64_t Percentile(std::vector<uint64_t> sorted_us, double p) {
  if (sorted_us.empty()) return 0;
  std::sort(sorted_us.begin(), sorted_us.end());
  const size_t idx = std::min(
      sorted_us.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_us.size())));
  return sorted_us[idx];
}

}  // namespace

int main(int argc, char** argv) {
  hgm::bench::BenchHarness harness("bench_serve", argc, argv);
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  if (quick) harness.SetDefaultOutPath("BENCH_serve_quick.json");

  const size_t kItems = 10, kRows = 80, kMinsup = 8;
  const size_t kClients = quick ? 3 : 4;
  const size_t kSteadyPerClient = quick ? 16 : 200;
  const uint64_t kSeed = 42;
  int failures = 0;

  const std::vector<std::vector<size_t>> data =
      MakeRows(kRows, kItems, kSeed);
  TransactionDatabase db = TransactionDatabase::FromRows(kItems, data);
  hgm::AprioriResult truth = hgm::MineFrequentSets(&db, kMinsup);
  const std::string want_fp = hgm::serve::TheoryFingerprint(
      truth.frequent, truth.maximal, truth.negative_border);

  hgm::serve::ServerConfig config;
  config.workers = 2;
  config.admission.max_queue = 4;  // small on purpose: bursts must shed
  config.enable_test_ops = true;
  hgm::serve::Server server(config);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "bench_serve: server failed to start\n");
    return 1;
  }
  {
    const std::string r = server.Handle(OpenLine("bench", kItems, data));
    if (r.find("\"ok\":true") == std::string::npos) {
      std::fprintf(stderr, "bench_serve: open failed: %s\n", r.c_str());
      return 1;
    }
  }

  // ---- steady phase ------------------------------------------------
  std::mutex lat_mu;
  std::vector<uint64_t> latencies_us;
  std::atomic<uint64_t> steady_bad{0};
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<uint64_t> local;
        local.reserve(kSteadyPerClient);
        for (size_t r = 0; r < kSteadyPerClient; ++r) {
          std::ostringstream os;
          if (Mix(kSeed ^ (c << 16) ^ r) % 2 == 0) {
            os << "{\"op\":\"mine\",\"id\":" << (c * 1000 + r)
               << ",\"session\":\"bench\",\"min_support\":" << kMinsup
               << ",\"deadline_ms\":10000}";
          } else {
            os << "{\"op\":\"support\",\"id\":" << (c * 1000 + r)
               << ",\"session\":\"bench\",\"itemset\":["
               << (Mix(kSeed ^ (c << 8) ^ (r << 2)) % kItems)
               << "],\"deadline_ms\":10000}";
          }
          const auto t0 = std::chrono::steady_clock::now();
          const std::string response = server.Handle(os.str());
          const auto t1 = std::chrono::steady_clock::now();
          local.push_back(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(t1 -
                                                                    t0)
                  .count()));
          if (response.find("\"ok\":true") == std::string::npos) {
            steady_bad.fetch_add(1);
          } else if (response.find("\"fingerprint\"") !=
                         std::string::npos &&
                     response.find(want_fp) == std::string::npos) {
            steady_bad.fetch_add(1);
          }
        }
        std::lock_guard<std::mutex> lock(lat_mu);
        latencies_us.insert(latencies_us.end(), local.begin(),
                            local.end());
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const uint64_t p50 = Percentile(latencies_us, 0.50);
  const uint64_t p99 = Percentile(latencies_us, 0.99);
  if (steady_bad.load() != 0) {
    std::fprintf(stderr,
                 "bench_serve: FAIL %llu bad steady responses\n",
                 static_cast<unsigned long long>(steady_bad.load()));
    ++failures;
  }

  // ---- burst phase -------------------------------------------------
  // 6x more concurrent sleepers than admission slots.  max_queue counts
  // queued and executing requests alike, so the server owns max_queue
  // slots, not max_queue + workers; admission must answer the overflow
  // with typed unavailable sheds, quickly.
  const size_t kBurst = 6 * config.admission.max_queue;
  std::atomic<uint64_t> burst_shed{0}, burst_ok{0}, burst_bad{0};
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kBurst; ++c) {
      clients.emplace_back([&, c] {
        std::ostringstream os;
        os << "{\"op\":\"sleep\",\"id\":" << (90000 + c)
           << ",\"ms\":" << (quick ? 20 : 50)
           << ",\"deadline_ms\":2000}";
        const std::string response = server.Handle(os.str());
        if (response.find("\"ok\":true") != std::string::npos) {
          burst_ok.fetch_add(1);
        } else if (response.find("\"code\":\"unavailable\"") !=
                   std::string::npos) {
          burst_shed.fetch_add(1);
        } else {
          burst_bad.fetch_add(1);
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  if (burst_bad.load() != 0) {
    std::fprintf(stderr,
                 "bench_serve: FAIL %llu untyped burst failures\n",
                 static_cast<unsigned long long>(burst_bad.load()));
    ++failures;
  }
  if (burst_shed.load() == 0) {
    std::fprintf(stderr,
                 "bench_serve: FAIL burst of %zu never shed "
                 "(queue=%zu workers=%zu)\n",
                 kBurst, config.admission.max_queue, config.workers);
    ++failures;
  }
  const double shed_rate = static_cast<double>(burst_shed.load()) /
                           static_cast<double>(kBurst);

  server.Drain();

  std::printf(
      "bench_serve: steady requests=%zu p50=%lluus p99=%lluus | "
      "burst=%zu ok=%llu shed=%llu (rate %.2f)\n",
      latencies_us.size(), static_cast<unsigned long long>(p50),
      static_cast<unsigned long long>(p99), kBurst,
      static_cast<unsigned long long>(burst_ok.load()),
      static_cast<unsigned long long>(burst_shed.load()), shed_rate);

  {
    std::ostringstream steady;
    steady << "{\"requests\": " << latencies_us.size()
           << ", \"p50_us\": " << p50 << ", \"p99_us\": " << p99 << "}";
    harness.AddPayload("steady", steady.str());
    std::ostringstream burst;
    burst << "{\"requests\": " << kBurst
          << ", \"ok\": " << burst_ok.load()
          << ", \"shed\": " << burst_shed.load() << ", \"shed_rate\": "
          << shed_rate << "}";
    harness.AddPayload("burst", burst.str());
  }
  harness.report().AddConfig("quick", quick);
  return harness.Finish(failures);
}
