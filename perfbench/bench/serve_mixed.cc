/// \file serve_mixed.cc
/// \brief serve_mixed: the only workload with writes beside reads.
///
/// An in-process Server (2 workers, default admission, WAL in a scratch
/// state_dir) holding one batch session of 20k Quest rows over 60 items.
/// Three closed-loop clients call Server::Handle with a seeded mix:
/// `support` of 2-item sets, `mine` at one of three thresholds near 2%,
/// and `push` of 2-row batches.  Every push empties the session's mine
/// cache, so the next mines run cold: cache hits and misses both occur.
/// The mix exercises parse, admission, queue, the session lock, the WAL,
/// the mine cache and rendering, and it shows head-of-line blocking — a
/// support request waits behind a cold mine that holds the session lock.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/run_budget.h"
#include "harness.h"
#include "mining/apriori.h"
#include "mining/generators.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using hgm::obs::JsonValue;
using hgm::serve::Op;

constexpr size_t kRows = 20000;
constexpr size_t kPushPool = 2000;
constexpr size_t kItems = 60;
constexpr size_t kClients = 3;
constexpr size_t kWorkers = 2;
constexpr size_t kThresholds[] = {380, 400, 420};
constexpr size_t kReplayThreshold = 400;
// Request mix per client, dealt as shuffled decks so every run sees the
// same proportions: the push count sets how often the mine cache empties,
// tuned for cache hits and cold mines in every run; the rest of the deck
// is support probes.
constexpr size_t kDeck = 200;
constexpr size_t kPushesPerDeck = 3;
constexpr size_t kMinesPerDeck = 20;
constexpr uint64_t kBaseSeed = 0x5e4e0004;
constexpr char kSession[] = "bench";

/// One client request and what came back.
struct Sample {
  Op op = Op::kSupport;
  std::string line;
  size_t minsup = 0;                      // mine
  std::vector<size_t> itemset;            // support
  std::vector<std::vector<size_t>> rows;  // push
  double ms = 0;                          // Server::Handle latency
  bool ok = false;
  std::string error;
  double support = -1;
  std::string fingerprint;
  bool from_cache = false;
  // Pushes acknowledged when the request was sent, and pushes started when
  // its response came back: the session had applied between lo and hi
  // pushes when it answered.
  uint64_t lo = 0;
  uint64_t hi = 0;
  uint64_t done_order = 0;  // completion order across all clients
};

/// Counters the clients share.
struct Shared {
  std::atomic<uint64_t> next_id{10};
  std::atomic<uint64_t> pushes_started{0};
  std::atomic<uint64_t> pushes_acked{0};
  std::atomic<uint64_t> push_cursor{0};
  std::atomic<uint64_t> completed{0};
};

/// The session's opening rows, the rows clients push, and the open line.
struct Data {
  std::vector<hgm::Bitset> opened;
  std::vector<hgm::Bitset> push_pool;
  std::string open_line;
};

/// A started server with the session open, in its own state directory.
struct Service {
  std::string dir;
  std::unique_ptr<hgm::serve::Server> server;
};

/// Joins every thread on scope exit, exception paths included.
struct JoinAll {
  std::vector<std::thread>* threads;
  ~JoinAll() {
    for (std::thread& t : *threads) {
      if (t.joinable()) t.join();
    }
  }
};

double UsSince(Clock::time_point start) { return MsSince(start) * 1000.0; }

std::string ItemsJson(const std::vector<size_t>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(items[i]);
  }
  return out + "]";
}

std::string RequestLine(uint64_t id, const char* op,
                        const std::string& fields) {
  return std::string("{\"op\":\"") + op + "\",\"id\":" + std::to_string(id) +
         ",\"session\":\"" + kSession + "\"," + fields + "}";
}

Data MakeData(uint64_t seed) {
  hgm::QuestParams params;
  params.num_transactions = kRows + kPushPool;
  params.avg_transaction_size = 8.0;
  params.num_items = kItems;
  hgm::Rng rng(kBaseSeed);
  // Shuffled within the opening rows and within the push pool, so every
  // seed opens the session on the same rows.
  const hgm::TransactionDatabase all =
      ShuffleRows(hgm::GenerateQuest(params, &rng), seed, kRows);
  const auto split = all.rows().begin() + static_cast<std::ptrdiff_t>(kRows);
  Data data;
  data.opened.assign(all.rows().begin(), split);
  data.push_pool.assign(split, all.rows().end());
  std::string rows;
  for (size_t r = 0; r < data.opened.size(); ++r) {
    if (r > 0) rows += ',';
    rows += ItemsJson(data.opened[r].Indices());
  }
  data.open_line = "{\"op\":\"open\",\"id\":1,\"session\":\"" +
                   std::string(kSession) +
                   "\",\"items\":" + std::to_string(kItems) + ",\"rows\":[" +
                   rows + "]}";
  return data;
}

Service StartService(const std::string& dir, const std::string& open_line) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  hgm::serve::ServerConfig config;
  config.workers = kWorkers;
  config.state_dir = dir;
  Service service{dir, std::make_unique<hgm::serve::Server>(config)};
  if (!service.server->Start().ok()) {
    throw std::runtime_error("serve_mixed: the server failed to start");
  }
  const std::string opened = service.server->Handle(open_line);
  if (opened.find("\"ok\":true") == std::string::npos) {
    throw std::runtime_error("serve_mixed: open failed: " +
                             opened.substr(0, 200));
  }
  return service;
}

void ParseResponse(const std::string& response, Sample* s) {
  const hgm::Result<JsonValue> parsed = hgm::obs::ParseJson(response);
  if (!parsed.ok()) {
    s->error = "unparsable response";
    return;
  }
  const JsonValue& obj = parsed.value();
  const JsonValue* ok = obj.Find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->AsBool()) {
    s->error = obj.StringAt("code", "error") + ": " + obj.StringAt("error");
    return;
  }
  const JsonValue* degraded = obj.Find("degraded");
  if (degraded != nullptr && degraded->is_bool() && degraded->AsBool()) {
    s->error = "degraded: " + obj.StringAt("stop_reason");
    return;
  }
  s->ok = true;
  s->support = obj.NumberAt("support", -1);
  s->fingerprint = obj.StringAt("fingerprint");
  const JsonValue* cached = obj.Find("from_cache");
  s->from_cache = cached != nullptr && cached->is_bool() && cached->AsBool();
}

/// One closed-loop client: the next request goes out only after the
/// previous response came back.
void ClientLoop(hgm::serve::Server* server,
                const std::vector<hgm::Bitset>* push_pool, Shared* shared,
                uint64_t seed, Clock::time_point deadline, SpanLog* spans,
                int parent, std::vector<Sample>* out) {
  hgm::Rng rng(seed);
  std::vector<Op> deck;
  while (Clock::now() < deadline) {
    if (deck.empty()) {
      deck.assign(kDeck, Op::kSupport);
      std::fill_n(deck.begin(), kPushesPerDeck, Op::kPush);
      std::fill_n(deck.begin() + kPushesPerDeck, kMinesPerDeck, Op::kMine);
      rng.Shuffle(deck);
    }
    Sample s;
    s.op = deck.back();
    deck.pop_back();
    const uint64_t id = shared->next_id.fetch_add(1);
    if (s.op == Op::kPush) {
      const uint64_t at = shared->push_cursor.fetch_add(2);
      std::string rows;
      for (uint64_t k = at; k < at + 2; ++k) {
        s.rows.push_back((*push_pool)[k % push_pool->size()].Indices());
        if (!rows.empty()) rows += ',';
        rows += ItemsJson(s.rows.back());
      }
      s.line = RequestLine(id, "push", "\"rows\":[" + rows + "]");
      shared->pushes_started.fetch_add(1);
    } else if (s.op == Op::kMine) {
      s.minsup = kThresholds[rng.UniformIndex(std::size(kThresholds))];
      s.line = RequestLine(id, "mine",
                           "\"min_support\":" + std::to_string(s.minsup));
    } else {
      const size_t a = rng.UniformIndex(kItems);
      size_t b = rng.UniformIndex(kItems - 1);
      if (b >= a) ++b;
      s.itemset = {std::min(a, b), std::max(a, b)};
      s.line = RequestLine(id, "support", "\"itemset\":" + ItemsJson(s.itemset));
    }
    s.lo = shared->pushes_acked.load();
    const Clock::time_point start = Clock::now();
    std::string response;
    {
      ScopedSpan span(spans,
                      std::string("serve.handle.") + hgm::serve::OpName(s.op),
                      parent);
      response = server->Handle(s.line);
    }
    s.ms = MsSince(start);
    s.hi = shared->pushes_started.load();
    s.done_order = shared->completed.fetch_add(1);
    ParseResponse(response, &s);
    if (s.op == Op::kPush && s.ok) shared->pushes_acked.fetch_add(1);
    out->push_back(std::move(s));
  }
}

std::vector<Sample> RunClients(hgm::serve::Server* server, const Data& data,
                               Shared* shared, uint64_t seed, double ms,
                               SpanLog* spans, int parent) {
  std::vector<std::vector<Sample>> per_client(kClients);
  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(ms * 1000.0));
  {
    std::vector<std::thread> threads;
    JoinAll join{&threads};
    for (size_t c = 0; c < kClients; ++c) {
      uint64_t state = seed * kClients + c;
      threads.emplace_back(ClientLoop, server, &data.push_pool, shared,
                           hgm::SplitMix64(state), deadline, spans, parent,
                           &per_client[c]);
    }
  }
  std::vector<Sample> all;
  for (std::vector<Sample>& samples : per_client) {
    for (Sample& s : samples) all.push_back(std::move(s));
  }
  return all;
}

std::string OpKey(const Sample& s) {
  switch (s.op) {
    case Op::kPush:
      return "push";
    case Op::kMine:
      return s.from_cache ? "mine_hit" : "mine_miss";
    default:
      return "support";
  }
}

/// Records every answered request as a latency sample; sheds, errors and
/// degraded answers count as failed operations, never as latencies.
void RecordSamples(const std::vector<Sample>& samples,
                   const std::string& suffix, RunResult* out) {
  for (const Sample& s : samples) {
    if (s.ok) {
      out->Record(OpKey(s) + suffix, s.ms);
    } else {
      out->Check(false, std::string("serve_mixed: ") +
                            hgm::serve::OpName(s.op) +
                            " request failed: " + s.error);
    }
  }
}

/// The session as of \p pushes applied pushes: the WAL's first
/// kRows + 2 * pushes rows.
hgm::TransactionDatabase Prefix(const std::vector<hgm::Bitset>& rows,
                                uint64_t pushes) {
  hgm::TransactionDatabase db(kItems);
  const size_t n = std::min<size_t>(rows.size(), kRows + 2 * pushes);
  for (size_t i = 0; i < n; ++i) db.AddTransaction(rows[i]);
  return db;
}

std::string BatchFingerprint(const std::vector<hgm::Bitset>& rows,
                             uint64_t pushes, size_t minsup) {
  hgm::TransactionDatabase db = Prefix(rows, pushes);
  hgm::ThreadPool inline_pool(1);
  hgm::AprioriOptions opts;
  opts.pool = &inline_pool;
  const hgm::AprioriResult r = hgm::MineFrequentSets(&db, minsup, opts);
  return hgm::serve::TheoryFingerprint(r.frequent, r.maximal,
                                       r.negative_border);
}

/// Every ok mine must equal a batch re-mine, and every support the exact
/// support, of some row prefix the session could hold while the request
/// was in flight.  \p rows is the WAL, i.e. the order pushes were applied.
void VerifyAnswers(const std::vector<hgm::Bitset>& rows,
                   uint64_t pushes_applied,
                   const std::vector<const Sample*>& answers,
                   RunResult* out) {
  using Key = std::pair<uint64_t, size_t>;
  // Batch re-mines of the earliest prefix each mine could have seen, in
  // parallel; later prefixes are mined on demand below.
  std::set<Key> wanted;
  for (const Sample* s : answers) {
    if (s->op == Op::kMine) {
      wanted.insert({std::min(s->lo, pushes_applied), s->minsup});
    }
  }
  const std::vector<Key> keys(wanted.begin(), wanted.end());
  std::vector<std::string> fingerprints(keys.size());
  {
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    JoinAll join{&workers};
    for (size_t w = 0; w < BenchThreads(4); ++w) {
      workers.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < keys.size();
             i = next.fetch_add(1)) {
          fingerprints[i] =
              BatchFingerprint(rows, keys[i].first, keys[i].second);
        }
      });
    }
  }
  std::map<Key, std::string> truth;
  for (size_t i = 0; i < keys.size(); ++i) truth[keys[i]] = fingerprints[i];

  hgm::TransactionDatabase base = Prefix(rows, 0);
  base.EnsureVerticalIndex();
  std::map<std::vector<size_t>, size_t> base_support;
  auto support_at = [&](const std::vector<size_t>& items, uint64_t pushes) {
    const hgm::Bitset set = hgm::Bitset::FromIndices(kItems, items);
    auto it = base_support.find(items);
    if (it == base_support.end()) {
      it = base_support.emplace(items, base.SupportVertical(set)).first;
    }
    size_t support = it->second;
    const size_t end = std::min<size_t>(rows.size(), kRows + 2 * pushes);
    for (size_t i = kRows; i < end; ++i) {
      if (set.IsSubsetOf(rows[i])) ++support;
    }
    return support;
  };

  for (const Sample* s : answers) {
    if (s->op == Op::kPush) continue;
    const uint64_t lo = std::min(s->lo, pushes_applied);
    const uint64_t hi = std::min(s->hi, pushes_applied);
    bool match = false;
    for (uint64_t j = lo; j <= hi && !match; ++j) {
      if (s->op == Op::kMine) {
        auto it = truth.find({j, s->minsup});
        if (it == truth.end()) {
          it = truth.emplace(Key{j, s->minsup},
                             BatchFingerprint(rows, j, s->minsup))
                   .first;
        }
        match = it->second == s->fingerprint;
      } else {
        match = static_cast<double>(support_at(s->itemset, j)) == s->support;
      }
    }
    out->Check(match, std::string("serve_mixed: a ") +
                          hgm::serve::OpName(s->op) +
                          " answer matches no row prefix the session could "
                          "hold: " + s->line.substr(0, 120));
  }
}

/// The registry identity: every request is admitted, shed, a control op,
/// or a parse error.
void CheckRequestIdentity(uint64_t control_ops, uint64_t client_requests,
                          RunResult* out) {
  const hgm::obs::MetricsSnapshot snap =
      hgm::obs::MetricsRegistry::Global().Snapshot();
  const uint64_t requests = snap.CounterValue("serve.requests");
  const uint64_t admitted = snap.CounterValue("serve.admitted");
  const uint64_t shed = snap.CounterValue("serve.shed");
  const uint64_t parse_errors = snap.CounterValue("serve.parse_errors");
  out->detail["serve.requests"] = static_cast<double>(requests);
  out->detail["serve.admitted"] = static_cast<double>(admitted);
  out->detail["serve.shed"] = static_cast<double>(shed);
  out->Check(requests == admitted + shed + control_ops + parse_errors,
             "serve_mixed: serve.requests " + std::to_string(requests) +
                 " != admitted " + std::to_string(admitted) + " + shed " +
                 std::to_string(shed) + " + control " +
                 std::to_string(control_ops) + " + parse_errors " +
                 std::to_string(parse_errors));
  out->Check(requests == client_requests + control_ops,
             "serve_mixed: the registry counted " + std::to_string(requests) +
                 " requests, the clients sent " +
                 std::to_string(client_requests + control_ops));
}

/// A mine answer rendered the way the server renders one: counts, the
/// Theorem 10 query bound and the fingerprint.
std::string RenderMine(const hgm::AprioriResult& r) {
  const double th = static_cast<double>(r.frequent.size());
  const double bd = static_cast<double>(r.negative_border.size());
  return hgm::serve::OkResponse(
      7, {{"frequent_count", JsonValue::Number(th)},
          {"maximal_count",
           JsonValue::Number(static_cast<double>(r.maximal.size()))},
          {"negative_border_count", JsonValue::Number(bd)},
          {"query_bound", JsonValue::Number(th + bd)},
          {"fingerprint",
           JsonValue::String(hgm::serve::TheoryFingerprint(
               r.frequent, r.maximal, r.negative_border))},
          {"evaluations", JsonValue::Number(0)},
          {"from_cache", JsonValue::Bool(true)}});
}

/// Replays \p ordered against a standalone Session with the WAL on: the
/// session layer's cost per request kind, with no server around it.
void ReplaySession(const Data& data, const std::vector<const Sample*>& ordered,
                   const std::string& dir,
                   std::map<std::string, std::vector<double>>* us,
                   RunResult* out) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const hgm::Result<hgm::serve::Request> open =
      hgm::serve::ParseRequest(data.open_line);
  out->Check(open.ok(), "serve_mixed: the open line does not parse");
  if (!open.ok()) return;
  hgm::serve::SessionOptions options;
  options.state_dir = dir;
  hgm::Result<std::unique_ptr<hgm::serve::Session>> opened =
      hgm::serve::Session::Open(open.value(), options);
  out->Check(opened.ok(), "serve_mixed: standalone Session::Open failed");
  if (!opened.ok()) return;
  {
    const std::unique_ptr<hgm::serve::Session> session =
        std::move(opened.value());
    hgm::ThreadPool inline_pool(1);
    const hgm::RunBudget unlimited;
    for (const Sample* s : ordered) {
      const Clock::time_point start = Clock::now();
      bool ok = false;
      std::string key;
      if (s->op == Op::kSupport) {
        ok = session->SupportOf(s->itemset).ok();
        key = "session.support";
      } else if (s->op == Op::kPush) {
        ok = session->Append(s->rows, unlimited, &inline_pool).ok();
        key = "session.append";
      } else {
        const hgm::Result<hgm::serve::MineAnswer> mined = session->Mine(
            s->minsup, 0, unlimited, &inline_pool, std::nullopt);
        ok = mined.ok();
        key = ok && mined.value().from_cache ? "session.mine_hit"
                                             : "session.mine_miss";
      }
      (*us)[key].push_back(UsSince(start));
      out->Check(ok, std::string("serve_mixed: session replay of a ") +
                         hgm::serve::OpName(s->op) + " request failed");
    }
  }
  fs::remove_all(dir);
}

/// The traced run's layer numbers: parse, render and session replays of
/// the traced requests, the queue wait as the named residual, and the
/// probes every workload reports.
void TraceLayers(const Data& data, const std::vector<Sample>& traced,
                 hgm::TransactionDatabase* final_db, double traced_ms,
                 double busy_ms, const std::string& replay_dir,
                 SpanLog* spans, int root, RunResult* out) {
  std::map<std::string, std::vector<double>> us;
  {
    ScopedSpan span(spans, "serve.parse_replay", root);
    for (const Sample& s : traced) {
      const Clock::time_point start = Clock::now();
      const bool parsed = hgm::serve::ParseRequest(s.line).ok();
      us[std::string("parse.") + hgm::serve::OpName(s.op)].push_back(
          UsSince(start));
      out->Check(parsed, "serve_mixed: a request line does not parse");
    }
  }
  hgm::ThreadPool pool(BenchThreads(2));
  hgm::AprioriOptions opts;
  opts.pool = &pool;
  hgm::AprioriResult replay_theory;
  {
    ScopedSpan span(spans, "serve.render_replay", root);
    for (size_t minsup : kThresholds) {
      hgm::AprioriResult r = hgm::MineFrequentSets(final_db, minsup, opts);
      for (int rep = 0; rep < 20; ++rep) {
        const Clock::time_point start = Clock::now();
        const std::string line = RenderMine(r);
        us["render.mine"].push_back(UsSince(start));
      }
      if (minsup == kReplayThreshold) replay_theory = std::move(r);
    }
    for (int rep = 0; rep < 200; ++rep) {
      Clock::time_point start = Clock::now();
      std::string line = hgm::serve::OkResponse(
          7, {{"support", JsonValue::Number(1234)}});
      us["render.support"].push_back(UsSince(start));
      start = Clock::now();
      line = hgm::serve::OkResponse(
          7, {{"consumed", JsonValue::Number(2)},
              {"boundaries", JsonValue::Array({})}});
      us["render.push"].push_back(UsSince(start));
    }
  }
  std::vector<const Sample*> ordered;
  size_t hits = 0, misses = 0;
  for (const Sample& s : traced) {
    if (!s.ok) continue;
    ordered.push_back(&s);
    if (s.op == Op::kMine) ++(s.from_cache ? hits : misses);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Sample* a, const Sample* b) {
              return a->done_order < b->done_order;
            });
  {
    ScopedSpan span(spans, "serve.session_replay", root);
    ReplaySession(data, ordered, replay_dir, &us, out);
  }

  // Level counting of the final session's theory at the middle threshold.
  CountingReplay counted;
  bool exact = false;
  {
    ScopedSpan span(spans, "counting.vertical", root);
    counted = ReplayTheory(final_db, replay_theory.frequent,
                           replay_theory.negative_border, kReplayThreshold,
                           &pool, &exact);
  }
  out->Check(exact, "serve_mixed: counting replay disagrees with Apriori");
  double kernel_ns = 0;
  {
    ScopedSpan span(spans, "common.kernel_probe", root);
    kernel_ns = KernelNsPerWord(final_db);
  }

  auto med_ms = [&](const std::string& key) {
    return Median(us[key]) / 1000.0;
  };
  struct Kind {
    const char* op;
    const char* parse;
    const char* session;
    const char* render;
  };
  const Kind kinds[] = {
      {"support", "parse.support", "session.support", "render.support"},
      {"mine_miss", "parse.mine", "session.mine_miss", "render.mine"},
      {"mine_hit", "parse.mine", "session.mine_hit", "render.mine"},
      {"push", "parse.push", "session.append", "render.push"},
  };
  double support_wait = 0;
  for (const Kind& k : kinds) {
    const std::string op = k.op;
    const double traced_p50 = out->OpMedian(op + ".traced");
    if (traced_p50 == 0 || us[k.session].empty()) continue;
    const double parse = med_ms(k.parse);
    const double session = med_ms(k.session);
    const double render = med_ms(k.render);
    const double wait = traced_p50 - parse - session - render;
    if (op == "support") support_wait = wait;
    const std::string group = op + "_p50_ms|";
    out->ladder.push_back({group + "serve.parse", parse});
    out->ladder.push_back({group + k.session, session});
    out->ladder.push_back({group + "serve.render", render});
    out->ladder.push_back({group + "serve.queue_wait (residual)", wait});
    out->ladder.push_back({group + "traced", traced_p50});
    out->ladder.push_back({group + "untraced", out->OpMedian(op)});
  }

  const double support_traced = out->OpMedian("support.traced");
  out->layers["common.kernel_ns_per_word"] = kernel_ns;
  out->layers["common.pool_busy_share"] =
      busy_ms / (traced_ms * static_cast<double>(kWorkers));
  out->layers["counting.vertical_ms"] = counted.ms;
  out->layers["counting.sets"] = static_cast<double>(counted.sets);
  out->layers["miner.evaluations"] =
      static_cast<double>(replay_theory.support_counts.load());
  out->layers["miner.reuse_share"] =
      hits + misses > 0 ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0;
  out->layers["ladder.residual_share"] = support_wait / support_traced;
  out->layers["obs.trace_overhead_share"] =
      support_traced / out->OpMedian("support");

  std::vector<double> parse_all;
  for (const char* key : {"parse.support", "parse.mine", "parse.push"}) {
    parse_all.insert(parse_all.end(), us[key].begin(), us[key].end());
  }
  out->detail["serve.parse_us"] = Median(parse_all);
  out->detail["serve.render_us"] = Median(us["render.mine"]);
  out->detail["session.support_us"] = Median(us["session.support"]);
  out->detail["session.mine_hit_us"] = Median(us["session.mine_hit"]);
  out->detail["session.mine_miss_ms"] = med_ms("session.mine_miss");
  out->detail["session.append_us"] = Median(us["session.append"]);
  out->detail["serve.queue_wait_ms"] = support_wait;
  out->detail["serve.mine_cache_hit_share"] = out->layers["miner.reuse_share"];
}

}  // namespace

void RunServeMixed(const RunArgs& args, SpanLog* spans, RunResult* out) {
  const std::string base_dir =
      args.scratch_dir + "/serve-" + std::to_string(::getpid());
  Data data;
  Service service;
  // As TimeSetup, but the previous set-up's server is drained and its
  // state removed outside the timed region.
  const Clock::time_point first = Clock::now();
  for (int rep = 0; rep < 100 && (rep < 3 || MsSince(first) < 1000.0);
       ++rep) {
    service.server.reset();
    if (!service.dir.empty()) fs::remove_all(service.dir);
    const Clock::time_point start = Clock::now();
    data = MakeData(args.seed);
    service =
        StartService(base_dir + "/setup" + std::to_string(rep), data.open_line);
    out->setup_s.push_back(MsSince(start) / 1000.0);
  }
  hgm::serve::Server* server = service.server.get();

  // Count from here: every request below is a client request or one of
  // the control ops sent through `control`.
  hgm::obs::MetricsRegistry::Global().Reset();
  uint64_t control_ops = 0;
  auto control = [&](const char* op) {
    ++control_ops;
    const std::string r =
        server->Handle(std::string("{\"op\":\"") + op + "\",\"id\":2}");
    out->Check(r.find("\"ok\":true") != std::string::npos,
               std::string("serve_mixed: control op ") + op + " failed");
  };
  control("ping");

  Shared shared;
  const double budget_ms = args.seconds * 1000.0 / (spans ? 3.0 : 1.0);
  Clock::time_point start = Clock::now();
  const std::vector<Sample> untraced =
      RunClients(server, data, &shared, 2 * args.seed, budget_ms, nullptr, -1);
  const double untraced_ms = MsSince(start);
  RecordSamples(untraced, "", out);
  out->work_units += static_cast<double>(untraced.size());
  out->work_seconds += untraced_ms / 1000.0;

  std::vector<Sample> traced;
  double traced_ms = 0;
  double busy_ms = 0;
  int root = -1;
  if (spans != nullptr) {
    root = spans->Begin("serve_mixed", -1);
    const uint64_t busy_before = PoolBusyUs();
    start = Clock::now();
    traced = RunClients(server, data, &shared, 2 * args.seed + 1, budget_ms,
                        spans, root);
    traced_ms = MsSince(start);
    busy_ms = static_cast<double>(PoolBusyUs() - busy_before) / 1000.0;
    RecordSamples(traced, ".traced", out);
  }
  control("stats");
  CheckRequestIdentity(control_ops, untraced.size() + traced.size(), out);
  service.server.reset();  // drain: every acknowledged row is in the WAL

  uint64_t pushes = 0;
  std::vector<const Sample*> answers;
  const std::vector<Sample>* phases[] = {&untraced, &traced};
  for (const std::vector<Sample>* phase : phases) {
    for (const Sample& s : *phase) {
      if (!s.ok) continue;
      answers.push_back(&s);
      if (s.op == Op::kPush) ++pushes;
    }
  }
  hgm::Result<hgm::TransactionDatabase> wal =
      hgm::TransactionDatabase::LoadBasketFile(
          service.dir + "/" + kSession + ".wal", kItems);
  out->Check(wal.ok(), "serve_mixed: the session WAL does not load");
  if (wal.ok()) {
    const std::vector<hgm::Bitset>& rows = wal.value().rows();
    out->Check(rows.size() == kRows + 2 * pushes,
               "serve_mixed: the WAL holds " + std::to_string(rows.size()) +
                   " rows, expected " + std::to_string(kRows + 2 * pushes));
    out->Check(rows.size() >= kRows &&
                   std::equal(data.opened.begin(), data.opened.end(),
                              rows.begin()),
               "serve_mixed: the WAL does not start with the opened rows");
    VerifyAnswers(rows, pushes, answers, out);
    out->detail["serve.pushes"] = static_cast<double>(pushes);
    if (spans != nullptr) {
      TraceLayers(data, traced, &wal.value(), traced_ms, busy_ms,
                  base_dir + "/replay", spans, root, out);
    }
  }
  if (spans != nullptr) spans->End(root);
  fs::remove_all(base_dir);
}

}  // namespace perfbench
