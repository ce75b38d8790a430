// Unit tests for the serving layer: wire-protocol parsing/rendering,
// the admission ledger's shed/refund arithmetic, session semantics
// (mine cache, parked partial mines, WAL recovery, stream boundaries),
// and the server's control ops + drain state machine.  The seeded soak
// that crosses these layers under faults lives in serve_chaos_test.cc.

#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "common/run_budget.h"
#include "common/thread_pool.h"
#include "mining/apriori.h"
#include "mining/rules.h"
#include "mining/transaction_db.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"

namespace hgm {
namespace serve {
namespace {

// Figure 1 of the paper: 5 rows over 4 items.
const std::vector<std::vector<size_t>> kFig1 = {
    {0, 1, 2}, {0, 1, 2}, {1, 3}, {1, 3}, {0, 3}};

std::string Fig1RowsJson() { return "[[0,1,2],[0,1,2],[1,3],[1,3],[0,3]]"; }

std::string Fig1Fingerprint(size_t min_support) {
  TransactionDatabase db = TransactionDatabase::FromRows(4, kFig1);
  AprioriResult truth = MineFrequentSets(&db, min_support);
  return TheoryFingerprint(truth.frequent, truth.maximal,
                           truth.negative_border);
}

/// A scratch state dir under /tmp, unique per test.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    path_ = "/tmp/hgmine_serve_test_" + tag;
    std::string cmd = "rm -rf " + path_ + " && mkdir -p " + path_;
    EXPECT_EQ(std::system(cmd.c_str()), 0);
  }
  ~ScratchDir() {
    std::string cmd = "rm -rf " + path_;
    (void)std::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---- protocol ----------------------------------------------------------

TEST(ServeProtocolTest, ParsesAMineRequestCompletely) {
  auto r = ParseRequest(
      "{\"op\":\"mine\",\"id\":7,\"session\":\"s1\",\"min_support\":2,"
      "\"shards\":3,\"deadline_ms\":250,\"full\":true,"
      "\"chaos_seed\":99,\"chaos_rate\":0.25}");
  ASSERT_TRUE(r.ok()) << r.status().message();
  const Request& req = r.value();
  EXPECT_EQ(req.op, Op::kMine);
  EXPECT_EQ(req.id, 7u);
  EXPECT_EQ(req.session, "s1");
  EXPECT_EQ(req.min_support, 2u);
  EXPECT_EQ(req.shards, 3u);
  EXPECT_EQ(req.deadline_ms, 250u);
  EXPECT_TRUE(req.full);
  ASSERT_TRUE(req.chaos_seed.has_value());
  EXPECT_EQ(*req.chaos_seed, 99u);
  EXPECT_DOUBLE_EQ(req.chaos_rate, 0.25);
}

TEST(ServeProtocolTest, RejectsMalformedRequests) {
  // Every rejection is a Status, never UB; each names the bad field.
  EXPECT_FALSE(ParseRequest("not json at all").ok());
  EXPECT_FALSE(ParseRequest("[1,2,3]").ok());
  EXPECT_FALSE(ParseRequest("{\"op\":\"fly\",\"id\":1}").ok());
  EXPECT_FALSE(  // session names are [A-Za-z0-9._-], no leading dot
      ParseRequest("{\"op\":\"open\",\"id\":1,\"session\":\"../etc\"}").ok());
  EXPECT_FALSE(  // oversized line
      ParseRequest(std::string(kMaxRequestBytes + 1, ' ')).ok());
  EXPECT_FALSE(  // declared universe over the cap
      ParseRequest("{\"op\":\"open\",\"id\":1,\"session\":\"s\","
                   "\"items\":9999999,\"rows\":[[0]]}")
          .ok());
  EXPECT_FALSE(  // stream slide must not exceed window
      ParseRequest("{\"op\":\"open\",\"id\":1,\"session\":\"s\","
                   "\"items\":3,\"stream\":{\"min_support\":1,"
                   "\"window\":2,\"slide\":5}}")
          .ok());
  EXPECT_FALSE(  // negative item index
      ParseRequest("{\"op\":\"support\",\"id\":1,\"session\":\"s\","
                   "\"itemset\":[-1]}")
          .ok());
  EXPECT_FALSE(  // chaos_rate outside [0,1]
      ParseRequest("{\"op\":\"mine\",\"id\":1,\"session\":\"s\","
                   "\"min_support\":1,\"chaos_seed\":1,\"chaos_rate\":1.5}")
          .ok());
}

TEST(ServeProtocolTest, ResponsesRenderTheContractedShape) {
  const std::string ok =
      OkResponse(4, {{"pong", obs::JsonValue::Bool(true)}});
  EXPECT_EQ(ok, "{\"id\":4,\"ok\":true,\"pong\":true}");

  const std::string shed =
      ErrorResponse(9, Status::Unavailable("shed: queue_full"), 120);
  EXPECT_NE(shed.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(shed.find("\"code\":\"unavailable\""), std::string::npos);
  EXPECT_NE(shed.find("\"retry_after_ms\":120"), std::string::npos);

  // Plain errors do not carry a retry hint.
  const std::string plain = ErrorResponse(2, Status::NotFound("no session"));
  EXPECT_EQ(plain.find("retry_after_ms"), std::string::npos);
  EXPECT_NE(plain.find("\"code\":\"not_found\""), std::string::npos);
}

TEST(ServeProtocolTest, FingerprintSeparatesDifferentTheories) {
  TransactionDatabase db = TransactionDatabase::FromRows(4, kFig1);
  AprioriResult at2 = MineFrequentSets(&db, 2);
  AprioriResult at3 = MineFrequentSets(&db, 3);
  const std::string fp2 =
      TheoryFingerprint(at2.frequent, at2.maximal, at2.negative_border);
  const std::string fp3 =
      TheoryFingerprint(at3.frequent, at3.maximal, at3.negative_border);
  EXPECT_EQ(fp2.size(), 16u);
  EXPECT_NE(fp2, fp3);
  // Deterministic across recomputation.
  AprioriResult again = MineFrequentSets(&db, 2);
  EXPECT_EQ(fp2, TheoryFingerprint(again.frequent, again.maximal,
                                   again.negative_border));
}

// ---- admission ---------------------------------------------------------

TEST(ServeAdmissionTest, ShedsOnQueueOverflowAndRefundsOnFinish) {
  AdmissionConfig config;
  config.max_queue = 2;
  config.max_inflight_ms = 1u << 20;
  AdmissionController admission(config);

  AdmissionDecision a = admission.TryAdmit(100);
  AdmissionDecision b = admission.TryAdmit(100);
  ASSERT_TRUE(a.admitted && b.admitted);
  AdmissionDecision c = admission.TryAdmit(100);
  EXPECT_FALSE(c.admitted);
  EXPECT_STREQ(c.shed_reason, "queue_full");
  EXPECT_GE(c.retry_after_ms, 10u);  // floor: clients never spin at zero

  admission.OnFinish(a.budget_ms, 1000);
  AdmissionDecision d = admission.TryAdmit(100);
  EXPECT_TRUE(d.admitted);
  admission.OnFinish(b.budget_ms, 1000);
  admission.OnFinish(d.budget_ms, 1000);
  EXPECT_EQ(admission.admitted_inflight(), 0u);
  EXPECT_EQ(admission.inflight_ms(), 0u);
}

TEST(ServeAdmissionTest, DeadlinesAreDefaultedAndClamped) {
  AdmissionConfig config;
  config.default_deadline_ms = 750;
  config.max_deadline_ms = 1000;
  AdmissionController admission(config);

  AdmissionDecision by_default = admission.TryAdmit(0);
  EXPECT_EQ(by_default.budget_ms, 750u);
  AdmissionDecision clamped = admission.TryAdmit(999999);
  EXPECT_EQ(clamped.budget_ms, 1000u);  // clamped, not rejected
  admission.OnFinish(by_default.budget_ms, 1000);
  admission.OnFinish(clamped.budget_ms, 1000);
}

TEST(ServeAdmissionTest, ShedsOnInflightBudgetExhaustion) {
  AdmissionConfig config;
  config.max_queue = 100;
  config.max_inflight_ms = 1000;
  config.max_deadline_ms = 1000;
  AdmissionController admission(config);

  AdmissionDecision a = admission.TryAdmit(900);
  ASSERT_TRUE(a.admitted);
  AdmissionDecision b = admission.TryAdmit(900);
  EXPECT_FALSE(b.admitted);
  EXPECT_STREQ(b.shed_reason, "inflight_budget");
  admission.OnFinish(a.budget_ms, 1000);
  EXPECT_TRUE(admission.TryAdmit(900).admitted);
}

TEST(ServeAdmissionTest, DrainingShedsEverythingNew) {
  AdmissionController admission(AdmissionConfig{});
  AdmissionDecision before = admission.TryAdmit(100);
  ASSERT_TRUE(before.admitted);
  admission.CloseAdmissions();
  AdmissionDecision after = admission.TryAdmit(100);
  EXPECT_FALSE(after.admitted);
  EXPECT_STREQ(after.shed_reason, "draining");
  // In-flight work still finishes and refunds after the close.
  admission.OnFinish(before.budget_ms, 1000);
  EXPECT_EQ(admission.admitted_inflight(), 0u);
}

TEST(ServeAdmissionTest, RetryAfterFollowsMeasuredServiceTime) {
  AdmissionConfig config;  // 2 s default deadline, 2 workers
  AdmissionController admission(config);
  auto fill = [&](std::vector<AdmissionDecision>* held) {
    for (;;) {
      AdmissionDecision d = admission.TryAdmit(0);
      if (!d.admitted) return d;
      held->push_back(d);
    }
  };
  // Before any request has finished there is no service time to go by.
  std::vector<AdmissionDecision> held;
  EXPECT_EQ(fill(&held).retry_after_ms, 10u);
  // Requests that ran for ~1 ms each: the admitted ones drain in
  // |held| * 1 ms / 2 workers, not in their summed 2 s deadlines.
  for (const AdmissionDecision& d : held) {
    admission.OnFinish(d.budget_ms, 1000);
  }
  held.clear();
  AdmissionDecision shed = fill(&held);
  EXPECT_FALSE(shed.admitted);
  EXPECT_GE(held.size(), 10u);
  EXPECT_LE(shed.retry_after_ms, 50u);
  for (const AdmissionDecision& d : held) {
    admission.OnFinish(d.budget_ms, 1000);
  }
}

// ---- session -----------------------------------------------------------

Request OpenRequest(const std::string& session) {
  Request req;
  req.op = Op::kOpen;
  req.session = session;
  req.num_items = 4;
  req.rows = kFig1;
  return req;
}

TEST(ServeSessionTest, MinesCachesAndServesSupport) {
  ThreadPool pool(1);
  auto opened = Session::Open(OpenRequest("batch"), SessionOptions{});
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  Session& session = *opened.value();

  auto first = session.Mine(2, 0, RunBudget{}, &pool, std::nullopt);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().degraded);
  EXPECT_FALSE(first.value().from_cache);
  EXPECT_GT(first.value().evaluations, 0u);
  const std::string fp =
      TheoryFingerprint(first.value().frequent, first.value().maximal,
                        first.value().negative_border);
  EXPECT_EQ(fp, Fig1Fingerprint(2));

  auto second = session.Mine(2, 0, RunBudget{}, &pool, std::nullopt);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().from_cache);
  EXPECT_EQ(second.value().evaluations, 0u);
  EXPECT_EQ(TheoryFingerprint(second.value().frequent,
                              second.value().maximal,
                              second.value().negative_border),
            fp);

  auto support = session.SupportOf({0, 1});
  ASSERT_TRUE(support.ok());
  EXPECT_EQ(support.value(), 2u);  // {0,1} appears in rows 0 and 1
  EXPECT_FALSE(session.SupportOf({17}).ok());  // outside the universe
}

TEST(ServeSessionTest, TrippedMineParksAndResumesBitIdentically) {
  ThreadPool pool(1);
  auto opened = Session::Open(OpenRequest("trip"), SessionOptions{});
  ASSERT_TRUE(opened.ok());
  Session& session = *opened.value();

  RunBudget tiny;
  tiny.max_queries = 3;  // trips inside the first levels
  auto partial = session.Mine(2, 0, tiny, &pool, std::nullopt);
  ASSERT_TRUE(partial.ok());
  ASSERT_TRUE(partial.value().degraded);
  EXPECT_EQ(partial.value().stop_reason, StopReason::kQueryBudget);

  auto resumed = session.Mine(2, 0, RunBudget{}, &pool, std::nullopt);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed.value().resumed);
  EXPECT_FALSE(resumed.value().degraded);
  EXPECT_EQ(TheoryFingerprint(resumed.value().frequent,
                              resumed.value().maximal,
                              resumed.value().negative_border),
            Fig1Fingerprint(2));
}

TEST(ServeSessionTest, RulesMatchTheBatchRuleGenerator) {
  ThreadPool pool(1);
  auto opened = Session::Open(OpenRequest("rules"), SessionOptions{});
  ASSERT_TRUE(opened.ok());
  MineAnswer answer;
  auto rules =
      opened.value()->Rules(2, 0.6, RunBudget{}, &pool, &answer);
  ASSERT_TRUE(rules.ok()) << rules.status().message();
  EXPECT_FALSE(answer.degraded);

  TransactionDatabase db = TransactionDatabase::FromRows(4, kFig1);
  AprioriResult truth = MineFrequentSets(&db, 2);
  auto want = GenerateRules(truth, db.num_transactions(), 0.6);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(rules.value().size(), want.value().size());
  for (size_t i = 0; i < want.value().size(); ++i) {
    EXPECT_EQ(rules.value()[i].antecedent, want.value()[i].antecedent);
    EXPECT_EQ(rules.value()[i].consequent, want.value()[i].consequent);
    EXPECT_EQ(rules.value()[i].support, want.value()[i].support);
    EXPECT_DOUBLE_EQ(rules.value()[i].confidence,
                     want.value()[i].confidence);
  }
}

TEST(ServeSessionTest, RecoversBatchSessionFromWalAlone) {
  ScratchDir dir("batch_recover");
  ThreadPool pool(1);
  SessionOptions options;
  options.state_dir = dir.path();

  std::string fp;
  {
    auto opened = Session::Open(OpenRequest("r1"), options);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    auto push = opened.value()->Append({{0, 3}}, RunBudget{}, &pool);
    ASSERT_TRUE(push.ok());
    EXPECT_EQ(push.value().consumed, 1u);
    auto mined = opened.value()->Mine(2, 0, RunBudget{}, &pool,
                                      std::nullopt);
    ASSERT_TRUE(mined.ok());
    fp = TheoryFingerprint(mined.value().frequent, mined.value().maximal,
                           mined.value().negative_border);
    // No SaveWarm: destruction without checkpointing is the kill -9
    // shape — the WAL alone must carry the session.
  }
  auto recovered = Session::Recover("r1", options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  auto mined = recovered.value()->Mine(2, 0, RunBudget{}, &pool,
                                       std::nullopt);
  ASSERT_TRUE(mined.ok());
  EXPECT_FALSE(mined.value().from_cache);  // no warm state survived
  EXPECT_EQ(TheoryFingerprint(mined.value().frequent,
                              mined.value().maximal,
                              mined.value().negative_border),
            fp);
  auto support = recovered.value()->SupportOf({3});
  ASSERT_TRUE(support.ok());
  EXPECT_EQ(support.value(), 4u);  // 3 original rows + the appended one
}

TEST(ServeSessionTest, WarmCheckpointServesRecoveredMinesFromCache) {
  ScratchDir dir("warm");
  ThreadPool pool(1);
  SessionOptions options;
  options.state_dir = dir.path();

  std::string fp;
  {
    auto opened = Session::Open(OpenRequest("w1"), options);
    ASSERT_TRUE(opened.ok());
    auto mined = opened.value()->Mine(2, 0, RunBudget{}, &pool,
                                      std::nullopt);
    ASSERT_TRUE(mined.ok());
    fp = TheoryFingerprint(mined.value().frequent, mined.value().maximal,
                           mined.value().negative_border);
    ASSERT_TRUE(opened.value()->SaveWarm().ok());
  }
  auto recovered = Session::Recover("w1", options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  auto mined = recovered.value()->Mine(2, 0, RunBudget{}, &pool,
                                       std::nullopt);
  ASSERT_TRUE(mined.ok());
  EXPECT_TRUE(mined.value().from_cache);  // adopted, not re-mined
  EXPECT_EQ(TheoryFingerprint(mined.value().frequent,
                              mined.value().maximal,
                              mined.value().negative_border),
            fp);
}

TEST(ServeSessionTest, StreamSessionAnswersBoundariesLikeBatch) {
  ThreadPool pool(1);
  Request req;
  req.op = Op::kOpen;
  req.session = "stream";
  req.num_items = 4;
  StreamSpec spec;
  spec.min_support = 2;
  spec.window_rows = 4;
  spec.slide_rows = 4;
  req.stream = spec;
  auto opened = Session::Open(req, SessionOptions{});
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  Session& session = *opened.value();
  EXPECT_TRUE(session.is_stream());

  auto push = session.Append({{0, 1, 2}, {0, 1, 2}, {1, 3}, {1, 3}},
                             RunBudget{}, &pool);
  ASSERT_TRUE(push.ok()) << push.status().message();
  EXPECT_EQ(push.value().consumed, 4u);
  ASSERT_EQ(push.value().boundaries.size(), 1u);
  const StreamWindowResult& boundary = push.value().boundaries[0];

  TransactionDatabase window = TransactionDatabase::FromRows(
      4, {{0, 1, 2}, {0, 1, 2}, {1, 3}, {1, 3}});
  AprioriResult truth = MineFrequentSets(&window, 2);
  EXPECT_EQ(TheoryFingerprint(boundary.frequent, boundary.maximal,
                              boundary.negative_border),
            TheoryFingerprint(truth.frequent, truth.maximal,
                              truth.negative_border));
}

// ---- server ------------------------------------------------------------

TEST(ServeServerTest, ControlOpsAndDataOpsRoundTrip) {
  ServerConfig config;
  config.workers = 1;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());

  EXPECT_NE(server.Handle("{\"op\":\"ping\",\"id\":1}").find(
                "\"pong\":true"),
            std::string::npos);
  // Unknown session: typed not_found, not a crash.
  EXPECT_NE(server
                .Handle("{\"op\":\"mine\",\"id\":2,\"session\":\"nope\","
                        "\"min_support\":2}")
                .find("\"code\":\"not_found\""),
            std::string::npos);
  // Garbage line: typed invalid_argument.
  EXPECT_NE(server.Handle("garbage").find("\"code\":\"invalid_argument\""),
            std::string::npos);

  const std::string open = server.Handle(
      "{\"op\":\"open\",\"id\":3,\"session\":\"s\",\"items\":4,"
      "\"rows\":" +
      Fig1RowsJson() + "}");
  EXPECT_NE(open.find("\"ok\":true"), std::string::npos);
  const std::string mine = server.Handle(
      "{\"op\":\"mine\",\"id\":4,\"session\":\"s\",\"min_support\":2}");
  EXPECT_NE(mine.find("\"fingerprint\":\"" + Fig1Fingerprint(2) + "\""),
            std::string::npos);
  const std::string stats = server.Handle("{\"op\":\"stats\",\"id\":5}");
  EXPECT_NE(stats.find("\"name\":\"s\""), std::string::npos);
  const std::string scrape = server.Handle("{\"op\":\"scrape\",\"id\":6}");
  EXPECT_NE(scrape.find("serve_requests"), std::string::npos);

  server.Drain();
  EXPECT_GE(server.requests_handled(), 2u);
}

// A closed-loop client sends its next request the moment it reads a
// reply.  The worker must settle the admission ledger and the handled
// count before replying, or that request is shed against the slot of the
// one just answered.  Submitting from inside done() is the tightest loop.
TEST(ServeServerTest, ReplyFollowsTheAdmissionRelease) {
  ServerConfig config;
  config.workers = 1;
  config.admission.max_queue = 1;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server
                .Handle("{\"op\":\"open\",\"id\":1,\"session\":\"s\","
                        "\"items\":4,\"rows\":" +
                        Fig1RowsJson() + "}")
                .find("\"ok\":true"),
            std::string::npos);

  const std::string support =
      "{\"session\":\"s\",\"op\":\"support\",\"itemset\":[1,3],\"id\":";
  std::promise<std::string> second;
  std::future<std::string> second_reply = second.get_future();
  uint64_t handled_at_first_reply = 0;
  server.Submit(support + "2}", [&](std::string) {
    handled_at_first_reply = server.requests_handled();
    server.Submit(support + "3}", [&](std::string response) {
      second.set_value(std::move(response));
    });
  });
  const std::string reply = second_reply.get();
  EXPECT_EQ(reply.find("queue_full"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"support\":2"), std::string::npos) << reply;
  EXPECT_EQ(handled_at_first_reply, 2u);  // the open and the first support
  server.Drain();
}

TEST(ServeServerTest, ShutdownRequestClosesAdmissions) {
  ServerConfig config;
  config.workers = 1;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());

  EXPECT_NE(server.Handle("{\"op\":\"shutdown\",\"id\":1}")
                .find("\"draining\":true"),
            std::string::npos);
  EXPECT_TRUE(server.draining());
  // Data ops after the shutdown shed with the typed draining reason.
  const std::string shed = server.Handle(
      "{\"op\":\"mine\",\"id\":2,\"session\":\"s\",\"min_support\":2}");
  EXPECT_NE(shed.find("\"code\":\"unavailable\""), std::string::npos);
  EXPECT_NE(shed.find("draining"), std::string::npos);
  // Control ops still answer while draining.
  EXPECT_NE(server.Handle("{\"op\":\"ping\",\"id\":3}").find("pong"),
            std::string::npos);
  server.Drain();
}

TEST(ServeServerTest, DrainWritesTheFinalServeReport) {
  ScratchDir dir("report");
  ServerConfig config;
  config.workers = 1;
  config.final_report_path = dir.path() + "/final.json";
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  (void)server.Handle("{\"op\":\"ping\",\"id\":1}");
  server.Drain();

  std::FILE* f = std::fopen(config.final_report_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text(1 << 16, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  EXPECT_NE(text.find("\"schema\": \"hgm.run_report\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\": \"serve\""), std::string::npos);
  EXPECT_NE(text.find("\"requests_handled\""), std::string::npos);
}

TEST(ServeServerTest, DeadlineTurnsLongRequestsIntoCertifiedPartials) {
  ServerConfig config;
  config.workers = 1;
  config.enable_test_ops = true;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  // A sleep longer than its deadline: the budget trips at a slice
  // boundary and the response is degraded, not wedged or dropped.
  const std::string r = server.Handle(
      "{\"op\":\"sleep\",\"id\":1,\"ms\":5000,\"deadline_ms\":50}");
  EXPECT_NE(r.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(r.find("\"stop_reason\":\"deadline\""), std::string::npos);
  server.Drain();
}

}  // namespace
}  // namespace serve
}  // namespace hgm
