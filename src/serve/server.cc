#include "serve/server.h"

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"

namespace hgm {
namespace serve {

namespace {

using obs::JsonValue;
using SteadyClock = std::chrono::steady_clock;

uint64_t MsSince(SteadyClock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          SteadyClock::now() - start)
          .count());
}

JsonValue SetsToJson(const std::vector<Bitset>& sets) {
  std::vector<JsonValue> arr;
  arr.reserve(sets.size());
  for (const Bitset& s : sets) arr.push_back(ItemsetToJson(s));
  return JsonValue::Array(std::move(arr));
}

JsonValue FrequentToJson(const std::vector<FrequentItemset>& frequent) {
  std::vector<JsonValue> arr;
  arr.reserve(frequent.size());
  for (const FrequentItemset& f : frequent) {
    arr.push_back(JsonValue::Object(
        {{"items", ItemsetToJson(f.items)},
         {"support", JsonValue::Number(static_cast<double>(f.support))}}));
  }
  return JsonValue::Array(std::move(arr));
}

/// Shared renderer for mine/border answers: counts + fingerprint always,
/// degradation flags when set, full sets on request.
void AppendAnswerFields(
    const MineAnswer& a, bool full,
    std::vector<std::pair<std::string, JsonValue>>* fields) {
  fields->emplace_back(
      "frequent_count",
      JsonValue::Number(static_cast<double>(a.frequent.size())));
  fields->emplace_back(
      "maximal_count",
      JsonValue::Number(static_cast<double>(a.maximal.size())));
  fields->emplace_back("negative_border_count",
                       JsonValue::Number(static_cast<double>(
                           a.negative_border.size())));
  // Theorem 10: |Th ∪ Bd-(Th)| prices the whole conversation with the
  // oracle; clients use it to compare serve answers with batch runs.
  fields->emplace_back(
      "query_bound",
      JsonValue::Number(static_cast<double>(a.frequent.size() +
                                            a.negative_border.size())));
  fields->emplace_back(
      "fingerprint",
      JsonValue::String(TheoryFingerprint(a.frequent, a.maximal,
                                          a.negative_border)));
  fields->emplace_back(
      "evaluations",
      JsonValue::Number(static_cast<double>(a.evaluations)));
  if (a.from_cache) fields->emplace_back("from_cache", JsonValue::Bool(true));
  if (a.resumed) fields->emplace_back("resumed", JsonValue::Bool(true));
  if (a.degraded) {
    fields->emplace_back("degraded", JsonValue::Bool(true));
    fields->emplace_back("stop_reason",
                         JsonValue::String(StopReasonName(a.stop_reason)));
  }
  if (!a.failed_shards.empty()) {
    std::vector<JsonValue> shards;
    for (size_t s : a.failed_shards) {
      shards.push_back(JsonValue::Number(static_cast<double>(s)));
    }
    fields->emplace_back("failed_shards",
                         JsonValue::Array(std::move(shards)));
  }
  if (a.shard_retries > 0) {
    fields->emplace_back(
        "shard_retries",
        JsonValue::Number(static_cast<double>(a.shard_retries)));
  }
  if (full) {
    fields->emplace_back("frequent", FrequentToJson(a.frequent));
    fields->emplace_back("maximal", SetsToJson(a.maximal));
    fields->emplace_back("negative_border",
                         SetsToJson(a.negative_border));
  }
}

JsonValue BoundaryToJson(const StreamWindowResult& r, bool full) {
  std::vector<std::pair<std::string, JsonValue>> fields;
  fields.emplace_back(
      "window", JsonValue::Number(static_cast<double>(r.window_index)));
  fields.emplace_back(
      "rows", JsonValue::Number(static_cast<double>(r.rows_in_window)));
  MineAnswer a;
  a.frequent = r.frequent;
  a.maximal = r.maximal;
  a.negative_border = r.negative_border;
  a.evaluations = r.evaluations;
  AppendAnswerFields(a, full, &fields);
  fields.emplace_back("reused",
                      JsonValue::Number(static_cast<double>(r.reused)));
  fields.emplace_back("promoted",
                      JsonValue::Number(static_cast<double>(r.promoted)));
  fields.emplace_back("demoted",
                      JsonValue::Number(static_cast<double>(r.demoted)));
  return JsonValue::Object(std::move(fields));
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)), admission_([&] {
        AdmissionConfig a = config_.admission;
        a.workers = config_.workers == 0 ? 1 : config_.workers;
        return a;
      }()) {
  session_options_.state_dir = config_.state_dir;
  session_options_.shard_retry = config_.shard_retry;
}

Server::~Server() {
  if (!drained_) Drain();
}

Status Server::Start() {
  {
    MutexLock lock(mu_);
    if (started_) return Status::FailedPrecondition("Start called twice");
    started_ = true;
  }
  obs::EnableMetrics(true);
  start_time_ = SteadyClock::now();

  for (const std::string& name : config_.recover_sessions) {
    Result<std::shared_ptr<Session>> recovered =
        FindSession(name, /*recover_missing=*/true);
    if (!recovered.ok()) return recovered.status();
  }

  const size_t workers = config_.workers == 0 ? 1 : config_.workers;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  watchdog_ = std::thread([this] { WatchdogLoop(); });
  if (config_.checkpoint_interval_ms > 0 && !config_.state_dir.empty()) {
    checkpointer_ = std::thread([this] { CheckpointerLoop(); });
  }
  return Status::OK();
}

void Server::Submit(std::string line,
                    std::function<void(std::string)> done) {
  HGM_OBS_COUNT("serve.requests", 1);
  Result<Request> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    HGM_OBS_COUNT("serve.parse_errors", 1);
    done(ErrorResponse(0, parsed.status()));
    return;
  }
  const Request& req = parsed.value();

  const bool control =
      req.op == Op::kPing || req.op == Op::kStats ||
      req.op == Op::kScrape || req.op == Op::kCheckpoint ||
      req.op == Op::kShutdown || req.op == Op::kClose;
  if (control) {
    done(HandleControl(req));
    return;
  }

  AdmissionDecision decision = admission_.TryAdmit(req.deadline_ms);
  if (!decision.admitted) {
    HGM_OBS_COUNT("serve.shed", 1);
    done(ErrorResponse(
        req.id,
        Status::Unavailable(std::string("shed: ") + decision.shed_reason),
        decision.retry_after_ms));
    return;
  }
  HGM_OBS_COUNT("serve.admitted", 1);

  QueueItem item;
  item.request = std::move(parsed.value());
  item.done = std::move(done);
  item.budget_ms = decision.budget_ms;
  item.deadline =
      SteadyClock::now() + std::chrono::milliseconds(decision.budget_ms);
  item.cancel = std::make_shared<CancellationSource>();
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(item));
    HGM_OBS_GAUGE_SET("serve.queue_depth", queue_.size());
  }
  queue_cv_.NotifyAll();
}

std::string Server::Handle(const std::string& line) {
  struct Waiter {
    Mutex mu;
    CondVar cv;
    bool ready HGM_GUARDED_BY(mu) = false;
    std::string response HGM_GUARDED_BY(mu);
  };
  auto waiter = std::make_shared<Waiter>();
  Submit(line, [waiter](std::string response) {
    MutexLock lock(waiter->mu);
    waiter->response = std::move(response);
    waiter->ready = true;
    waiter->cv.NotifyAll();
  });
  MutexLock lock(waiter->mu);
  // The predicate reads guarded members; CondVar::Wait always runs it
  // with mu held, but the lambda is opaque to the analysis.
  waiter->cv.Wait(waiter->mu, [&]() HGM_NO_THREAD_SAFETY_ANALYSIS {
    return waiter->ready;
  });
  return waiter->response;
}

bool Server::draining() const { return admission_.closed(); }

void Server::BeginDrain() { admission_.CloseAdmissions(); }

void Server::Drain() {
  if (drained_) return;
  drained_ = true;
  BeginDrain();
  {
    MutexLock lock(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  queue_cv_.NotifyAll();
  JoinThreads();
  // Final checkpoint of every session, then the drain report — the
  // graceful half of the crash-recovery contract.
  Status cs = CheckpointAll();
  if (!cs.ok()) {
    std::cerr << "hgmine_serve: drain checkpoint failed: " << cs.message()
              << "\n";
  }
  WriteFinalReport(MsSince(start_time_));
}

void Server::CrashForTest() {
  {
    MutexLock lock(mu_);
    if (!started_) return;
    stopping_ = true;
    queue_.clear();  // queued requests vanish, like a kill -9
  }
  queue_cv_.NotifyAll();
  JoinThreads();
  drained_ = true;  // the destructor must not run a graceful drain
}

void Server::JoinThreads() {
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (watchdog_.joinable()) watchdog_.join();
  if (checkpointer_.joinable()) checkpointer_.join();
}

uint64_t Server::requests_handled() const {
  MutexLock lock(mu_);
  return handled_;
}

void Server::WorkerLoop(size_t worker_index) {
  // Each worker owns its pool: ThreadPool admits only one external
  // ParallelFor batch at a time, so sharing one across workers would
  // serialize (and race) them.  Size 1 runs chunks inline — right for
  // this box — while keeping the deterministic chunking seam.
  ThreadPool pool(1);
  (void)worker_index;
  for (;;) {
    QueueItem item;
    uint64_t ticket = 0;
    {
      MutexLock lock(mu_);
      // Predicate reads guarded members (see CondVar::Wait contract).
      queue_cv_.Wait(mu_, [&]() HGM_NO_THREAD_SAFETY_ANALYSIS {
        return stopping_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // stopping_ and nothing left to drain
      item = std::move(queue_.front());
      queue_.pop_front();
      HGM_OBS_GAUGE_SET("serve.queue_depth", queue_.size());
      ticket = next_ticket_++;
      QueueItem watch;  // slim watchdog entry: deadline + cancel only
      watch.budget_ms = item.budget_ms;
      watch.deadline = item.deadline;
      watch.cancel = item.cancel;
      inflight_.emplace(ticket, std::move(watch));
    }

    const SteadyClock::time_point begin = SteadyClock::now();
    std::string response;
    if (begin >= item.deadline) {
      // The deadline elapsed while queued; shed late rather than burn a
      // worker on an answer the client has given up on.
      HGM_OBS_COUNT("serve.shed_expired", 1);
      response = ErrorResponse(
          item.request.id,
          Status::Unavailable("deadline elapsed in queue"),
          /*retry_after_ms=*/item.budget_ms);
    } else {
      const uint64_t remaining_ms = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              item.deadline - begin)
              .count());
      RunBudget budget =
          DeadlineBudget(remaining_ms, item.cancel->token());
      response = Execute(item.request, budget, &pool);
    }
    const uint64_t us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            SteadyClock::now() - begin)
            .count());
    HGM_OBS_OBSERVE("serve.request_us", us);

    // Settle the ledgers before replying: a closed-loop client's next
    // request may arrive the moment done() returns, and must not be shed
    // against this request's slot.
    admission_.OnFinish(item.budget_ms, us);
    {
      MutexLock lock(mu_);
      inflight_.erase(ticket);
      ++handled_;
    }
    item.done(response);
  }
}

void Server::WatchdogLoop() {
  const auto interval =
      std::chrono::milliseconds(config_.watchdog_interval_ms == 0
                                    ? 50
                                    : config_.watchdog_interval_ms);
  const auto grace = std::chrono::milliseconds(config_.watchdog_grace_ms);
  for (;;) {
    MutexLock lock(mu_);
    // Predicate reads guarded members (see CondVar::Wait contract).
    const bool finished =
        queue_cv_.WaitFor(mu_, interval, [&]() HGM_NO_THREAD_SAFETY_ANALYSIS {
          return stopping_ && queue_.empty() && inflight_.empty();
        });
    if (finished) return;
    const SteadyClock::time_point now = SteadyClock::now();
    for (auto& [ticket, item] : inflight_) {
      if (now >= item.deadline + grace && item.cancel != nullptr &&
          !item.cancel->token().cancelled()) {
        // A wedged worker is cancelled at its next budget boundary and
        // answers with a certified partial — the request dies, the
        // worker survives.
        item.cancel->RequestCancel();
        HGM_OBS_COUNT("serve.watchdog_cancels", 1);
      }
    }
  }
}

void Server::CheckpointerLoop() {
  const auto interval =
      std::chrono::milliseconds(config_.checkpoint_interval_ms);
  for (;;) {
    std::vector<std::shared_ptr<Session>> snapshot;
    {
      MutexLock lock(mu_);
      // Predicate reads guarded members (see CondVar::Wait contract).
      const bool stop =
          queue_cv_.WaitFor(mu_, interval, [&]() HGM_NO_THREAD_SAFETY_ANALYSIS {
            return stopping_;
          });
      if (stop) return;  // Drain runs its own final CheckpointAll
      snapshot.reserve(sessions_.size());
      for (const auto& [name, session] : sessions_) {
        snapshot.push_back(session);
      }
    }
    for (const std::shared_ptr<Session>& session : snapshot) {
      Status s = session->SaveWarm();
      if (!s.ok()) HGM_OBS_COUNT("serve.warm_save_errors", 1);
    }
  }
}

Result<std::shared_ptr<Session>> Server::FindSession(
    const std::string& name, bool recover_missing) {
  {
    MutexLock lock(mu_);
    auto it = sessions_.find(name);
    if (it != sessions_.end()) return it->second;
  }
  if (!recover_missing || config_.state_dir.empty()) {
    return Status::NotFound("unknown session '" + name + "'");
  }
  Result<std::unique_ptr<Session>> recovered =
      Session::Recover(name, session_options_);
  if (!recovered.ok()) {
    if (recovered.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("unknown session '" + name + "'");
    }
    return recovered.status();
  }
  std::shared_ptr<Session> session = std::move(recovered.value());
  MutexLock lock(mu_);
  auto [it, inserted] = sessions_.emplace(name, session);
  return it->second;  // a racing recovery won; use the resident one
}

std::string Server::Execute(const Request& req, const RunBudget& budget,
                            ThreadPool* pool) {
  obs::TraceSpan span(std::string("serve.") + OpName(req.op), "serve");
  switch (req.op) {
    case Op::kOpen: {
      {
        MutexLock lock(mu_);
        if (sessions_.count(req.session) > 0) {
          return ErrorResponse(
              req.id, Status::FailedPrecondition(
                          "session '" + req.session + "' already open"));
        }
      }
      Result<std::unique_ptr<Session>> opened =
          Session::Open(req, session_options_);
      if (!opened.ok()) return ErrorResponse(req.id, opened.status());
      std::shared_ptr<Session> session = std::move(opened.value());
      {
        MutexLock lock(mu_);
        auto [it, inserted] = sessions_.emplace(req.session, session);
        if (!inserted) {
          return ErrorResponse(
              req.id, Status::FailedPrecondition(
                          "session '" + req.session + "' already open"));
        }
      }
      return OkResponse(
          req.id,
          {{"session", JsonValue::String(req.session)},
           {"stream", JsonValue::Bool(session->is_stream())},
           {"items", JsonValue::Number(
                         static_cast<double>(session->num_items()))}});
    }
    case Op::kPush: {
      Result<std::shared_ptr<Session>> found =
          FindSession(req.session, /*recover_missing=*/true);
      if (!found.ok()) return ErrorResponse(req.id, found.status());
      Result<PushOutcome> pushed =
          found.value()->Append(req.rows, budget, pool);
      if (!pushed.ok()) return ErrorResponse(req.id, pushed.status());
      const PushOutcome& out = pushed.value();
      std::vector<std::pair<std::string, JsonValue>> fields;
      fields.emplace_back(
          "consumed",
          JsonValue::Number(static_cast<double>(out.consumed)));
      std::vector<JsonValue> boundaries;
      boundaries.reserve(out.boundaries.size());
      for (const StreamWindowResult& b : out.boundaries) {
        boundaries.push_back(BoundaryToJson(b, req.full));
      }
      fields.emplace_back("boundaries",
                          JsonValue::Array(std::move(boundaries)));
      if (out.degraded) {
        HGM_OBS_COUNT("serve.degraded", 1);
        fields.emplace_back("degraded", JsonValue::Bool(true));
        fields.emplace_back(
            "stop_reason",
            JsonValue::String(StopReasonName(out.stop_reason)));
      }
      return OkResponse(req.id, std::move(fields));
    }
    case Op::kMine:
    case Op::kBorder: {
      Result<std::shared_ptr<Session>> found =
          FindSession(req.session, /*recover_missing=*/true);
      if (!found.ok()) return ErrorResponse(req.id, found.status());
      std::optional<ChaosSpec> chaos;
      if (req.chaos_seed.has_value()) {
        chaos = ChaosSpec{*req.chaos_seed, req.chaos_rate,
                          req.chaos_permanent_rate};
      }
      Result<MineAnswer> mined = found.value()->Mine(
          req.min_support, req.op == Op::kBorder ? 0 : req.shards, budget,
          pool, chaos);
      if (!mined.ok()) return ErrorResponse(req.id, mined.status());
      if (mined.value().degraded) HGM_OBS_COUNT("serve.degraded", 1);
      std::vector<std::pair<std::string, JsonValue>> fields;
      AppendAnswerFields(mined.value(), req.full, &fields);
      return OkResponse(req.id, std::move(fields));
    }
    case Op::kSupport: {
      Result<std::shared_ptr<Session>> found =
          FindSession(req.session, /*recover_missing=*/true);
      if (!found.ok()) return ErrorResponse(req.id, found.status());
      Result<size_t> support = found.value()->SupportOf(req.itemset);
      if (!support.ok()) return ErrorResponse(req.id, support.status());
      return OkResponse(
          req.id, {{"support", JsonValue::Number(static_cast<double>(
                                   support.value()))}});
    }
    case Op::kRules: {
      Result<std::shared_ptr<Session>> found =
          FindSession(req.session, /*recover_missing=*/true);
      if (!found.ok()) return ErrorResponse(req.id, found.status());
      MineAnswer answer;
      Result<std::vector<AssociationRule>> rules = found.value()->Rules(
          req.min_support, req.min_conf, budget, pool, &answer);
      if (!rules.ok()) return ErrorResponse(req.id, rules.status());
      std::vector<JsonValue> rendered;
      rendered.reserve(rules.value().size());
      for (const AssociationRule& r : rules.value()) {
        rendered.push_back(JsonValue::Object(
            {{"antecedent", ItemsetToJson(r.antecedent)},
             {"consequent",
              JsonValue::Number(static_cast<double>(r.consequent))},
             {"support",
              JsonValue::Number(static_cast<double>(r.support))},
             {"confidence", JsonValue::Number(r.confidence)}}));
      }
      std::vector<std::pair<std::string, JsonValue>> fields;
      fields.emplace_back(
          "rule_count",
          JsonValue::Number(static_cast<double>(rendered.size())));
      fields.emplace_back("rules", JsonValue::Array(std::move(rendered)));
      if (answer.degraded) {
        HGM_OBS_COUNT("serve.degraded", 1);
        fields.emplace_back("degraded", JsonValue::Bool(true));
        fields.emplace_back(
            "stop_reason",
            JsonValue::String(StopReasonName(answer.stop_reason)));
      }
      return OkResponse(req.id, std::move(fields));
    }
    case Op::kSleep: {
      if (!config_.enable_test_ops) {
        return ErrorResponse(
            req.id, Status::FailedPrecondition(
                        "test ops disabled (--enable-test-ops)"));
      }
      // Cooperative wedge: sleeps in slices, honoring cancellation and
      // the deadline like a real miner loop — the watchdog test vehicle.
      BudgetTracker tracker(budget);
      const SteadyClock::time_point until =
          SteadyClock::now() + std::chrono::milliseconds(req.sleep_ms);
      while (SteadyClock::now() < until) {
        StopReason r = tracker.CheckBoundary();
        if (r != StopReason::kCompleted) {
          HGM_OBS_COUNT("serve.degraded", 1);
          return OkResponse(
              req.id,
              {{"degraded", JsonValue::Bool(true)},
               {"stop_reason", JsonValue::String(StopReasonName(r))}});
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      return OkResponse(req.id, {{"slept_ms", JsonValue::Number(
                                     static_cast<double>(req.sleep_ms))}});
    }
    default:
      return ErrorResponse(
          req.id, Status::Internal("control op reached the worker path"));
  }
}

std::string Server::HandleControl(const Request& req) {
  switch (req.op) {
    case Op::kPing:
      return OkResponse(req.id, {{"pong", JsonValue::Bool(true)}});
    case Op::kStats: {
      std::vector<std::shared_ptr<Session>> snapshot;
      size_t queue_depth = 0;
      uint64_t handled = 0;
      {
        MutexLock lock(mu_);
        snapshot.reserve(sessions_.size());
        for (const auto& [name, session] : sessions_) {
          snapshot.push_back(session);
        }
        queue_depth = queue_.size();
        handled = handled_;
      }
      std::vector<JsonValue> sessions;
      sessions.reserve(snapshot.size());
      for (const std::shared_ptr<Session>& session : snapshot) {
        sessions.push_back(JsonValue::Object(session->StatsFields()));
      }
      return OkResponse(
          req.id,
          {{"sessions", JsonValue::Array(std::move(sessions))},
           {"queue_depth",
            JsonValue::Number(static_cast<double>(queue_depth))},
           {"inflight", JsonValue::Number(static_cast<double>(
                            admission_.admitted_inflight()))},
           {"handled", JsonValue::Number(static_cast<double>(handled))},
           {"draining", JsonValue::Bool(draining())}});
    }
    case Op::kScrape: {
      // The Prometheus text rides the same socket as a JSON string —
      // one transport, no second port to firewall.
      std::ostringstream os;
      obs::WritePrometheus(obs::MetricsRegistry::Global().Snapshot(), os);
      return OkResponse(req.id,
                        {{"prometheus", JsonValue::String(os.str())}});
    }
    case Op::kCheckpoint: {
      Status s = CheckpointAll();
      if (!s.ok()) return ErrorResponse(req.id, s);
      size_t count = 0;
      {
        MutexLock lock(mu_);
        count = sessions_.size();
      }
      return OkResponse(req.id, {{"checkpointed", JsonValue::Number(
                                     static_cast<double>(count))}});
    }
    case Op::kClose: {
      Result<std::shared_ptr<Session>> found =
          FindSession(req.session, /*recover_missing=*/false);
      if (!found.ok()) return ErrorResponse(req.id, found.status());
      Status s = found.value()->SaveWarm();
      if (!s.ok()) return ErrorResponse(req.id, s);
      {
        MutexLock lock(mu_);
        sessions_.erase(req.session);
      }
      return OkResponse(req.id,
                        {{"closed", JsonValue::String(req.session)}});
    }
    case Op::kShutdown:
      BeginDrain();
      return OkResponse(req.id, {{"draining", JsonValue::Bool(true)}});
    default:
      return ErrorResponse(
          req.id, Status::Internal("data op reached the control path"));
  }
}

Status Server::CheckpointAll() {
  std::vector<std::shared_ptr<Session>> snapshot;
  {
    MutexLock lock(mu_);
    snapshot.reserve(sessions_.size());
    for (const auto& [name, session] : sessions_) {
      snapshot.push_back(session);
    }
  }
  Status first_error = Status::OK();
  for (const std::shared_ptr<Session>& session : snapshot) {
    Status s = session->SaveWarm();
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

void Server::WriteFinalReport(uint64_t wall_ms) {
  if (config_.final_report_path.empty()) return;
  obs::RunReport report;
  report.kind = "serve";
  report.name = "hgmine_serve";
  report.host = obs::CollectHostInfo();
  report.build = obs::CollectBuildInfo();
  report.wall_ms = static_cast<double>(wall_ms);
  report.AddConfig("workers",
                   static_cast<uint64_t>(config_.workers == 0
                                             ? 1
                                             : config_.workers));
  report.AddConfig("max_queue",
                   static_cast<uint64_t>(config_.admission.max_queue));
  report.AddConfig("max_inflight_ms", config_.admission.max_inflight_ms);
  report.AddConfig("checkpoint_interval_ms",
                   config_.checkpoint_interval_ms);
  report.AddConfig("state_dir", config_.state_dir);
  size_t session_count = 0;
  uint64_t handled = 0;
  {
    MutexLock lock(mu_);
    session_count = sessions_.size();
    handled = handled_;
  }
  std::ostringstream payload;
  payload << "\"requests_handled\": " << handled
          << ", \"sessions\": " << session_count;
  report.payload_members = payload.str();
  report.phases = obs::Tracer::Global().PhaseTotals();
  if (obs::MetricsOn()) {
    report.metrics = obs::MetricsRegistry::Global().Snapshot();
  }
  report.flight = obs::FlightRecorder::Global().Snapshot();

  if (config_.final_report_path == "-") {
    report.WriteJson(std::cout);
    std::cout << "\n";
    return;
  }
  std::ofstream out(config_.final_report_path,
                    std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "hgmine_serve: cannot write final report to "
              << config_.final_report_path << "\n";
    return;
  }
  report.WriteJson(out);
  out << "\n";
}

}  // namespace serve
}  // namespace hgm
