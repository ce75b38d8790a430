#pragma once

/// \file admission.h
/// \brief Admission control for the mining service: bounded queue,
/// deadline-derived budgets, typed load-shedding.
///
/// Theorem 10 prices a mining request before it runs; admission control
/// is the same idea applied to the service as a whole.  Every data
/// request arrives with (or is assigned) a wall-clock deadline, and the
/// controller tracks two resources: queue slots and the total
/// milliseconds of deadline budget currently admitted but not finished
/// (the "in-flight budget" — a proxy for how much work the box has
/// already promised).  A request that would overflow either cap is shed
/// *immediately* with a typed Unavailable carrying `retry_after_ms`,
/// instead of joining a queue it would time out in.  Shedding early and
/// loudly is the graceful-degradation contract: under overload the
/// service stays correct and responsive for the work it does accept.
/// The `retry_after_ms` hint is how long the admitted requests take to
/// drain at the measured service time, not at their deadlines: a request
/// that runs for microseconds must not tell clients to wait seconds.

#include <cstdint>

#include "common/thread_annotations.h"

namespace hgm {
namespace serve {

/// Caps and defaults for one server's admission controller.
struct AdmissionConfig {
  /// Data requests admitted but not yet finished (queued + executing).
  size_t max_queue = 64;
  /// Cap on the summed deadline budgets of admitted-unfinished requests.
  uint64_t max_inflight_ms = 60000;
  /// Deadline assigned to requests that do not carry one.
  uint64_t default_deadline_ms = 2000;
  /// Hard ceiling on any request's deadline (a client asking for more is
  /// clamped, not rejected).
  uint64_t max_deadline_ms = 30000;
  /// Worker count, for the retry-after estimate (how fast the admitted
  /// requests drain).
  size_t workers = 2;
};

/// Outcome of one admission decision.
struct AdmissionDecision {
  bool admitted = false;
  /// Effective deadline budget for the request (clamped), valid iff
  /// admitted.
  uint64_t budget_ms = 0;
  /// Backoff hint for the client, valid iff shed.
  uint64_t retry_after_ms = 0;
  /// Why the request was shed: "queue_full", "inflight_budget", or
  /// "draining".  nullptr iff admitted.
  const char* shed_reason = nullptr;
};

/// Thread-safe admission ledger.  TryAdmit charges a slot and the
/// request's budget; OnFinish refunds both.  CloseAdmissions flips the
/// controller into drain mode, after which every TryAdmit sheds with
/// reason "draining" — in-flight work still finishes and refunds.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config)
      : config_(config) {}

  /// Decides one data request with the client-requested deadline
  /// (0 = use the default).
  AdmissionDecision TryAdmit(uint64_t requested_deadline_ms)
      HGM_EXCLUDES(mu_);

  /// Refunds the slot and budget charged by an admitted request, and
  /// records how long it took to execute.
  void OnFinish(uint64_t budget_ms, uint64_t service_us) HGM_EXCLUDES(mu_);

  /// Stops admitting; already-admitted requests are unaffected.
  void CloseAdmissions() HGM_EXCLUDES(mu_);

  bool closed() const HGM_EXCLUDES(mu_);
  size_t admitted_inflight() const HGM_EXCLUDES(mu_);
  uint64_t inflight_ms() const HGM_EXCLUDES(mu_);

 private:
  /// How long until the admitted requests drain: their count times the
  /// mean measured service time, split across the workers, with a floor
  /// so clients never spin at zero.  The floor until a request finishes.
  uint64_t RetryAfterMs() const HGM_REQUIRES(mu_);

  const AdmissionConfig config_;
  mutable Mutex mu_;
  size_t inflight_ HGM_GUARDED_BY(mu_) = 0;
  uint64_t inflight_ms_ HGM_GUARDED_BY(mu_) = 0;
  bool closed_ HGM_GUARDED_BY(mu_) = false;
  uint64_t finished_ HGM_GUARDED_BY(mu_) = 0;
  uint64_t service_us_ HGM_GUARDED_BY(mu_) = 0;  // summed over finished_
};

}  // namespace serve
}  // namespace hgm
