#include "serve/admission.h"

#include "obs/metrics.h"

namespace hgm {
namespace serve {

AdmissionDecision AdmissionController::TryAdmit(
    uint64_t requested_deadline_ms) {
  uint64_t budget = requested_deadline_ms == 0
                        ? config_.default_deadline_ms
                        : requested_deadline_ms;
  if (budget > config_.max_deadline_ms) budget = config_.max_deadline_ms;

  MutexLock lock(mu_);
  AdmissionDecision d;
  if (closed_) {
    d.shed_reason = "draining";
    d.retry_after_ms = 0;  // do not retry a draining server
    HGM_OBS_COUNT("serve.shed_draining", 1);
    return d;
  }
  if (inflight_ >= config_.max_queue) {
    d.shed_reason = "queue_full";
    d.retry_after_ms = RetryAfterMs();
    HGM_OBS_COUNT("serve.shed_queue_full", 1);
    return d;
  }
  if (inflight_ms_ + budget > config_.max_inflight_ms) {
    d.shed_reason = "inflight_budget";
    d.retry_after_ms = RetryAfterMs();
    HGM_OBS_COUNT("serve.shed_inflight_budget", 1);
    return d;
  }
  ++inflight_;
  inflight_ms_ += budget;
  d.admitted = true;
  d.budget_ms = budget;
  HGM_OBS_GAUGE_SET("serve.inflight", inflight_);
  return d;
}

void AdmissionController::OnFinish(uint64_t budget_ms, uint64_t service_us) {
  MutexLock lock(mu_);
  if (inflight_ > 0) --inflight_;
  inflight_ms_ = inflight_ms_ > budget_ms ? inflight_ms_ - budget_ms : 0;
  ++finished_;
  service_us_ += service_us;
  HGM_OBS_GAUGE_SET("serve.inflight", inflight_);
}

void AdmissionController::CloseAdmissions() {
  MutexLock lock(mu_);
  closed_ = true;
}

bool AdmissionController::closed() const {
  MutexLock lock(mu_);
  return closed_;
}

size_t AdmissionController::admitted_inflight() const {
  MutexLock lock(mu_);
  return inflight_;
}

uint64_t AdmissionController::inflight_ms() const {
  MutexLock lock(mu_);
  return inflight_ms_;
}

uint64_t AdmissionController::RetryAfterMs() const {
  const size_t workers = config_.workers == 0 ? 1 : config_.workers;
  const uint64_t mean_us = finished_ == 0 ? 0 : service_us_ / finished_;
  const uint64_t drain = inflight_ * mean_us / workers / 1000;
  return drain < 10 ? 10 : drain;
}

}  // namespace serve
}  // namespace hgm
