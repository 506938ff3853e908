#include "serve/scheduler.h"

#include <algorithm>

namespace rstlab::serve {

FairScheduler::FairScheduler(const Options& options)
    : slots_(std::max<std::size_t>(1, options.threads)),
      max_inflight_(options.max_inflight == 0 ? 1 : options.max_inflight) {}

FairScheduler::~FairScheduler() { Drain(); }

Status FairScheduler::Run(const std::string& tenant,
                          const std::function<void()>& job) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (draining_) {
    return Status::FailedPrecondition("scheduler is draining");
  }
  if (queued_ + running_ >= max_inflight_) {
    ++stats_.rejected;
    return Status::ResourceExhausted(
        "admission bound reached: " + std::to_string(queued_ + running_) +
        " in flight >= max_inflight " + std::to_string(max_inflight_));
  }
  // Find the tenant's queue in the ring, or append a fresh one just
  // behind the cursor (so a new tenant waits at most one full rotation).
  auto it = ring_.begin();
  for (; it != ring_.end(); ++it) {
    if (it->tenant == tenant) break;
  }
  if (it == ring_.end()) {
    it = ring_.insert(cursor_ == ring_.end() ? ring_.begin() : cursor_,
                      TenantQueue{tenant, {}});
    if (cursor_ == ring_.end()) cursor_ = it;
  }
  Ticket ticket;
  it->jobs.push_back(&ticket);
  ++queued_;
  ++stats_.admitted;
  if (running_ < slots_) DispatchLocked();
  ticket.granted_cv.wait(lock, [&ticket] { return ticket.granted; });
  lock.unlock();

  // The slot is held from here on; the guard returns it on every exit.
  struct SlotGuard {
    FairScheduler* scheduler;
    ~SlotGuard() { scheduler->Release(); }
  } guard{this};
  job();
  return Status::OK();
}

void FairScheduler::DispatchLocked() {
  if (queued_ == 0 || cursor_ == ring_.end()) return;
  // Advance the cursor to a tenant with work (ring entries are removed
  // when empty, so the first probe normally hits).
  while (cursor_->jobs.empty()) {
    auto dead = cursor_;
    ++cursor_;
    ring_.erase(dead);
    if (cursor_ == ring_.end()) cursor_ = ring_.begin();
    if (ring_.empty()) {
      cursor_ = ring_.end();
      return;
    }
  }
  Ticket* ticket = cursor_->jobs.front();
  cursor_->jobs.pop_front();
  --queued_;
  ++running_;
  // Rotate: the next dispatch serves the next tenant.
  if (cursor_->jobs.empty()) {
    auto dead = cursor_;
    ++cursor_;
    ring_.erase(dead);
  } else {
    ++cursor_;
  }
  if (cursor_ == ring_.end() && !ring_.empty()) cursor_ = ring_.begin();
  if (ring_.empty()) cursor_ = ring_.end();

  ticket->granted = true;
  ticket->granted_cv.notify_one();
}

void FairScheduler::Release() {
  std::lock_guard<std::mutex> lock(mutex_);
  --running_;
  ++stats_.completed;
  if (running_ < slots_) DispatchLocked();
  if (queued_ == 0 && running_ == 0) drained_.notify_all();
}

void FairScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  drained_.wait(lock, [this] { return queued_ == 0 && running_ == 0; });
}

FairScheduler::Stats FairScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.inflight = queued_ + running_;
  return out;
}

}  // namespace rstlab::serve
