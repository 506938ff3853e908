#ifndef RSTLAB_SERVE_SCHEDULER_H_
#define RSTLAB_SERVE_SCHEDULER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <mutex>
#include <string>

#include "util/status.h"

namespace rstlab::serve {

/// Fair per-tenant FIFO scheduling with bounded admission. The
/// scheduler owns no threads: each caller runs its own job on its own
/// thread once it holds one of `threads` slots.
///
/// Each tenant owns one FIFO; a round-robin cursor walks the non-empty
/// tenant queues, so a tenant flooding the service delays only its own
/// requests — the next request of every other tenant is at most
/// (#tenants * running slots) dispatches away, never behind the
/// flooder's backlog. A freed slot goes straight to the next queued
/// caller, so a new caller never overtakes one already queued.
///
/// Admission is bounded: at most `max_inflight` jobs may be queued or
/// running at once. A Run beyond the bound fails at once with
/// ResourceExhausted (the server maps it to HTTP 429) rather than
/// queueing unboundedly — under overload the caller sheds load at the
/// edge instead of accumulating latency. A Run after Drain() began
/// fails with FailedPrecondition (HTTP 503).
class FairScheduler {
 public:
  struct Options {
    /// Jobs that may run at once (0 clamps to 1).
    std::size_t threads = 4;
    /// Maximum queued + running jobs before Run rejects.
    std::size_t max_inflight = 256;
  };

  struct Stats {
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::size_t inflight = 0;  // queued + running right now
  };

  explicit FairScheduler(const Options& options);

  /// Drains. Equivalent to Drain() if not already drained.
  ~FairScheduler();

  FairScheduler(const FairScheduler&) = delete;
  FairScheduler& operator=(const FairScheduler&) = delete;

  /// Runs `job` for `tenant` on the calling thread once the round-robin
  /// grants it a slot, and returns OK after it finished. Fails at once,
  /// without running `job`, with ResourceExhausted at the admission
  /// bound and FailedPrecondition once draining. The slot is released
  /// on every exit path; an exception from `job` propagates to the
  /// caller after the release.
  Status Run(const std::string& tenant, const std::function<void()>& job);

  /// Stops admitting and blocks until every admitted job has finished.
  /// Idempotent.
  void Drain();

  Stats stats() const;

 private:
  /// Grants a free slot to the next queued caller round-robin; must be
  /// called with `mutex_` held.
  void DispatchLocked();
  /// Returns a finished job's slot and dispatches it on.
  void Release();

  /// One caller queued in its tenant's FIFO; lives on its stack.
  struct Ticket {
    std::condition_variable granted_cv;
    bool granted = false;
  };

  struct TenantQueue {
    std::string tenant;
    std::deque<Ticket*> jobs;
  };

  const std::size_t slots_;
  const std::size_t max_inflight_;

  mutable std::mutex mutex_;
  std::condition_variable drained_;
  // Round-robin ring of tenants with queued work; the cursor advances
  // one tenant per dispatch. Tenants leave the ring when empty.
  std::list<TenantQueue> ring_;
  std::list<TenantQueue>::iterator cursor_ = ring_.end();
  std::size_t queued_ = 0;
  std::size_t running_ = 0;
  bool draining_ = false;
  Stats stats_;
};

}  // namespace rstlab::serve

#endif  // RSTLAB_SERVE_SCHEDULER_H_
