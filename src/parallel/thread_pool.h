#ifndef RSTLAB_PARALLEL_THREAD_POOL_H_
#define RSTLAB_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rstlab::parallel {

/// A fixed pool of worker threads draining a shared FIFO task queue.
///
/// Deliberately work-stealing-free: tasks are coarse (one Monte-Carlo
/// chunk each), so a single mutex-guarded queue is contention-free in
/// practice and keeps the execution model simple enough to reason about
/// determinism. The pool owns its threads for its whole lifetime; there
/// is no dynamic resizing.
///
/// A pool of one thread has no parallelism to offer, so it starts no
/// worker: Submit runs each task on the caller, and a one-thread sort,
/// scan or trial map costs no thread and no hand-off.
///
/// Exceptions thrown by a task are captured (first one wins) and
/// rethrown from Wait(), so callers see worker failures on their own
/// thread instead of std::terminate. Tasks submitted after one threw
/// still run, on either kind of pool.
class ThreadPool {
 public:
  /// A pool of `threads` (0 is clamped to 1). More than one starts that
  /// many workers; one starts none and runs tasks on the caller.
  explicit ThreadPool(std::size_t threads);

  /// Drains outstanding tasks, then joins all workers. Exceptions still
  /// pending (Wait() never called) are swallowed at this point.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads tasks run on (the caller's, for a pool of one).
  std::size_t thread_count() const { return threads_; }

  /// Enqueues `task` for execution on some worker; on a pool of one,
  /// runs it before returning.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished. If any task threw,
  /// rethrows the first captured exception (clearing it, so the pool
  /// remains usable afterwards).
  void Wait();

 private:
  void WorkerLoop();
  /// Runs `task`, capturing its exception as the first error if none is
  /// pending.
  void RunTask(const std::function<void()>& task);

  const std::size_t threads_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // queued + currently executing
  std::exception_ptr first_error_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace rstlab::parallel

#endif  // RSTLAB_PARALLEL_THREAD_POOL_H_
