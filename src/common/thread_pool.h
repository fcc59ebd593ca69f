// Fixed-size worker pool that runs scan morsels and per-file COMPACT
// rewrites in parallel, standing in for a cluster's task slots.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace dtl {

/// Simple FIFO thread pool. Tasks may not block on other tasks submitted to
/// the same pool (no work stealing), which the executor respects by
/// submitting only leaf-level morsel work.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the returned future resolves when it completes.
  std::future<void> Submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, n) across the pool and waits for all of them.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// A batch of Status-returning tasks fanned out on a ThreadPool. The first
/// task to fail cancels the group: tasks not yet started become no-ops, and
/// long-running tasks may poll cancelled() to bail early. Wait() is the
/// single barrier — it blocks until every spawned task has finished (or been
/// skipped) and returns the first error, so callers get all-or-nothing
/// semantics without juggling futures.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool);
  /// All spawned tasks must have been waited on before destruction.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues one task. Must not be called after Wait().
  void Spawn(std::function<Status()> task);

  /// Blocks until all spawned tasks are done; returns the first error (tasks
  /// skipped by cancellation count as done). Call exactly once.
  [[nodiscard]] Status Wait();

  /// Marks the group cancelled: unstarted tasks are skipped. Does not
  /// interrupt tasks already running.
  void Cancel();
  bool cancelled() const { return state_->cancelled.load(std::memory_order_acquire); }

 private:
  /// Shared with the pool-side lambdas so the group may be destroyed after
  /// Wait() even if the pool still holds (finished) task objects.
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    size_t pending = 0;
    Status first_error;
    std::atomic<bool> cancelled{false};
  };

  ThreadPool* pool_;
  std::shared_ptr<State> state_;
  bool waited_ = false;
};

}  // namespace dtl
