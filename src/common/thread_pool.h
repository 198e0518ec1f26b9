// Copyright 2026 The densest Authors.
// Minimal fixed-size thread pool shared by the MapReduce simulator and the
// streaming pass engine. Deterministic results are preserved by keeping
// per-task output buffers and merging them in task order.
//
// Concurrency contract (machine-checked by Clang -Wthread-safety via the
// annotations below): `mu_` guards the queue, the outstanding-task count
// and the shutdown flag. Workers block on `work_cv_` for new tasks;
// ParallelFor blocks on `done_cv_` until outstanding_ drains to zero.
// Shutdown protocol: the destructor sets shutdown_ under the lock, wakes
// every worker, and joins; workers finish draining the queue first, so
// every task Submitted before destruction still runs.

#ifndef DENSEST_COMMON_THREAD_POOL_H_
#define DENSEST_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace densest {

/// \brief Fixed-size worker pool with a blocking ParallelFor.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = hardware concurrency, min 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool() DENSEST_EXCLUDES(mu_);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for i in [0, count) across the pool; returns when all
  /// calls completed. fn must be safe to call concurrently for distinct i.
  /// A one-worker pool (or a count of 1) runs the calls on the calling
  /// thread, in index order: handing them to the one worker would only
  /// move each call across cores while the caller blocks.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn)
      DENSEST_EXCLUDES(mu_);

  /// Enqueues one task to run asynchronously; the returned future becomes
  /// ready when it has run (and rethrows anything it threw). The caller
  /// keeps working while the task executes — this is how the file stream
  /// overlaps its next fread with decoding the current buffer.
  std::future<void> Submit(std::function<void()> fn) DENSEST_EXCLUDES(mu_);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop() DENSEST_EXCLUDES(mu_);

  // Written only by the constructor, before any worker can observe the
  // pool; joined by the destructor. Needs no lock.
  std::vector<std::thread> threads_;

  Mutex mu_;
  CondVar work_cv_;  // signaled when the queue grows or shutdown_ flips
  CondVar done_cv_;  // signaled when outstanding_ reaches zero
  std::queue<std::function<void()>> queue_ DENSEST_GUARDED_BY(mu_);
  size_t outstanding_ DENSEST_GUARDED_BY(mu_) = 0;
  bool shutdown_ DENSEST_GUARDED_BY(mu_) = false;
};

}  // namespace densest

#endif  // DENSEST_COMMON_THREAD_POOL_H_
