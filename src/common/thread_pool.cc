#include "common/thread_pool.h"

#include <algorithm>

namespace densest {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) work_cv_.Wait(mu_);
      // Drain outstanding work before honoring shutdown: tasks Submitted
      // before the destructor ran must still execute (their futures are
      // how callers learn the work happened).
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      MutexLock lock(mu_);
      --outstanding_;
      if (outstanding_ == 0) done_cv_.NotifyAll();
    }
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  auto task =
      std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> future = task->get_future();
  {
    MutexLock lock(mu_);
    // Counted in outstanding_ so the worker-side decrement stays balanced;
    // a concurrent ParallelFor that queues its calls waits for submitted
    // tasks too (one that runs them on the caller does not).
    ++outstanding_;
    queue_.push([task] { (*task)(); });
  }
  work_cv_.NotifyOne();
  return future;
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  // One call, or one worker to run them: the caller runs them in index
  // order instead of handing each to a worker and blocking on it.
  if (count == 1 || threads_.size() == 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  {
    MutexLock lock(mu_);
    outstanding_ += count;
    for (size_t i = 0; i < count; ++i) {
      queue_.push([&fn, i] { fn(i); });
    }
  }
  work_cv_.NotifyAll();
  MutexLock lock(mu_);
  while (outstanding_ != 0) done_cv_.Wait(mu_);
}

}  // namespace densest
