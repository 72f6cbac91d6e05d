#include "common/thread_pool.h"

#include <algorithm>

#include "common/fault.h"
#include "common/fault_points.h"

namespace nebula {

ThreadPool::ThreadPool(size_t num_threads)
    : sink_(hooks::GetPoolEventSink()) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

size_t ThreadPool::QueueDepth() const {
  MutexLock lock(mutex_);
  return queue_.size();
}

bool ThreadPool::Enqueue(std::function<void()> task) {
  // Fault injection: a fired "threadpool.submit" fault rejects the
  // enqueue, exercising Submit's degrade-to-inline-execution path.
  if (NEBULA_FAULT_SHOULD_FAIL(kFaultThreadPoolSubmit)) return false;
  {
    MutexLock lock(mutex_);
    if (stopping_) return false;
    QueueItem item;
    item.fn = std::move(task);
    if (sink_ != nullptr) {
      item.enqueued = std::chrono::steady_clock::now();
    }
    queue_.push_back(std::move(item));
    if (sink_ != nullptr) {
      sink_->task_submitted(queue_.size());
    }
  }
  cv_.NotifyOne();
  return true;
}

void ThreadPool::Shutdown() {
  {
    MutexLock lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    QueueItem item;
    {
      MutexLock lock(mutex_);
      // Explicit wait loop instead of a predicate lambda: the analysis
      // checks the guarded reads here, but not inside a lambda body.
      while (!stopping_ && queue_.empty()) cv_.Wait(mutex_);
      // Drain-then-stop: a stopping pool still executes everything that
      // was queued, so pending futures always complete.
      if (queue_.empty()) return;
      item = std::move(queue_.front());
      queue_.pop_front();
      if (sink_ != nullptr) {
        const auto waited =
            std::chrono::steady_clock::now() - item.enqueued;
        sink_->task_dequeued(
            queue_.size(),
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(waited)
                    .count()));
      }
    }
    item.fn();  // packaged_task captures exceptions into the future
    if (sink_ != nullptr) {
      sink_->task_executed();
    }
  }
}

}  // namespace nebula
