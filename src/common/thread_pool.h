#ifndef NEBULA_COMMON_THREAD_POOL_H_
#define NEBULA_COMMON_THREAD_POOL_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/lock_rank.h"
#include "common/obs_hooks.h"
#include "common/sync.h"

namespace nebula {

/// A fixed-size worker pool with a FIFO task queue and futures-based
/// submission. Its one engine use is the batch-ingest pipeline, which runs
/// each request's Stage-1 query generation ahead of the stateful stages
/// (see DESIGN.md "Concurrency model"). Tasks run with no operation
/// context: nothing of the submitting thread's state travels with them.
///
/// Semantics:
///  - `Submit` enqueues a callable and returns a `std::future` of its
///    result; anything the callable throws propagates through the future,
///    never into the worker loop.
///  - `Shutdown` (and the destructor) stop intake, drain every task
///    already queued, and join the workers — pending futures therefore
///    always become ready.
///  - The pool is reusable across drains: workers park on the queue, so
///    wave after wave of submissions is the intended usage pattern.
///  - `Submit` after `Shutdown` is a programming error; as a safe fallback
///    the task runs inline on the caller's thread (the future is still
///    valid and ready on return).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Tasks queued but not yet claimed by a worker (tests/diagnostics).
  size_t QueueDepth() const;

  /// Enqueues `f` for execution; FIFO relative to other submissions.
  template <typename F>
  auto Submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // packaged_task is move-only while std::function wants copyable:
    // the usual shared_ptr wrapping bridges the two.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    if (!Enqueue([task] { (*task)(); })) {
      (*task)();  // stopped pool: degrade to inline execution
    }
    return future;
  }

  /// Stops intake, drains the queue, joins all workers. Idempotent.
  void Shutdown();

 private:
  /// A queued task plus its submission time (for the queue-wait
  /// histogram; unused when observability is compiled out).
  struct QueueItem {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Returns false when the pool is already stopped.
  bool Enqueue(std::function<void()> task);
  void WorkerLoop();

  mutable Mutex mutex_{kLockRankCommonPool};
  CondVar cv_;
  std::deque<QueueItem> queue_ GUARDED_BY(mutex_);
  bool stopping_ GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;

  // Process-wide instrumentation sink (hooks::GetPoolEventSink), resolved
  // once at construction; nullptr when obs is not linked or NEBULA_OBS is
  // off — every event site then reduces to a null-check.
  const hooks::PoolEventSink* sink_ = nullptr;
};

}  // namespace nebula

#endif  // NEBULA_COMMON_THREAD_POOL_H_
