#include "common/obs_hooks.h"

#include <atomic>

namespace nebula {
namespace hooks {

namespace {

std::atomic<const PoolEventSink*> g_pool_sink{nullptr};
std::atomic<const LockdepEventSink*> g_lockdep_sink{nullptr};
std::atomic<ThreadOrdinalFn> g_thread_ordinal{nullptr};

}  // namespace

void SetPoolEventSink(const PoolEventSink* sink) {
  g_pool_sink.store(sink, std::memory_order_release);
}

const PoolEventSink* GetPoolEventSink() {
  return g_pool_sink.load(std::memory_order_acquire);
}

void SetLockdepEventSink(const LockdepEventSink* sink) {
  g_lockdep_sink.store(sink, std::memory_order_release);
}

const LockdepEventSink* GetLockdepEventSink() {
  return g_lockdep_sink.load(std::memory_order_acquire);
}

void SetThreadOrdinalProvider(ThreadOrdinalFn fn) {
  g_thread_ordinal.store(fn, std::memory_order_release);
}

uint32_t CurrentThreadOrdinal() {
  const ThreadOrdinalFn fn = g_thread_ordinal.load(std::memory_order_acquire);
  return fn != nullptr ? fn() : 0;
}

}  // namespace hooks
}  // namespace nebula
