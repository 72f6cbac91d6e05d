#ifndef NEBULA_COMMON_OBS_HOOKS_H_
#define NEBULA_COMMON_OBS_HOOKS_H_

#include <cstddef>
#include <cstdint>

namespace nebula {
namespace hooks {

/// Instrumentation seam between `common` and the observability layer.
///
/// `common` sits at the bottom of the layer DAG (tools/layers.txt), so it
/// must not include anything from `obs` — yet the thread pool and the
/// logger are two of the most valuable instrumentation sites in the
/// process. The resolution is an inverted dependency: `common` exposes
/// plain function-pointer hooks that default to no-ops, and `obs`
/// registers its implementations from a static registrar when it is
/// linked into the binary (src/obs/metrics.cc). Binaries that never link
/// `obs` pay a single null-check per event and record nothing.
///
/// All hooks are process-global and expected to be registered once,
/// before any instrumented object is constructed (static-init time in
/// practice). Reads are relaxed atomics: the hooks carry statistics, not
/// synchronization.

/// Events emitted by every ThreadPool instance. Callbacks must be cheap
/// and non-blocking: `task_submitted` / `task_dequeued` run while the
/// pool's queue mutex is held.
struct PoolEventSink {
  /// A task was appended to the queue; `queue_depth` is the new depth.
  void (*task_submitted)(size_t queue_depth);
  /// A worker claimed a task after `queue_wait_us` microseconds in the
  /// queue; `queue_depth` is the depth after removal.
  void (*task_dequeued)(size_t queue_depth, uint64_t queue_wait_us);
  /// A task's callable finished executing.
  void (*task_executed)();
};

/// Registers the process-wide pool sink. `sink` must outlive the process
/// (the registrar passes a static). Passing nullptr unregisters.
void SetPoolEventSink(const PoolEventSink* sink);

/// Currently registered sink, or nullptr. Callers should load once per
/// object lifetime (the ThreadPool caches it at construction) — the
/// pointer never changes after startup in production binaries.
const PoolEventSink* GetPoolEventSink();

/// Events emitted by the lockdep witness (common/lockdep.cc,
/// -DNEBULA_LOCKDEP=ON). Callbacks must be cheap, non-blocking, and must
/// not acquire any nebula::Mutex: they run inside the witness itself.
struct LockdepEventSink {
  /// A previously unseen acquisition edge joined the observed graph.
  void (*edge_observed)();
  /// A violation (self-deadlock / order inversion / planted) fired.
  void (*violation)();
};

/// Registers the process-wide lockdep sink. `sink` must outlive the
/// process (the registrar passes a static). Passing nullptr unregisters.
void SetLockdepEventSink(const LockdepEventSink* sink);

/// Currently registered lockdep sink, or nullptr.
const LockdepEventSink* GetLockdepEventSink();

/// Provider for the small dense per-process thread ordinal printed in
/// log-record headers (obs::CurrentThreadId when obs is linked).
using ThreadOrdinalFn = uint32_t (*)();

void SetThreadOrdinalProvider(ThreadOrdinalFn fn);

/// Thread ordinal from the registered provider, or 0 when none is
/// registered (the logger then prints "t00").
uint32_t CurrentThreadOrdinal();

}  // namespace hooks
}  // namespace nebula

#endif  // NEBULA_COMMON_OBS_HOOKS_H_
