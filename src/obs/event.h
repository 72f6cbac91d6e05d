#ifndef NEBULA_OBS_EVENT_H_
#define NEBULA_OBS_EVENT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/random.h"
#include "common/sync.h"
#include "obs/metrics.h"

namespace nebula {
namespace obs {

/// Wide events: the engine's one record per operation.
///
/// Where the metrics layer answers "how is the system doing in
/// aggregate", the wide-event log ties a *single* operation — an
/// annotation insert or a search — to everything that happened on its
/// behalf: stage and Stage-1 phase durations, the search mode, the
/// plan-cache / result-cache / index path it took, rows examined, the
/// verification outcome, and the thread that ran it. Records are JSON
/// lines, so the log can be shipped, grepped, and mined later to
/// re-weight configurations (see DESIGN.md §7).

/// One record. Counter fields are totals attributed to the operation;
/// all of that work runs on the operation's own thread.
struct WideEvent {
  std::string op;           ///< "insert" | "search"
  uint64_t op_id = 0;       ///< unique within one EventLog, 1-based
  uint64_t annotation = 0;  ///< the annotation inserted or searched for
  uint32_t thread = 0;      ///< obs::CurrentThreadId of the recording thread
  uint64_t duration_us = 0;

  // Per-stage durations (a search fills generation and search only).
  uint64_t store_us = 0;
  uint64_t generation_us = 0;
  // Stage-1 phases; they sum to at most generation_us.
  uint64_t map_generation_us = 0;
  uint64_t context_adjust_us = 0;
  uint64_t query_formation_us = 0;
  uint64_t search_us = 0;
  std::string search_mode;  ///< "full_database" | "focal_spreading"
  uint64_t mini_db_us = 0;  ///< focal spreading's BuildMiniDb; else 0
  uint64_t verification_us = 0;

  // Cache / index path.
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t index_lookups = 0;  ///< hash-index / posting-list driver probes
  uint64_t rows_examined = 0;
  uint64_t sql_executed = 0;  ///< distinct statements actually executed
  uint64_t sql_shared = 0;    ///< statements deduplicated by sharing

  // Outcome (inserts).
  std::string verification;  ///< "auto_accepted"|"auto_rejected"|"pending"|""
  bool spam_suspected = false;
  bool slow = false;  ///< duration_us >= the log's slow threshold
};

/// Serializes one event as a single JSON object (no trailing newline).
/// Field order is fixed so logs diff cleanly.
std::string WideEventToJson(const WideEvent& event);

/// Per-operation attribution context. The engine installs one as the
/// calling thread's current context for the duration of an operation
/// (ScopedEventContext); instrumentation sites deep in the stack — the
/// plan cache, statement execution, the shared executor — bump its
/// counters via CurrentEventContext(). A context is reached only from the
/// thread that installed it: nothing carries it to another thread, and
/// all Stage-2 work runs on the operation's own thread. So the counters
/// are plain integers.
struct EventContext {
  uint64_t op_id = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t index_lookups = 0;
  uint64_t rows_examined = 0;
  uint64_t sql_executed = 0;
  uint64_t sql_shared = 0;
};

/// The calling thread's current context, or nullptr when no operation is
/// in flight on this thread (instrumentation sites must null-check).
EventContext* CurrentEventContext();

/// Copies the context's counters into the matching event fields.
void FillEventFromContext(WideEvent* event, const EventContext& context);

class EventLog;

/// Installs a fresh context (with a newly assigned op_id when `log` is
/// non-null) as the calling thread's current context; restores the
/// previous one on destruction. Stack-only.
class ScopedEventContext {
 public:
  explicit ScopedEventContext(EventLog* log);
  ~ScopedEventContext();

  ScopedEventContext(const ScopedEventContext&) = delete;
  ScopedEventContext& operator=(const ScopedEventContext&) = delete;

  EventContext* context() { return &context_; }
  uint64_t op_id() const { return context_.op_id; }

 private:
  EventContext context_;
  EventContext* previous_;
};

/// The event log: formats events to JSON lines and keeps the newest
/// `capacity` of them in a ring; an optional sink additionally receives
/// every recorded line (a file writer, a socket, a test collector).
///
/// Sampling: each event is kept with probability `sample_rate` (drawn
/// from a seeded Rng, so runs are reproducible); events whose
/// duration_us >= `slow_us` are ALWAYS kept — slow queries must never be
/// sampled away. A failing sink (or a fired "obs.eventlog.write" fault)
/// drops that event and bumps write_failures(); it never throws and
/// never affects engine results.
class EventLog {
 public:
  /// Returns false when the write failed; the event is then counted as
  /// dropped.
  using Sink = std::function<bool(const std::string& json_line)>;

  struct Options {
    size_t capacity = 256;     ///< ring size; 0 disables the ring
    double sample_rate = 1.0;  ///< probability an event is kept
    uint64_t slow_us = 0;      ///< always-keep threshold; 0 = disabled
    uint64_t seed = 0;         ///< sampling Rng seed
  };

  explicit EventLog(Options options);

  /// Assigns the next operation id (1-based, atomic).
  uint64_t NextOpId() {
    return next_op_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Formats and records `event` (subject to sampling / slow rules).
  void Record(const WideEvent& event);

  /// Installs `sink` (nullptr-able std::function clears it).
  void SetSink(Sink sink);

  /// Oldest-to-newest copy of the ring.
  std::vector<std::string> Snapshot() const;

  /// All ring lines joined with '\n' (trailing newline included when
  /// non-empty) — the JSON-lines dump.
  std::string DumpJsonLines() const;

  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t sampled_out() const {
    return sampled_out_.load(std::memory_order_relaxed);
  }
  uint64_t write_failures() const {
    return write_failures_.load(std::memory_order_relaxed);
  }
  uint64_t ring_dropped() const {
    return ring_dropped_.load(std::memory_order_relaxed);
  }

  const Options& options() const { return options_; }

 private:
  const Options options_;
  std::atomic<uint64_t> next_op_id_{0};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> sampled_out_{0};
  std::atomic<uint64_t> write_failures_{0};
  std::atomic<uint64_t> ring_dropped_{0};

  mutable Mutex mutex_{kLockRankObsEventLog};
  Rng sample_rng_ GUARDED_BY(mutex_);
  std::deque<std::string> ring_ GUARDED_BY(mutex_);
  Sink sink_ GUARDED_BY(mutex_);
};

}  // namespace obs
}  // namespace nebula

#endif  // NEBULA_OBS_EVENT_H_
