#include "obs/event.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/fault.h"
#include "common/fault_points.h"
#include "obs/export.h"

namespace nebula {
namespace obs {

namespace {

void AppendField(std::string* out, const char* key, uint64_t value,
                 bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += '"';
  *out += key;
  *out += "\":";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  *out += buf;
}

void AppendField(std::string* out, const char* key, const std::string& value,
                 bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += '"';
  *out += key;
  *out += "\":\"";
  *out += JsonEscape(value);
  *out += '"';
}

void AppendField(std::string* out, const char* key, bool value, bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += '"';
  *out += key;
  *out += "\":";
  *out += value ? "true" : "false";
}

/// The calling thread's installed context (see EventContext).
thread_local EventContext* t_current_context = nullptr;

}  // namespace

std::string WideEventToJson(const WideEvent& event) {
  std::string out = "{";
  bool first = true;
  AppendField(&out, "op", event.op, &first);
  AppendField(&out, "op_id", event.op_id, &first);
  AppendField(&out, "annotation", event.annotation, &first);
  AppendField(&out, "thread", static_cast<uint64_t>(event.thread), &first);
  AppendField(&out, "duration_us", event.duration_us, &first);
  AppendField(&out, "store_us", event.store_us, &first);
  AppendField(&out, "generation_us", event.generation_us, &first);
  AppendField(&out, "map_generation_us", event.map_generation_us, &first);
  AppendField(&out, "context_adjust_us", event.context_adjust_us, &first);
  AppendField(&out, "query_formation_us", event.query_formation_us, &first);
  AppendField(&out, "search_us", event.search_us, &first);
  AppendField(&out, "search_mode", event.search_mode, &first);
  AppendField(&out, "mini_db_us", event.mini_db_us, &first);
  AppendField(&out, "verification_us", event.verification_us, &first);
  AppendField(&out, "plan_cache_hits", event.plan_cache_hits, &first);
  AppendField(&out, "plan_cache_misses", event.plan_cache_misses, &first);
  AppendField(&out, "index_lookups", event.index_lookups, &first);
  AppendField(&out, "rows_examined", event.rows_examined, &first);
  AppendField(&out, "sql_executed", event.sql_executed, &first);
  AppendField(&out, "sql_shared", event.sql_shared, &first);
  if (!event.verification.empty()) {
    AppendField(&out, "verification", event.verification, &first);
  }
  AppendField(&out, "spam_suspected", event.spam_suspected, &first);
  AppendField(&out, "slow", event.slow, &first);
  out += '}';
  return out;
}

EventContext* CurrentEventContext() { return t_current_context; }

void FillEventFromContext(WideEvent* event, const EventContext& context) {
  event->plan_cache_hits = context.plan_cache_hits;
  event->plan_cache_misses = context.plan_cache_misses;
  event->index_lookups = context.index_lookups;
  event->rows_examined = context.rows_examined;
  event->sql_executed = context.sql_executed;
  event->sql_shared = context.sql_shared;
}

ScopedEventContext::ScopedEventContext(EventLog* log) {
  if (log != nullptr) context_.op_id = log->NextOpId();
  previous_ = t_current_context;
  t_current_context = &context_;
}

ScopedEventContext::~ScopedEventContext() { t_current_context = previous_; }

EventLog::EventLog(Options options)
    : options_(options), sample_rng_(options.seed) {}

void EventLog::SetSink(Sink sink) {
  MutexLock lock(mutex_);
  sink_ = std::move(sink);
}

void EventLog::Record(const WideEvent& event) {
  const bool always =
      options_.slow_us != 0 && event.duration_us >= options_.slow_us;
  std::string line;
  {
    MutexLock lock(mutex_);
    // Sampling draw under the lock so the Rng stream is deterministic
    // for a given arrival order. Slow events bypass the draw — a slow
    // query must never be sampled away.
    if (!always && options_.sample_rate < 1.0 &&
        !sample_rng_.Bernoulli(options_.sample_rate)) {
      sampled_out_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    line = WideEventToJson(event);
    // Fault injection: a fired "obs.eventlog.write" fault models a sink
    // that cannot accept the line (disk full, peer gone). The event is
    // dropped and counted; engine results are never touched.
    bool write_ok = !NEBULA_FAULT_SHOULD_FAIL(kFaultObsEventLogWrite);
    if (write_ok && sink_) {
      write_ok = sink_(line);
    }
    if (!write_ok) {
      write_failures_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (options_.capacity > 0) {
      if (ring_.size() == options_.capacity) {
        ring_.pop_front();
        ring_dropped_.fetch_add(1, std::memory_order_relaxed);
      }
      ring_.push_back(std::move(line));
    }
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::string> EventLog::Snapshot() const {
  MutexLock lock(mutex_);
  return std::vector<std::string>(ring_.begin(), ring_.end());
}

std::string EventLog::DumpJsonLines() const {
  std::string out;
  MutexLock lock(mutex_);
  for (const std::string& line : ring_) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace obs
}  // namespace nebula
