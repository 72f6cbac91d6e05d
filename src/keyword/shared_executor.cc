#include "keyword/shared_executor.h"

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/fault.h"
#include "common/fault_points.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "keyword/engine.h"
#include "keyword/mini_db.h"
#include "keyword/query_types.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "storage/query.h"

namespace nebula {

namespace {

/// One canonical statement plus every (query, confidence) pair consuming
/// its row set.
struct PlannedSql {
  GeneratedSql sql;
  // (query index, confidence under that query's plan).
  std::vector<std::pair<size_t, double>> consumers;
};

/// Hands one executed statement's row set to all consuming queries with
/// their own confidences, in plan order.
void Distribute(const PlannedSql& planned, const std::vector<SearchHit>& hits,
                std::vector<std::vector<std::vector<SearchHit>>>* per_query) {
  for (const auto& [qi, conf] : planned.consumers) {
    std::vector<SearchHit> scaled;
    scaled.reserve(hits.size());
    for (const auto& h : hits) {
      scaled.push_back({h.tuple, h.confidence * conf});
    }
    (*per_query)[qi].push_back(std::move(scaled));
  }
}

/// Process-wide instruments, resolved once (the registry hands out
/// stable pointers).
struct SharedExecMetrics {
  obs::Counter* groups;
  obs::Counter* sql_executed;
  obs::Counter* sql_shared;
  obs::Counter* rows_examined;
  obs::Histogram* sql_duration_us;
};

const SharedExecMetrics& Metrics() {
  static const SharedExecMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    SharedExecMetrics out;
    out.groups = r.GetCounter("nebula_shared_exec_groups_total", {},
                              "Query groups run through the shared executor");
    out.sql_executed = r.GetCounter(
        "nebula_shared_exec_sql_total", {{"outcome", "executed"}},
        "Canonical-SQL cache outcomes: executed = distinct statements run, "
        "shared = duplicates served from the group cache");
    out.sql_shared = r.GetCounter("nebula_shared_exec_sql_total",
                                  {{"outcome", "shared"}}, "");
    out.rows_examined =
        r.GetCounter("nebula_shared_exec_rows_examined_total", {},
                     "Rows examined executing distinct statements");
    out.sql_duration_us =
        r.GetHistogram("nebula_sql_duration_us", {},
                       "Wall time of one distinct SQL statement execution");
    return out;
  }();
  return m;
}

}  // namespace

Status SharedKeywordExecutor::ExecuteGroup(
    const std::vector<KeywordQuery>& queries,
    std::vector<std::vector<SearchHit>>* results, const MiniDb* mini_db,
    const std::vector<std::vector<GeneratedSql>>* plans) {
  results->clear();
  results->resize(queries.size());
  stats_.Reset();
  if (plans != nullptr && plans->size() != queries.size()) {
    return Status::InvalidArgument(
        "precompiled plan count does not match query count");
  }

  // Phase 1: compile every query (or take the caller's precompiled
  // plans), canonicalize statements group-wide.
  std::unordered_map<std::string, size_t> index_by_key;
  std::vector<PlannedSql> plan;
  KeywordSearchEngine::MappingCache mapping_cache;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    std::vector<GeneratedSql> compiled =
        plans != nullptr ? (*plans)[qi]
                         : engine_->CompileToSql(queries[qi], &mapping_cache);
    for (auto& sql : compiled) {
      ++stats_.total_sql;
      std::string key = sql.CanonicalKey();
      auto it = index_by_key.find(key);
      if (it == index_by_key.end()) {
        index_by_key.emplace(std::move(key), plan.size());
        PlannedSql planned;
        planned.consumers.push_back({qi, sql.confidence});
        planned.sql = std::move(sql);
        plan.push_back(std::move(planned));
      } else {
        plan[it->second].consumers.push_back({qi, sql.confidence});
      }
    }
  }
  stats_.distinct_sql = plan.size();

  if constexpr (obs::kEnabled) {
    const SharedExecMetrics& m = Metrics();
    m.groups->Increment();
    m.sql_executed->Increment(stats_.distinct_sql);
    m.sql_shared->Increment(stats_.total_sql - stats_.distinct_sql);
    // Per-table breakdown of the planned statements (counted at planning
    // time): one labeled-counter lookup per table per group.
    std::map<std::string, uint64_t> per_table;
    for (const PlannedSql& planned : plan) ++per_table[planned.sql.query.table];
    auto& registry = obs::MetricsRegistry::Global();
    for (const auto& [table, count] : per_table) {
      registry
          .GetCounter("nebula_sql_statements_total", {{"table", table}},
                      "Distinct statements executed, by target table")
          ->Increment(count);
    }
  }

  // Phase 2: execute each distinct statement once, in plan order; hand the
  // row set to all consumers with their own confidences.
  std::vector<std::vector<std::vector<SearchHit>>> per_query_hits(
      queries.size());
  for (const PlannedSql& planned : plan) {
    // Fault injection: lets tests fail an individual distinct statement
    // mid-group.
    NEBULA_INJECT_FAULT(kFaultKeywordSharedStatement);
    // Execute with confidence 1; scale per consumer on distribution.
    GeneratedSql unit = planned.sql;
    unit.confidence = 1.0;
    ExecStats one;
    Stopwatch watch;
    Result<std::vector<SearchHit>> hits =
        engine_->ExecuteSql(unit, mini_db, &one);
    if constexpr (obs::kEnabled) {
      Metrics().sql_duration_us->Observe(watch.ElapsedMicros());
    }
    // Fold before the error check: a failing statement's partial
    // counters still count (same as the historical in-engine path).
    engine_->AccumulateStats(one);
    stats_.exec += one;
    NEBULA_RETURN_NOT_OK(hits.status());
    Distribute(planned, *hits, &per_query_hits);
  }

  if constexpr (obs::kEnabled) {
    Metrics().rows_examined->Increment(stats_.exec.rows_examined);
    // The distinct-statement executions already charged the calling
    // operation's context through ExecuteSql; only sharing is counted here.
    if (obs::EventContext* ctx = obs::CurrentEventContext()) {
      ctx->sql_shared += stats_.total_sql - stats_.distinct_sql;
    }
  }

  // Phase 3: per-query merge, identical to the isolated path.
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    (*results)[qi] = KeywordSearchEngine::MergeHits(per_query_hits[qi]);
  }
  return Status::OK();
}

}  // namespace nebula
