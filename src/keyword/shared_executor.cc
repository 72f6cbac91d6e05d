#include "keyword/shared_executor.h"

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

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
#include "storage/schema.h"
#include "storage/table.h"

namespace nebula {

namespace {

/// One distinct statement plus every (query, confidence) pair consuming
/// its row set.
struct PlannedSql {
  GeneratedSql sql;
  // (query index, confidence under that query's plan).
  std::vector<std::pair<size_t, double>> consumers;
};

/// Appends one executed statement's rows to every consuming query's hits,
/// each at that query's confidence for the statement.
void Distribute(const PlannedSql& planned,
                const KeywordSearchEngine::StatementRows& selected,
                std::vector<std::vector<SearchHit>>* per_query) {
  for (const auto& [qi, conf] : planned.consumers) {
    std::vector<SearchHit>& hits = (*per_query)[qi];
    for (Table::RowId r : selected.rows) {
      hits.push_back({TupleId{selected.table_id, r}, conf});
    }
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
  // plans), find repeated statements group-wide.
  std::unordered_multimap<uint64_t, size_t> index_by_hash;
  std::vector<PlannedSql> plan;
  KeywordSearchEngine::MappingCache mapping_cache;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    std::vector<GeneratedSql> compiled =
        plans != nullptr ? (*plans)[qi]
                         : engine_->CompileToSql(queries[qi], &mapping_cache);
    for (auto& sql : compiled) {
      ++stats_.total_sql;
      const uint64_t hash = sql.StructuralHash();
      auto [it, end] = index_by_hash.equal_range(hash);
      while (it != end && !plan[it->second].sql.SameStatement(sql)) ++it;
      if (it == end) {
        index_by_hash.emplace(hash, plan.size());
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

  // Phase 2: execute each distinct statement once, in plan order; append
  // its rows to every consumer's hits at that consumer's confidence.
  std::vector<std::vector<SearchHit>> per_query_hits(queries.size());
  for (const PlannedSql& planned : plan) {
    // Fault injection: lets tests fail an individual distinct statement
    // mid-group.
    NEBULA_INJECT_FAULT(kFaultKeywordSharedStatement);
    ExecStats one;
    Stopwatch watch;
    Result<KeywordSearchEngine::StatementRows> selected =
        engine_->ExecuteRows(planned.sql, mini_db, &one);
    if constexpr (obs::kEnabled) {
      Metrics().sql_duration_us->Observe(watch.ElapsedMicros());
    }
    // Fold before the error check: a failing statement's partial
    // counters still count (same as the historical in-engine path).
    engine_->AccumulateStats(one);
    stats_.exec += one;
    NEBULA_RETURN_NOT_OK(selected.status());
    Distribute(planned, *selected, &per_query_hits);
  }

  if constexpr (obs::kEnabled) {
    Metrics().rows_examined->Increment(stats_.exec.rows_examined);
    // The distinct-statement executions already charged the calling
    // operation's context through ExecuteRows; only sharing is counted here.
    if (obs::EventContext* ctx = obs::CurrentEventContext()) {
      ctx->sql_shared += stats_.total_sql - stats_.distinct_sql;
    }
  }

  // Phase 3: per-query merge, identical to the isolated path.
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    (*results)[qi] =
        KeywordSearchEngine::MergeHits(std::move(per_query_hits[qi]));
  }
  return Status::OK();
}

}  // namespace nebula
