#include "keyword/shared_executor.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/fault_points.h"
#include "common/status.h"
#include "keyword/engine.h"
#include "keyword/mini_db.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "storage/query.h"
#include "storage/table.h"

namespace nebula {

namespace {

/// Process-wide instruments, resolved once (the registry hands out
/// stable pointers).
struct SharedExecMetrics {
  obs::Counter* groups;
  obs::Counter* sql_executed;
  obs::Counter* sql_shared;
  obs::Counter* rows_examined;
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
    return out;
  }();
  return m;
}

/// A statement of the group, its position counted in query order and, within
/// a query, in plan order.
struct KeyedSql {
  uint64_t hash;
  uint32_t position;
  const GeneratedSql* sql;
};

}  // namespace

Status SharedKeywordExecutor::ExecuteGroup(
    const std::vector<std::vector<GeneratedSql>>& plans, const MiniDb* mini_db,
    std::vector<GroupRow>* rows) {
  rows->clear();
  stats_.Reset();

  // Find repeated statements group-wide: sort the statements by (hash,
  // position) and confirm each hash match with SameStatement.
  size_t total = 0;
  for (const std::vector<GeneratedSql>& plan : plans) total += plan.size();
  std::vector<KeyedSql> keyed;
  keyed.reserve(total);
  for (const std::vector<GeneratedSql>& plan : plans) {
    for (const GeneratedSql& sql : plan) {
      keyed.push_back(
          {sql.StructuralHash(), static_cast<uint32_t>(keyed.size()), &sql});
    }
  }
  stats_.total_sql = keyed.size();
  std::sort(keyed.begin(), keyed.end(),
            [](const KeyedSql& a, const KeyedSql& b) {
              if (a.hash != b.hash) return a.hash < b.hash;
              return a.position < b.position;
            });
  // slots[k].leader is the position of the first statement equal to
  // statement k; `repeated` marks a first statement a later one repeats.
  struct Slot {
    uint32_t leader;
    bool repeated;
  };
  std::vector<Slot> slots(keyed.size());
  for (size_t run = 0; run < keyed.size();) {
    size_t end = run + 1;
    while (end < keyed.size() && keyed[end].hash == keyed[run].hash) ++end;
    for (size_t i = run; i < end; ++i) {
      const uint32_t k = keyed[i].position;
      slots[k] = {k, false};
      for (size_t j = run; j < i; ++j) {
        const uint32_t first = keyed[j].position;
        if (slots[first].leader == first &&
            keyed[j].sql->SameStatement(*keyed[i].sql)) {
          slots[k].leader = first;
          slots[first].repeated = true;
          break;
        }
      }
    }
    run = end;
  }

  // Execute each distinct statement once, in plan order, and hand its rows
  // to every query holding it, at that query's confidence. Only a repeated
  // statement's rows outlive its first position, in `kept`.
  const auto append = [rows](const KeywordSearchEngine::StatementRows& from,
                             uint32_t qi, double confidence) {
    for (Table::RowId r : from.rows) {
      rows->push_back({from.table_id, qi, r, confidence});
    }
  };
  std::vector<std::pair<uint32_t, KeywordSearchEngine::StatementRows>> kept;
  uint32_t k = 0;
  for (uint32_t qi = 0; qi < plans.size(); ++qi) {
    for (const GeneratedSql& sql : plans[qi]) {
      const Slot slot = slots[k];
      if (slot.leader != k) {
        const auto first =
            std::find_if(kept.begin(), kept.end(), [&slot](const auto& e) {
              return e.first == slot.leader;
            });
        append(first->second, qi, sql.confidence);
        ++k;
        continue;
      }
      // Fault injection: lets tests fail an individual distinct statement
      // mid-group.
      NEBULA_INJECT_FAULT(kFaultKeywordSharedStatement);
      ExecStats one;
      Result<KeywordSearchEngine::StatementRows> result =
          engine_->ExecuteRows(sql, mini_db, &one);
      // Fold before the error check: a failing statement's partial
      // counters still count.
      engine_->AccumulateStats(one);
      stats_.exec += one;
      NEBULA_RETURN_NOT_OK(result.status());
      ++stats_.distinct_sql;
      append(*result, qi, sql.confidence);
      if (slot.repeated) kept.emplace_back(k, std::move(*result));
      ++k;
    }
  }

  if constexpr (obs::kEnabled) {
    const SharedExecMetrics& m = Metrics();
    const size_t shared = stats_.total_sql - stats_.distinct_sql;
    m.groups->Increment();
    m.sql_executed->Increment(stats_.distinct_sql);
    m.sql_shared->Increment(shared);
    m.rows_examined->Increment(stats_.exec.rows_examined);
    // ExecuteRows already charged each distinct statement to the calling
    // operation's context; only sharing is counted here.
    if (obs::EventContext* ctx = obs::CurrentEventContext()) {
      ctx->sql_shared += shared;
    }
  }
  return Status::OK();
}

}  // namespace nebula
