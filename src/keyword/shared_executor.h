#ifndef NEBULA_KEYWORD_SHARED_EXECUTOR_H_
#define NEBULA_KEYWORD_SHARED_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "keyword/engine.h"
#include "keyword/mini_db.h"
#include "storage/query.h"
#include "storage/schema.h"

namespace nebula {

/// Statistics of one shared execution round (reported by the Fig. 13
/// benchmark).
struct SharedExecutionStats {
  size_t total_sql = 0;     ///< SQL statements across all queries.
  size_t distinct_sql = 0;  ///< Statements actually executed.
  /// Execution counters of this group only (the engine accumulator keeps
  /// the running total across groups).
  ExecStats exec;
  double sharing_ratio() const {
    return total_sql == 0
               ? 0.0
               : 1.0 - static_cast<double>(distinct_sql) /
                           static_cast<double>(total_sql);
  }

  /// Zeroes the counters. ExecuteGroup calls this on entry, so the
  /// reported sharing ratio is always per-group, never accumulated across
  /// rounds.
  void Reset() { *this = SharedExecutionStats(); }
};

/// One row a statement returned, handed to one query whose plan holds the
/// statement: the tuple, the query's index in the group, and the
/// statement's confidence under that query's plan. 24 bytes, where a
/// TupleId member would pad it to 32.
struct GroupRow {
  uint32_t table_id;
  uint32_t query;
  uint64_t row;
  double confidence;

  TupleId tuple() const { return {table_id, row}; }
};

/// Shared execution of the keyword-query group generated from a single
/// annotation (the multi-query optimization of §6), Stage 2's one
/// execution path.
///
/// The queries in a group overlap: the same embedded reference is often
/// emitted in several forms (e.g. a Type-2 and a Type-3 variant), and
/// those compile to identical SQL. The executor finds repeated statements
/// across the group's plans (GeneratedSql::StructuralHash, each hash match
/// confirmed by SameStatement), executes each distinct statement exactly
/// once, in plan order, on the calling thread, and hands its rows to every
/// query whose plan holds it, at that query's confidence.
///
/// Observability: every group feeds the nebula_shared_exec_* counters and
/// charges its shared-statement count to the calling operation's wide
/// event; ExecuteRows times each statement.
class SharedKeywordExecutor {
 public:
  explicit SharedKeywordExecutor(KeywordSearchEngine* engine)
      : engine_(engine) {}

  /// Executes the group whose compiled plans are `plans`: plans[i] is
  /// what engine->CompileToSql(queries[i]) returns, as
  /// KeywordSearchEngine::CompileGroup and PlanCache::GetOrCompileGroup
  /// give them. `*rows` becomes one GroupRow per returned row per query
  /// whose plan holds the statement, in ascending query order and, within
  /// a query, in plan order. Each distinct statement's counters fold into
  /// the engine's ExecStats once, in plan order; a failing statement's
  /// partial counters count too.
  [[nodiscard]] Status ExecuteGroup(
      const std::vector<std::vector<GeneratedSql>>& plans,
      const MiniDb* mini_db, std::vector<GroupRow>* rows);

  const SharedExecutionStats& stats() const { return stats_; }

 private:
  KeywordSearchEngine* engine_;
  SharedExecutionStats stats_;
};

}  // namespace nebula

#endif  // NEBULA_KEYWORD_SHARED_EXECUTOR_H_
