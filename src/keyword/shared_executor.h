#ifndef NEBULA_KEYWORD_SHARED_EXECUTOR_H_
#define NEBULA_KEYWORD_SHARED_EXECUTOR_H_

#include <vector>

#include "common/status.h"
#include "keyword/engine.h"
#include "keyword/mini_db.h"
#include "keyword/query_types.h"
#include "storage/query.h"

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

/// Shared execution of the keyword-query group generated from a single
/// annotation (the multi-query optimization of §6).
///
/// The queries in a group overlap heavily: the same embedded reference is
/// often emitted in several forms (e.g. a Type-2 and a Type-3 variant), and
/// the underlying engine compiles those to identical SQL. Instead of
/// executing each query in isolation, the shared executor finds repeated
/// statements across the whole group (GeneratedSql::StructuralHash, each
/// hash match confirmed by SameStatement), executes each distinct
/// statement exactly once, and appends its rows to every consuming
/// query's hits at that query's confidence; MergeHits then folds each
/// query's hits as the isolated path does.
///
/// The group runs on the calling thread: distinct statements execute in
/// plan order, and hits are distributed and counters folded as each one
/// finishes (see DESIGN.md "Concurrency model").
///
/// Observability: every group feeds the nebula_shared_exec_* counters and
/// the nebula_sql_duration_us histogram, and charges its shared-statement
/// count to the calling operation's wide event.
class SharedKeywordExecutor {
 public:
  explicit SharedKeywordExecutor(KeywordSearchEngine* engine)
      : engine_(engine) {}

  /// Executes all queries; `results[i]` are the merged hits of queries[i]
  /// (identical to what engine->Search(queries[i]) would return).
  ///
  /// `plans`, when given, must hold the compiled statements of queries[i]
  /// at plans[i] (what engine->CompileToSql(queries[i]) returns); Phase 1
  /// then skips recompilation entirely. This is how the core layer's
  /// keyword->configuration plan cache feeds the group without the
  /// keyword layer knowing the cache exists.
  [[nodiscard]] Status ExecuteGroup(
      const std::vector<KeywordQuery>& queries,
      std::vector<std::vector<SearchHit>>* results,
      const MiniDb* mini_db = nullptr,
      const std::vector<std::vector<GeneratedSql>>* plans = nullptr);

  const SharedExecutionStats& stats() const { return stats_; }

 private:
  KeywordSearchEngine* engine_;
  SharedExecutionStats stats_;
};

}  // namespace nebula

#endif  // NEBULA_KEYWORD_SHARED_EXECUTOR_H_
