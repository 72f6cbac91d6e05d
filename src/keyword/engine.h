#ifndef NEBULA_KEYWORD_ENGINE_H_
#define NEBULA_KEYWORD_ENGINE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "keyword/mini_db.h"
#include "keyword/query_types.h"
#include "meta/nebula_meta.h"
#include "storage/catalog.h"
#include "storage/query.h"
#include "storage/table.h"

namespace nebula {

/// A candidate SQL statement compiled from one interpretation
/// (configuration) of a keyword query, with the configuration confidence.
struct GeneratedSql {
  SelectQuery query;
  double confidence = 0.0;

  /// Display form of the statement (table + sorted predicates). Not
  /// injective for doubles: literals render through Value::ToString's
  /// `%.6g`, so 1.0000001 and 1.0000002 share a key. Duplicate
  /// elimination uses StructuralHash and SameStatement instead.
  std::string CanonicalKey() const;

  /// Hash of the lower-cased table and the predicate multiset.
  /// SameStatement implies equal hashes.
  uint64_t StructuralHash() const;
  /// True when both select the same rows: tables equal ignoring ASCII
  /// case, and the predicates equal as multisets of (column, op, value),
  /// a double compared by bit pattern (so a NaN literal equals itself).
  bool SameStatement(const GeneratedSql& other) const;
};

/// Metadata-driven keyword search over the relational catalog — Nebula's
/// from-scratch implementation of the black-box search technique the paper
/// builds on (Bergamaschi et al. [7] style).
///
/// Pipeline: (1) map each keyword to candidate schema items and value
/// domains using NebulaMeta plus the declared text columns' posting lists;
/// (2) combine the mappings into configurations and compile each to a
/// conjunctive SQL statement with a confidence weight; (3) execute the SQL
/// (optionally restricted to a MiniDb) and merge the per-tuple confidences.
class KeywordSearchEngine {
 public:
  KeywordSearchEngine(const Catalog* catalog, const NebulaMeta* meta,
                      KeywordSearchParams params = {});

  /// Full search: mapping + compilation + execution.
  [[nodiscard]] Result<std::vector<SearchHit>> Search(const KeywordQuery& query,
                                        const MiniDb* mini_db = nullptr);

  /// Thread-safe variant of Search: touches only shared-immutable engine
  /// state and reports execution counters into `stats` (may be null)
  /// instead of the engine's accumulator. Safe to call concurrently from
  /// several threads; fold the counters back with AccumulateStats.
  ///
  /// `*stats` is OVERWRITTEN with this call's counters, never
  /// accumulated into: a caller that reuses one ExecStats across calls
  /// and folds each result with AccumulateStats would otherwise fold
  /// call 1's counters again with call 2's (double counting). On an
  /// error return `*stats` is left untouched.
  [[nodiscard]] Result<std::vector<SearchHit>> Search(const KeywordQuery& query,
                                        const MiniDb* mini_db,
                                        ExecStats* stats) const;

  /// Step 1 — candidate mappings for a single keyword, best-first,
  /// thresholded and truncated per params. Schema and value-domain scores
  /// come from NebulaMeta::ScoreWord, the memo Stage 1 fills.
  std::vector<KeywordMapping> MapKeyword(const std::string& word) const;

  /// Memoization table for MapKeyword, scoped by the caller (one per
  /// query group: the same keyword — typically the concept word — appears
  /// in most queries of a group, and mapping it is the expensive part of
  /// compilation).
  using MappingCache =
      std::unordered_map<std::string, std::vector<KeywordMapping>>;

  /// Steps 1+2 — the SQL plan for a query. `cache`, when given, memoizes
  /// keyword mappings across calls.
  std::vector<GeneratedSql> CompileToSql(const KeywordQuery& query,
                                         MappingCache* cache = nullptr) const;

  /// Steps 1+2 for a query group, with one MappingCache:
  /// plans[i] == CompileToSql(queries[i]). The shape
  /// SharedKeywordExecutor::ExecuteGroup takes.
  std::vector<std::vector<GeneratedSql>> CompileGroup(
      const std::vector<KeywordQuery>& queries) const;

  /// Step 3 over a precompiled plan: what the thread-safe Search does
  /// after CompileToSql. Exposed so the plan cache (core layer) can skip
  /// recompilation; same stats contract as Search.
  [[nodiscard]] Result<std::vector<SearchHit>> SearchPlan(
      const std::vector<GeneratedSql>& plan, const MiniDb* mini_db,
      ExecStats* stats) const;

  /// The rows one statement selected, all in table `table_id`.
  struct StatementRows {
    uint32_t table_id = 0;
    std::vector<Table::RowId> rows;
  };

  /// Step 3 — executes one generated statement and returns its rows; the
  /// statement's confidence is not read. Thread-safe like the const
  /// Search: per-call executor, counters into `stats` (may be null),
  /// which is overwritten, not accumulated into. Each statement that runs
  /// is timed once, into nebula_sql_duration_us, and charged to the
  /// calling operation's wide event.
  [[nodiscard]] Result<StatementRows> ExecuteRows(const GeneratedSql& sql,
                                                  const MiniDb* mini_db,
                                                  ExecStats* stats) const;

  /// Merges the hits of the statements of the *same* keyword query,
  /// concatenated in statement order: per-tuple max confidence (the
  /// first statement's on a tie), ranked by (confidence desc, tuple asc).
  /// One sort by tuple and one fold; cross-query aggregation is
  /// TupleIdentifier's job.
  static std::vector<SearchHit> MergeHits(std::vector<SearchHit> hits);

  const ExecStats& stats() const { return executor_.stats(); }
  void ResetStats() { executor_.ResetStats(); }
  /// Folds counters reported by the const Search/SearchPlan/ExecuteRows
  /// overloads into the engine's accumulator. Stage 2 calls it once per
  /// distinct statement, in plan order.
  void AccumulateStats(const ExecStats& stats) {
    executor_.AccumulateStats(stats);
  }
  const KeywordSearchParams& params() const { return params_; }
  KeywordSearchParams& params() { return params_; }
  const NebulaMeta* meta() const { return meta_; }

 private:
  /// idf-weighted score for `token` appearing in a declared text column.
  double TextMappingScore(const Table& table, size_t column,
                          const std::string& token) const;

  const Catalog* catalog_;
  const NebulaMeta* meta_;
  KeywordSearchParams params_;
  QueryExecutor executor_;
};

}  // namespace nebula

#endif  // NEBULA_KEYWORD_ENGINE_H_
