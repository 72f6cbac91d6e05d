#ifndef NEBULA_STORAGE_QUERY_H_
#define NEBULA_STORAGE_QUERY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/escape.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "storage/value.h"

namespace nebula {

/// Comparison operators supported by the select executor.
enum class CompareOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  /// String column contains the (lower-cased) token; served by the
  /// value index's posting list on a declared text column, otherwise by
  /// scanning.
  kContainsToken,
};

const char* CompareOpName(CompareOp op);

/// A single column comparison.
struct Predicate {
  std::string column;
  CompareOp op = CompareOp::kEq;
  Value value;

  /// The predicate as escaped SQL text (`column op 'literal'`), built
  /// through the sql/escape layer so a value containing quotes, `;--`,
  /// or control bytes can never alter the fragment's structure. The
  /// escapes are the identity on alphanumeric values, so benign
  /// predicates render exactly as they always did.
  sql::SqlFragment ToFragment() const;
  std::string ToString() const;
};

/// A conjunctive single-table selection, the building block the
/// keyword-search layer compiles its configurations into.
struct SelectQuery {
  std::string table;
  std::vector<Predicate> predicates;

  std::string ToSqlString() const;
};

/// Execution counters; the benchmark harness uses these as a
/// deterministic, hardware-independent cost measure alongside wall time.
struct ExecStats {
  uint64_t rows_examined = 0;
  uint64_t index_lookups = 0;
  uint64_t matches = 0;

  ExecStats& operator+=(const ExecStats& other) {
    rows_examined += other.rows_examined;
    index_lookups += other.index_lookups;
    matches += other.matches;
    return *this;
  }

  /// Zeroes all counters. Counters otherwise accumulate across calls, so
  /// per-round measurements (e.g. the Fig. 13 bench) must Reset between
  /// rounds.
  void Reset() { *this = ExecStats(); }
};

/// A two-table join along a declared FK-PK relationship, with optional
/// conjunctive predicates on each side. The join condition itself is
/// implied by the catalog's foreign keys (the only joins the keyword
/// layer and the SQL front-end need).
struct JoinQuery {
  std::string left_table;
  std::string right_table;
  std::vector<Predicate> left_predicates;
  std::vector<Predicate> right_predicates;
};

/// Per-executor breakdown of which access path served Execute calls:
/// `index_path` = resolved through the table's unified inverted value
/// index; `legacy_path` = hash-index / posting-list / scan evaluation. The
/// keyword layer exports these as obs counters (storage cannot reach obs).
struct IndexPathStats {
  uint64_t index_path = 0;
  uint64_t legacy_path = 0;
};

/// Evaluates conjunctive selections over the catalog.
///
/// Strategy: if any equality predicate exists, probe the column hash index
/// and verify the residue; if a kContainsToken predicate is on a declared
/// text column, drive from its posting list (Table::LookupToken) and
/// verify the residue; otherwise fall back to a scan. An optional row
/// restriction (`restrict`) confines evaluation to a subset of rows — this
/// is how the focal-spreading miniDB search reuses the same executor. A
/// restriction must be sorted ascending and duplicate-free
/// (MiniDb::ForTable's lists are): index probes binary-search it, and a
/// restricted scan walks it in place, skipping ids at or past
/// `num_rows()`.
///
/// Value-index fast path: with `use_value_index` (the default) an
/// unrestricted query whose predicates are token-containment probes (plus
/// arbitrary non-equality residues) is answered by intersecting the
/// table's inverted value-index posting lists instead of re-tokenizing
/// candidate cell text per row. Results AND ExecStats are bit-identical
/// to the legacy path: the counters the legacy access path would have
/// produced are computed from index metadata and replayed, so any
/// caller-visible contract (differential transcripts, parallel-vs-
/// sequential stats totals) is preserved with the knob on or off.
class QueryExecutor {
 public:
  explicit QueryExecutor(const Catalog* catalog) : catalog_(catalog) {}

  /// Toggles the value-index fast path (on by default). Off forces the
  /// bit-identical legacy evaluation, which is also the automatic
  /// fallback when a table has no usable value index.
  void set_use_value_index(bool use) { use_value_index_ = use; }
  bool use_value_index() const { return use_value_index_; }

  /// `restrict`, when given, is the sorted, duplicate-free list of rows
  /// the query may return. `allow_text_index = false` forces
  /// kContainsToken predicates onto the scan path even on a declared text
  /// column — modeling an RDBMS that must evaluate LIKE-style predicates
  /// by scanning.
  [[nodiscard]] Result<std::vector<Table::RowId>> Execute(
      const SelectQuery& query,
      const std::vector<Table::RowId>* restrict = nullptr,
      bool allow_text_index = true);

  /// Executes an FK join: returns (left row, right row) pairs satisfying
  /// both predicate sets and connected by a foreign key declared between
  /// the two tables (either direction). Fails with NotFound when no FK
  /// links them. Strategy: evaluate the side with the cheaper access
  /// path first, then probe the other side through the key's hash index.
  [[nodiscard]] Result<std::vector<std::pair<Table::RowId, Table::RowId>>> ExecuteJoin(
      const JoinQuery& query);

  /// Counters accumulated across all Execute calls since construction or
  /// the last ResetStats().
  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Folds counters measured by a detached (per-call) executor into this
  /// one. The keyword engine's const execution paths each run their own
  /// executor, so concurrent callers never share an accumulator; the
  /// caller folds their counters back here.
  void AccumulateStats(const ExecStats& other) { stats_ += other; }

  /// Which access path served this executor's Execute calls.
  const IndexPathStats& path_stats() const { return path_stats_; }

 private:
  bool RowMatches(const Table& table, Table::RowId row,
                  const std::vector<Predicate>& preds,
                  const std::vector<int>& ordinals);

  /// The value-index fast path; nullopt when the query shape or the
  /// table's index state requires the legacy path. On success, stats_
  /// has been updated with the exact counters the legacy path would have
  /// produced.
  std::optional<std::vector<Table::RowId>> TryValueIndexPath(
      const Table& table, const SelectQuery& query,
      const std::vector<int>& ordinals, bool allow_text_index);

  const Catalog* catalog_;
  ExecStats stats_;
  IndexPathStats path_stats_;
  bool use_value_index_ = true;
};

}  // namespace nebula

#endif  // NEBULA_STORAGE_QUERY_H_
