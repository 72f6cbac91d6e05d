#include "storage/query.h"

#include <algorithm>
#include <iterator>

#include "common/fault.h"
#include "common/fault_points.h"
#include "common/status.h"
#include "common/string_util.h"
#include "sql/escape.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "storage/value.h"
#include "storage/value_index.h"

namespace nebula {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kContainsToken:
      return "CONTAINS";
  }
  return "?";
}

sql::SqlFragment Predicate::ToFragment() const {
  sql::SqlFragment f;
  f.Ident(column).Raw(" ").Raw(CompareOpName(op)).Raw(" ");
  f.Literal(value.ToString());
  return f;
}

std::string Predicate::ToString() const { return ToFragment().str(); }

std::string SelectQuery::ToSqlString() const {
  sql::SqlFragment f;
  f.Raw("SELECT * FROM ").Ident(table);
  if (!predicates.empty()) {
    f.Raw(" WHERE ");
    for (size_t i = 0; i < predicates.size(); ++i) {
      if (i > 0) f.Raw(" AND ");
      f.Concat(predicates[i].ToFragment());
    }
  }
  return f.str();
}

namespace {

bool CompareValues(const Value& cell, CompareOp op, const Value& target) {
  switch (op) {
    case CompareOp::kEq:
      return cell == target;
    case CompareOp::kNe:
      return cell != target;
    case CompareOp::kLt:
    case CompareOp::kLe:
    case CompareOp::kGt:
    case CompareOp::kGe: {
      // Ordered comparisons: numeric across numeric types, lexicographic
      // for strings; mixed string/number never matches.
      double a = 0, b = 0;
      int cmp = 0;
      if (cell.is_string() != target.is_string()) return false;
      if (cell.is_string()) {
        cmp = cell.AsString().compare(target.AsString());
      } else {
        a = cell.NumericValue();
        b = target.NumericValue();
        cmp = (a < b) ? -1 : (a > b ? 1 : 0);
      }
      switch (op) {
        case CompareOp::kLt:
          return cmp < 0;
        case CompareOp::kLe:
          return cmp <= 0;
        case CompareOp::kGt:
          return cmp > 0;
        default:
          return cmp >= 0;
      }
    }
    case CompareOp::kContainsToken: {
      if (!cell.is_string()) return false;
      const std::string needle = ToLower(target.ToString());
      for (const auto& tok : TokenizeForIndex(cell.AsString())) {
        if (tok == needle) return true;
      }
      return false;
    }
  }
  return false;
}

}  // namespace

std::optional<std::vector<Table::RowId>> QueryExecutor::TryValueIndexPath(
    const Table& table, const SelectQuery& query,
    const std::vector<int>& ordinals, bool allow_text_index) {
  // Shape check: at least one token-containment probe and no equality
  // predicate (an equality driver already makes the legacy path a cheap
  // hash probe; the value index buys nothing there).
  std::vector<size_t> token_preds;
  for (size_t i = 0; i < query.predicates.size(); ++i) {
    if (query.predicates[i].op == CompareOp::kEq) return std::nullopt;
    if (query.predicates[i].op == CompareOp::kContainsToken) {
      token_preds.push_back(i);
    }
  }
  if (token_preds.empty()) return std::nullopt;
  const ValueIndex* index = table.TryValueIndex();
  if (index == nullptr) return std::nullopt;  // build failed: scan fallback

  // Replay the counters the legacy access path would have produced, so
  // ExecStats stay bit-identical whichever path answers the query. The
  // legacy driver here is the first token predicate on a declared text
  // column (rows_examined = its posting count), else a full scan.
  uint64_t replay_rows = table.num_rows();
  bool replay_index_lookup = false;
  if (allow_text_index) {
    for (size_t i : token_preds) {
      const size_t ord = static_cast<size_t>(ordinals[i]);
      if (!table.IsTextColumn(ord)) continue;
      std::vector<Table::RowId> scan;
      replay_rows =
          table.LookupToken(ord, query.predicates[i].value.ToString(), &scan)
              .size();
      replay_index_lookup = true;
      break;
    }
  }
  stats_.rows_examined += replay_rows;
  if (replay_index_lookup) ++stats_.index_lookups;

  // Intersect the sorted posting lists of every token predicate,
  // smallest list first. The needle mirrors CompareValues: lower-cased
  // verbatim, never re-tokenized — a multi-token needle can match no
  // indexed token, exactly like the legacy evaluation.
  std::vector<const std::vector<Table::RowId>*> lists;
  lists.reserve(token_preds.size());
  for (size_t i : token_preds) {
    const auto* rows = index->Lookup(
        ToLower(query.predicates[i].value.ToString()),
        static_cast<uint32_t>(ordinals[i]));
    if (rows == nullptr) return std::vector<Table::RowId>{};
    lists.push_back(rows);
  }
  std::sort(lists.begin(), lists.end(),
            [](const auto* a, const auto* b) { return a->size() < b->size(); });
  std::vector<Table::RowId> result = *lists.front();
  for (size_t li = 1; li < lists.size() && !result.empty(); ++li) {
    std::vector<Table::RowId> narrowed;
    narrowed.reserve(std::min(result.size(), lists[li]->size()));
    std::set_intersection(result.begin(), result.end(), lists[li]->begin(),
                          lists[li]->end(), std::back_inserter(narrowed));
    result = std::move(narrowed);
  }

  // Verify the residual (range / inequality) predicates per candidate.
  // CompareValues directly, not RowMatches: the counters were already
  // replayed above and must not double-count.
  if (token_preds.size() < query.predicates.size()) {
    std::vector<Table::RowId> verified;
    verified.reserve(result.size());
    for (Table::RowId r : result) {
      bool keep = true;
      for (size_t i = 0; i < query.predicates.size(); ++i) {
        if (query.predicates[i].op == CompareOp::kContainsToken) continue;
        const Value& cell = table.GetCell(r, static_cast<size_t>(ordinals[i]));
        if (!CompareValues(cell, query.predicates[i].op,
                           query.predicates[i].value)) {
          keep = false;
          break;
        }
      }
      if (keep) verified.push_back(r);
    }
    result = std::move(verified);
  }
  stats_.matches += result.size();
  return result;
}

bool QueryExecutor::RowMatches(const Table& table, Table::RowId row,
                               const std::vector<Predicate>& preds,
                               const std::vector<int>& ordinals) {
  ++stats_.rows_examined;
  for (size_t i = 0; i < preds.size(); ++i) {
    const Value& cell = table.GetCell(row, static_cast<size_t>(ordinals[i]));
    if (!CompareValues(cell, preds[i].op, preds[i].value)) return false;
  }
  return true;
}

Result<std::vector<Table::RowId>> QueryExecutor::Execute(
    const SelectQuery& query, const std::vector<Table::RowId>* restrict,
    bool allow_text_index) {
  NEBULA_INJECT_FAULT(kFaultStorageQueryExecute);
  NEBULA_ASSIGN_OR_RETURN(const Table* table, catalog_->GetTable(query.table));

  std::vector<int> ordinals;
  ordinals.reserve(query.predicates.size());
  for (const auto& p : query.predicates) {
    const int ord = table->schema().ColumnIndex(p.column);
    if (ord < 0) {
      return Status::NotFound("column " + query.table + "." + p.column);
    }
    ordinals.push_back(ord);
  }

  // Value-index fast path: unrestricted token-containment queries resolve
  // through posting-list intersection (restricted queries stay legacy —
  // the mini-db subsets are small and the replay bookkeeping would not
  // pay for itself).
  if (use_value_index_ && restrict == nullptr) {
    std::optional<std::vector<Table::RowId>> fast =
        TryValueIndexPath(*table, query, ordinals, allow_text_index);
    if (fast.has_value()) {
      ++path_stats_.index_path;
      return std::move(*fast);
    }
  }
  ++path_stats_.legacy_path;

  // Pick an access path: prefer an equality predicate (hash index), then a
  // token predicate on a declared text column (its posting list), then
  // scan.
  int driver = -1;
  bool driver_is_token = false;
  for (size_t i = 0; i < query.predicates.size(); ++i) {
    if (query.predicates[i].op == CompareOp::kEq) {
      driver = static_cast<int>(i);
      break;
    }
  }
  if (driver < 0 && allow_text_index) {
    for (size_t i = 0; i < query.predicates.size(); ++i) {
      if (query.predicates[i].op == CompareOp::kContainsToken &&
          table->IsTextColumn(static_cast<size_t>(ordinals[i]))) {
        driver = static_cast<int>(i);
        driver_is_token = true;
        break;
      }
    }
  }

  std::vector<Table::RowId> result;
  auto consider = [&](Table::RowId r) {
    if (restrict != nullptr &&
        !std::binary_search(restrict->begin(), restrict->end(), r)) {
      return;
    }
    if (RowMatches(*table, r, query.predicates, ordinals)) {
      result.push_back(r);
    }
  };

  if (driver >= 0) {
    ++stats_.index_lookups;
    const auto& p = query.predicates[static_cast<size_t>(driver)];
    const size_t ord = static_cast<size_t>(ordinals[driver]);
    std::vector<Table::RowId> rows;
    if (!driver_is_token) rows = table->Lookup(ord, p.value);
    const std::vector<Table::RowId>& candidates =
        driver_is_token ? table->LookupToken(ord, p.value.ToString(), &rows)
                        : rows;
    for (Table::RowId r : candidates) consider(r);
  } else if (restrict != nullptr) {
    // Scan only the restricted subset.
    for (Table::RowId r : *restrict) {
      if (r < table->num_rows() &&
          RowMatches(*table, r, query.predicates, ordinals)) {
        result.push_back(r);
      }
    }
  } else {
    for (Table::RowId r = 0; r < table->num_rows(); ++r) consider(r);
  }

  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  stats_.matches += result.size();
  return result;
}

Result<std::vector<std::pair<Table::RowId, Table::RowId>>>
QueryExecutor::ExecuteJoin(const JoinQuery& query) {
  NEBULA_INJECT_FAULT(kFaultStorageQueryJoin);
  NEBULA_ASSIGN_OR_RETURN(const Table* left,
                          catalog_->GetTable(query.left_table));
  NEBULA_ASSIGN_OR_RETURN(const Table* right,
                          catalog_->GetTable(query.right_table));

  // Find the FK connecting the two tables (either direction).
  const ForeignKey* fk = nullptr;
  bool left_is_child = false;
  for (const auto& candidate : catalog_->foreign_keys()) {
    if (EqualsIgnoreCase(candidate.child_table, left->name()) &&
        EqualsIgnoreCase(candidate.parent_table, right->name())) {
      fk = &candidate;
      left_is_child = true;
      break;
    }
    if (EqualsIgnoreCase(candidate.child_table, right->name()) &&
        EqualsIgnoreCase(candidate.parent_table, left->name())) {
      fk = &candidate;
      left_is_child = false;
      break;
    }
  }
  if (fk == nullptr) {
    return Status::NotFound("no foreign key links " + query.left_table +
                            " and " + query.right_table);
  }

  // Drive from the left side (simple and predictable; the probe side uses
  // the hash index either way).
  NEBULA_ASSIGN_OR_RETURN(
      std::vector<Table::RowId> left_rows,
      Execute({query.left_table, query.left_predicates}));

  const std::string& left_key =
      left_is_child ? fk->child_column : fk->parent_column;
  const std::string& right_key =
      left_is_child ? fk->parent_column : fk->child_column;
  const int left_key_ord = left->schema().ColumnIndex(left_key);
  if (left_key_ord < 0) {
    return Status::Corruption("FK column missing: " + left_key);
  }
  std::vector<int> right_ordinals;
  for (const auto& p : query.right_predicates) {
    const int ord = right->schema().ColumnIndex(p.column);
    if (ord < 0) {
      return Status::NotFound("column " + query.right_table + "." + p.column);
    }
    right_ordinals.push_back(ord);
  }

  std::vector<std::pair<Table::RowId, Table::RowId>> result;
  for (Table::RowId l : left_rows) {
    const Value& key =
        left->GetCell(l, static_cast<size_t>(left_key_ord));
    ++stats_.index_lookups;
    for (Table::RowId r : right->Lookup(right_key, key)) {
      if (RowMatches(*right, r, query.right_predicates, right_ordinals)) {
        result.push_back({l, r});
      }
    }
  }
  stats_.matches += result.size();
  return result;
}

}  // namespace nebula
