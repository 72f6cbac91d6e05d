#include "sql/session.h"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "annotation/annotation_store.h"
#include "annotation/verification_task.h"
#include "common/fault.h"
#include "common/fault_points.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/verification.h"
#include "sql/parser.h"
#include "storage/catalog.h"
#include "storage/query.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace nebula {
namespace sql {

std::string QueryResult::ToString() const {
  std::string out;
  if (!columns.empty()) {
    std::vector<size_t> widths(columns.size());
    for (size_t c = 0; c < columns.size(); ++c) widths[c] = columns[c].size();
    for (const auto& row : rows) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto append_row = [&](const std::vector<std::string>& row) {
      for (size_t c = 0; c < widths.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : std::string();
        out += cell;
        if (c + 1 < widths.size()) {
          out.append(widths[c] - cell.size() + 2, ' ');
        }
      }
      out += '\n';
    };
    append_row(columns);
    size_t total = 2 * (widths.size() - 1);
    for (size_t w : widths) total += w;
    out.append(total, '-');
    out += '\n';
    for (const auto& row : rows) append_row(row);
  }
  if (!message.empty()) {
    out += message;
    out += '\n';
  }
  return out;
}

Result<QueryResult> SqlSession::Execute(const std::string& statement) {
  NEBULA_INJECT_FAULT(kFaultSqlSessionExecute);
  NEBULA_ASSIGN_OR_RETURN(Statement parsed, ParseStatement(statement));
  return Execute(parsed);
}

Result<QueryResult> SqlSession::Execute(const Statement& parsed) {
  if (auto* select = std::get_if<SelectStatement>(&parsed)) {
    return ExecuteSelect(*select);
  }
  if (auto* insert = std::get_if<InsertStatement>(&parsed)) {
    return ExecuteInsert(*insert);
  }
  if (auto* annotate = std::get_if<AnnotateStatement>(&parsed)) {
    return ExecuteAnnotate(*annotate);
  }
  if (auto* rule = std::get_if<RuleStatement>(&parsed)) {
    return ExecuteRule(*rule);
  }
  if (auto* verify = std::get_if<VerifyStatement>(&parsed)) {
    return ExecuteVerify(*verify);
  }
  return ExecuteShow(std::get<ShowStatement>(parsed));
}

namespace {

/// A projection entry: which side of the (possibly joined) answer and
/// which column ordinal.
struct ProjectedColumn {
  bool from_right = false;
  size_t ordinal = 0;
};

/// Resolves one column reference against the left (and optionally right)
/// table. Unqualified names must be unambiguous.
Result<ProjectedColumn> ResolveColumn(const QualifiedColumn& ref,
                                      const Table* left,
                                      const Table* right) {
  const int left_ord =
      (ref.table.empty() || EqualsIgnoreCase(ref.table, left->name()))
          ? left->schema().ColumnIndex(ref.column)
          : -1;
  const int right_ord =
      (right != nullptr &&
       (ref.table.empty() || EqualsIgnoreCase(ref.table, right->name())))
          ? right->schema().ColumnIndex(ref.column)
          : -1;
  if (left_ord >= 0 && right_ord >= 0) {
    return Status::InvalidArgument("ambiguous column '" + ref.column +
                                   "': qualify it with a table name");
  }
  if (left_ord >= 0) {
    return ProjectedColumn{false, static_cast<size_t>(left_ord)};
  }
  if (right_ord >= 0) {
    return ProjectedColumn{true, static_cast<size_t>(right_ord)};
  }
  return Status::NotFound("column " + ref.column);
}

}  // namespace

Result<QueryResult> SqlSession::ExecuteSelect(const SelectStatement& stmt) {
  Catalog* catalog = engine_->catalog();
  NEBULA_ASSIGN_OR_RETURN(const Table* table,
                          catalog->GetTable(stmt.query.table));
  const Table* right = nullptr;
  if (!stmt.join_table.empty()) {
    NEBULA_ASSIGN_OR_RETURN(right, catalog->GetTable(stmt.join_table));
  }

  // Resolve the projection.
  std::vector<ProjectedColumn> projection;
  QueryResult result;
  if (stmt.columns.empty()) {
    for (size_t c = 0; c < table->schema().num_columns(); ++c) {
      projection.push_back({false, c});
      result.columns.push_back(
          right == nullptr
              ? table->schema().column(c).name
              : table->name() + "." + table->schema().column(c).name);
    }
    if (right != nullptr) {
      for (size_t c = 0; c < right->schema().num_columns(); ++c) {
        projection.push_back({true, c});
        result.columns.push_back(right->name() + "." +
                                 right->schema().column(c).name);
      }
    }
  } else {
    for (const auto& ref : stmt.columns) {
      NEBULA_ASSIGN_OR_RETURN(ProjectedColumn col,
                              ResolveColumn(ref, table, right));
      projection.push_back(col);
      result.columns.push_back(
          ref.table.empty() ? ref.column : ref.table + "." + ref.column);
    }
  }
  if (stmt.with_annotations) result.columns.push_back("annotations");

  if (right != nullptr) {
    // FK join path.
    QueryExecutor executor(catalog);
    JoinQuery join;
    join.left_table = stmt.query.table;
    join.right_table = stmt.join_table;
    join.left_predicates = stmt.query.predicates;
    join.right_predicates = stmt.join_predicates;
    NEBULA_ASSIGN_OR_RETURN(auto pairs, executor.ExecuteJoin(join));
    for (const auto& [l, r] : pairs) {
      std::vector<std::string> row;
      row.reserve(projection.size());
      for (const ProjectedColumn& col : projection) {
        const Table* source = col.from_right ? right : table;
        const Table::RowId row_id = col.from_right ? r : l;
        row.push_back(source->GetCell(row_id, col.ordinal).ToString());
      }
      result.rows.push_back(std::move(row));
    }
    result.message = StrFormat("%zu row%s", result.rows.size(),
                               result.rows.size() == 1 ? "" : "s");
    return result;
  }

  QueryExecutor executor(catalog);
  NEBULA_ASSIGN_OR_RETURN(std::vector<Table::RowId> rows,
                          executor.Execute(stmt.query));
  for (Table::RowId r : rows) {
    std::vector<std::string> row;
    row.reserve(projection.size() + 1);
    for (const ProjectedColumn& col : projection) {
      row.push_back(table->GetCell(r, col.ordinal).ToString());
    }
    if (stmt.with_annotations) {
      // Annotation propagation along the answer (the passive engine's
      // feature): render the attached annotations' texts, abbreviated.
      std::string cell;
      for (AnnotationId a :
           engine_->store()->AnnotationsOf({table->id(), r},
                                           /*true_only=*/true)) {
        auto annotation = engine_->store()->GetAnnotation(a);
        if (!annotation.ok()) continue;
        if (!cell.empty()) cell += " | ";
        std::string text = (*annotation)->text;
        if (text.size() > 40) text = text.substr(0, 37) + "...";
        cell += StrFormat("[%llu] %s", static_cast<unsigned long long>(a),
                          text.c_str());
      }
      row.push_back(std::move(cell));
    }
    result.rows.push_back(std::move(row));
  }
  result.message = StrFormat("%zu row%s", result.rows.size(),
                             result.rows.size() == 1 ? "" : "s");
  return result;
}

Result<QueryResult> SqlSession::ExecuteInsert(const InsertStatement& stmt) {
  NEBULA_ASSIGN_OR_RETURN(Table * table,
                          engine_->catalog()->GetTable(stmt.table));
  const Schema& schema = table->schema();
  if (stmt.values.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("expected %zu values for table %s, got %zu",
                  schema.num_columns(), stmt.table.c_str(),
                  stmt.values.size()));
  }
  // Coerce the literals to the column types. A cell must be one whole
  // in-range decimal: no clamp, and no nan, inf or hex float.
  std::vector<Value> row;
  row.reserve(stmt.values.size());
  for (size_t c = 0; c < stmt.values.size(); ++c) {
    const std::string& text = stmt.values[c];
    switch (schema.column(c).type) {
      case DataType::kInt64: {
        const std::optional<int64_t> v =
            stmt.value_is_string[c] ? std::nullopt : ParseInt64(text);
        if (!v) {
          return Status::InvalidArgument(
              StrFormat("column %s expects an integer, got '%s'",
                        schema.column(c).name.c_str(), text.c_str()));
        }
        row.push_back(Value(*v));
        break;
      }
      case DataType::kDouble: {
        const std::optional<double> v =
            stmt.value_is_string[c] ? std::nullopt : ParseFiniteDouble(text);
        if (!v) {
          return Status::InvalidArgument(
              StrFormat("column %s expects a finite number, got '%s'",
                        schema.column(c).name.c_str(), text.c_str()));
        }
        row.push_back(Value(*v));
        break;
      }
      case DataType::kString:
        row.push_back(Value(text));
        break;
    }
  }
  NEBULA_ASSIGN_OR_RETURN(Table::RowId r, table->Insert(std::move(row)));
  // Apply any registered auto-attachment rules to the new row.
  NEBULA_ASSIGN_OR_RETURN(size_t auto_attached,
                          rules_.OnInsert({table->id(), r}));
  QueryResult result;
  result.message = StrFormat("inserted row %llu into %s",
                             static_cast<unsigned long long>(r),
                             stmt.table.c_str());
  if (auto_attached > 0) {
    result.message += StrFormat("; %zu auto-attachment rule%s fired",
                                auto_attached,
                                auto_attached == 1 ? "" : "s");
  }
  return result;
}

Result<QueryResult> SqlSession::ExecuteRule(const RuleStatement& stmt) {
  const AnnotationId annotation =
      engine_->store()->AddAnnotation(stmt.text, stmt.author);
  NEBULA_ASSIGN_OR_RETURN(size_t attached,
                          rules_.AddRule(annotation, stmt.predicate));
  QueryResult result;
  result.message = StrFormat(
      "rule registered: annotation %llu attached to %zu existing tuple%s; "
      "future matching inserts will be annotated automatically",
      static_cast<unsigned long long>(annotation), attached,
      attached == 1 ? "" : "s");
  return result;
}

Result<QueryResult> SqlSession::ExecuteAnnotate(const AnnotateStatement& stmt) {
  NEBULA_ASSIGN_OR_RETURN(const Table* table,
                          engine_->catalog()->GetTable(stmt.predicate.table));
  QueryExecutor executor(engine_->catalog());
  NEBULA_ASSIGN_OR_RETURN(std::vector<Table::RowId> rows,
                          executor.Execute(stmt.predicate));
  if (rows.empty()) {
    return Status::NotFound("no tuples match the ANNOTATE predicate");
  }
  std::vector<TupleId> focal;
  focal.reserve(rows.size());
  for (Table::RowId r : rows) focal.push_back({table->id(), r});

  NEBULA_ASSIGN_OR_RETURN(AnnotationReport report,
                          engine_->InsertAnnotation(stmt.text, focal,
                                                    stmt.author));
  QueryResult result;
  if (report.spam.spam_suspected) {
    result.message = StrFormat(
        "annotation %llu attached to %zu tuple%s; prediction flagged as "
        "spam-like (%.1f%% database coverage), no verification tasks "
        "created",
        static_cast<unsigned long long>(report.annotation), focal.size(),
        focal.size() == 1 ? "" : "s", 100.0 * report.spam.coverage);
  } else {
    result.message = StrFormat(
        "annotation %llu attached to %zu tuple%s; Nebula generated %zu "
        "quer%s, auto-accepted %zu attachment%s, queued %zu for experts",
        static_cast<unsigned long long>(report.annotation), focal.size(),
        focal.size() == 1 ? "" : "s", report.queries.size(),
        report.queries.size() == 1 ? "y" : "ies",
        report.verification.auto_accepted,
        report.verification.auto_accepted == 1 ? "" : "s",
        report.verification.pending);
  }
  return result;
}

Result<QueryResult> SqlSession::ExecuteVerify(const VerifyStatement& stmt) {
  VerificationManager& manager = engine_->verification();
  NEBULA_RETURN_NOT_OK(stmt.accept ? manager.Verify(stmt.vid)
                                   : manager.Reject(stmt.vid));
  QueryResult result;
  result.message = StrFormat("attachment %llu %s",
                             static_cast<unsigned long long>(stmt.vid),
                             stmt.accept ? "verified" : "rejected");
  return result;
}

Result<QueryResult> SqlSession::ExecuteShow(const ShowStatement& stmt) {
  QueryResult result;
  if (stmt.what == ShowStatement::What::kTables) {
    result.columns = {"table", "rows", "columns"};
    for (const auto& table : engine_->catalog()->tables()) {
      result.rows.push_back(
          {table->name(),
           StrFormat("%llu",
                     static_cast<unsigned long long>(table->num_rows())),
           StrFormat("%zu", table->schema().num_columns())});
    }
    result.message = StrFormat("%zu tables", result.rows.size());
    return result;
  }
  // SHOW PENDING: the system table of §7.
  result.columns = {"vid", "annotation", "tuple", "confidence", "evidence"};
  for (const VerificationTask* task :
       engine_->verification().PendingTasks()) {
    result.rows.push_back(
        {StrFormat("%llu", static_cast<unsigned long long>(task->vid)),
         StrFormat("%llu",
                   static_cast<unsigned long long>(task->annotation)),
         task->tuple.ToString(), StrFormat("%.3f", task->confidence),
         Join(task->evidence, "; ")});
  }
  result.message =
      StrFormat("%zu pending verification task%s", result.rows.size(),
                result.rows.size() == 1 ? "" : "s");
  return result;
}

}  // namespace sql
}  // namespace nebula
