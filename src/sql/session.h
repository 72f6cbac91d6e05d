#ifndef NEBULA_SQL_SESSION_H_
#define NEBULA_SQL_SESSION_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "annotation/auto_attach.h"
#include "core/engine.h"
#include "sql/parser.h"

namespace nebula {
namespace sql {

/// A printable statement result: tabular rows plus a one-line message
/// ("3 rows", "annotation 12 attached to 2 tuples; 4 predicted...").
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  std::string message;

  /// Fixed-width rendering (the shell's output format).
  std::string ToString() const;
};

/// The extended-SQL front-end over a NebulaEngine: regular SELECT/INSERT
/// on the catalog, SELECT ... WITH ANNOTATIONS (annotation propagation),
/// the proactive ANNOTATE ... ON ... WHERE ... statement, the paper's
/// VERIFY/REJECT ATTACHMENT command, and SHOW PENDING / SHOW TABLES.
class SqlSession {
 public:
  explicit SqlSession(NebulaEngine* engine)
      : engine_(engine), rules_(engine->catalog(), engine->store()) {}

  /// Parses and executes one statement.
  [[nodiscard]] Result<QueryResult> Execute(const std::string& statement);

  /// Executes a parsed statement. One built in code, with literal texts
  /// no lexer produces, meets the same checks.
  [[nodiscard]] Result<QueryResult> Execute(const Statement& statement);

 private:
  [[nodiscard]] Result<QueryResult> ExecuteSelect(const SelectStatement& stmt);
  [[nodiscard]] Result<QueryResult> ExecuteInsert(const InsertStatement& stmt);
  [[nodiscard]] Result<QueryResult> ExecuteAnnotate(const AnnotateStatement& stmt);
  [[nodiscard]] Result<QueryResult> ExecuteRule(const RuleStatement& stmt);
  [[nodiscard]] Result<QueryResult> ExecuteVerify(const VerifyStatement& stmt);
  [[nodiscard]] Result<QueryResult> ExecuteShow(const ShowStatement& stmt);

  NebulaEngine* engine_;
  /// Predicate-based auto-attachment rules registered via RULE
  /// statements; applied to rows inserted through this session.
  AutoAttachRegistry rules_;
};

}  // namespace sql
}  // namespace nebula

#endif  // NEBULA_SQL_SESSION_H_
