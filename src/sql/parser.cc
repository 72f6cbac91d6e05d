#include "sql/parser.h"

#include <optional>

#include "common/status.h"
#include "common/string_util.h"
#include "sql/lexer.h"
#include "storage/query.h"

namespace nebula {
namespace sql {

namespace {

/// Token cursor with keyword helpers.
class Cursor {
 public:
  explicit Cursor(std::vector<SqlToken> tokens) : tokens_(std::move(tokens)) {}

  const SqlToken& Peek() const { return tokens_[pos_]; }
  const SqlToken& Next() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }
  bool AtEnd() const {
    return Peek().kind == TokenKind::kEnd ||
           (Peek().kind == TokenKind::kSymbol && Peek().text == ";");
  }

  /// Consumes the next token iff it is the given keyword (identifiers are
  /// matched case-insensitively).
  bool TryKeyword(const char* keyword) {
    if (Peek().kind == TokenKind::kIdentifier &&
        EqualsIgnoreCase(Peek().text, keyword)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const char* keyword) {
    if (TryKeyword(keyword)) return Status::OK();
    return Status::InvalidArgument(StrFormat(
        "expected %s at offset %zu", keyword, Peek().offset));
  }

  bool TrySymbol(const char* symbol) {
    if (Peek().kind == TokenKind::kSymbol && Peek().text == symbol) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ExpectSymbol(const char* symbol) {
    if (TrySymbol(symbol)) return Status::OK();
    return Status::InvalidArgument(StrFormat(
        "expected '%s' at offset %zu", symbol, Peek().offset));
  }

  Result<std::string> ExpectIdentifier(const char* what) {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Status::InvalidArgument(StrFormat(
          "expected %s at offset %zu", what, Peek().offset));
    }
    return Next().text;
  }

  Result<std::string> ExpectString(const char* what) {
    if (Peek().kind != TokenKind::kString) {
      return Status::InvalidArgument(StrFormat(
          "expected %s (a '...' literal) at offset %zu", what,
          Peek().offset));
    }
    return Next().text;
  }

 private:
  std::vector<SqlToken> tokens_;
  size_t pos_ = 0;
};

Result<CompareOp> ParseOp(Cursor* cursor) {
  const SqlToken& tok = cursor->Peek();
  if (tok.kind == TokenKind::kIdentifier &&
      EqualsIgnoreCase(tok.text, "contains")) {
    cursor->Next();
    return CompareOp::kContainsToken;
  }
  if (tok.kind != TokenKind::kSymbol) {
    return Status::InvalidArgument(
        StrFormat("expected comparison operator at offset %zu", tok.offset));
  }
  CompareOp op;
  if (tok.text == "=") {
    op = CompareOp::kEq;
  } else if (tok.text == "<>" || tok.text == "!=") {
    op = CompareOp::kNe;
  } else if (tok.text == "<") {
    op = CompareOp::kLt;
  } else if (tok.text == "<=") {
    op = CompareOp::kLe;
  } else if (tok.text == ">") {
    op = CompareOp::kGt;
  } else if (tok.text == ">=") {
    op = CompareOp::kGe;
  } else {
    return Status::InvalidArgument(
        StrFormat("unknown operator '%s' at offset %zu", tok.text.c_str(),
                  tok.offset));
  }
  cursor->Next();
  return op;
}

/// Parses one literal into a typed Value: quoted -> string; otherwise a
/// number (integer when it has no '.'). A number token that is not one
/// well-formed number ("1.2.3") or overflows is InvalidArgument.
Result<Value> ParseLiteral(Cursor* cursor) {
  const SqlToken& tok = cursor->Peek();
  if (tok.kind == TokenKind::kString) {
    return Value(cursor->Next().text);
  }
  if (tok.kind == TokenKind::kNumber) {
    const SqlToken& number = cursor->Next();
    if (number.text.find('.') == std::string::npos) {
      if (const std::optional<int64_t> v = ParseInt64(number.text)) {
        return Value(*v);
      }
    } else if (const std::optional<double> v =
                   ParseFiniteDouble(number.text)) {
      return Value(*v);
    }
    return Status::InvalidArgument(
        StrFormat("malformed number '%s' at offset %zu", number.text.c_str(),
                  number.offset));
  }
  return Status::InvalidArgument(
      StrFormat("expected literal at offset %zu", tok.offset));
}

/// ident [ '.' ident ] — a possibly qualified column reference.
Result<QualifiedColumn> ParseColumnRef(Cursor* cursor) {
  QualifiedColumn ref;
  NEBULA_ASSIGN_OR_RETURN(ref.column, cursor->ExpectIdentifier("column"));
  if (cursor->TrySymbol(".")) {
    ref.table = std::move(ref.column);
    NEBULA_ASSIGN_OR_RETURN(ref.column, cursor->ExpectIdentifier("column"));
  }
  return ref;
}

/// WHERE col_ref op literal (AND ...)*. Predicates land on the left or
/// right side by their qualifier; unqualified predicates go left unless
/// the statement has a join, where they must be unambiguous — that check
/// belongs to the session (schema knowledge), so here unqualified simply
/// means "left".
Status ParseWhere(Cursor* cursor, SelectStatement* stmt) {
  do {
    Predicate pred;
    NEBULA_ASSIGN_OR_RETURN(QualifiedColumn ref, ParseColumnRef(cursor));
    NEBULA_ASSIGN_OR_RETURN(pred.op, ParseOp(cursor));
    NEBULA_ASSIGN_OR_RETURN(pred.value, ParseLiteral(cursor));
    pred.column = ref.column;
    if (!ref.table.empty() && !stmt->join_table.empty() &&
        EqualsIgnoreCase(ref.table, stmt->join_table)) {
      stmt->join_predicates.push_back(std::move(pred));
    } else if (!ref.table.empty() &&
               !EqualsIgnoreCase(ref.table, stmt->query.table)) {
      return Status::InvalidArgument("unknown table qualifier '" +
                                     ref.table + "' in WHERE");
    } else {
      stmt->query.predicates.push_back(std::move(pred));
    }
  } while (cursor->TryKeyword("and"));
  return Status::OK();
}

/// WHERE for statements that carry a bare SelectQuery (ANNOTATE).
Status ParseWhereSimple(Cursor* cursor, SelectQuery* query) {
  SelectStatement shim;
  shim.query.table = query->table;
  NEBULA_RETURN_NOT_OK(ParseWhere(cursor, &shim));
  query->predicates = std::move(shim.query.predicates);
  return Status::OK();
}

Result<Statement> ParseSelect(Cursor* cursor) {
  SelectStatement stmt;
  if (!cursor->TrySymbol("*")) {
    do {
      NEBULA_ASSIGN_OR_RETURN(QualifiedColumn col, ParseColumnRef(cursor));
      stmt.columns.push_back(std::move(col));
    } while (cursor->TrySymbol(","));
  }
  NEBULA_RETURN_NOT_OK(cursor->ExpectKeyword("from"));
  NEBULA_ASSIGN_OR_RETURN(stmt.query.table,
                          cursor->ExpectIdentifier("table name"));
  if (cursor->TryKeyword("join")) {
    NEBULA_ASSIGN_OR_RETURN(stmt.join_table,
                            cursor->ExpectIdentifier("join table name"));
  }
  if (cursor->TryKeyword("where")) {
    NEBULA_RETURN_NOT_OK(ParseWhere(cursor, &stmt));
  }
  if (cursor->TryKeyword("with")) {
    NEBULA_RETURN_NOT_OK(cursor->ExpectKeyword("annotations"));
    if (!stmt.join_table.empty()) {
      return Status::NotSupported(
          "WITH ANNOTATIONS is single-table only");
    }
    stmt.with_annotations = true;
  }
  return Statement(std::move(stmt));
}

Result<Statement> ParseInsert(Cursor* cursor) {
  InsertStatement stmt;
  NEBULA_RETURN_NOT_OK(cursor->ExpectKeyword("into"));
  NEBULA_ASSIGN_OR_RETURN(stmt.table, cursor->ExpectIdentifier("table name"));
  NEBULA_RETURN_NOT_OK(cursor->ExpectKeyword("values"));
  NEBULA_RETURN_NOT_OK(cursor->ExpectSymbol("("));
  do {
    const SqlToken& tok = cursor->Peek();
    if (tok.kind == TokenKind::kString) {
      stmt.values.push_back(cursor->Next().text);
      stmt.value_is_string.push_back(true);
    } else if (tok.kind == TokenKind::kNumber) {
      stmt.values.push_back(cursor->Next().text);
      stmt.value_is_string.push_back(false);
    } else {
      return Status::InvalidArgument(
          StrFormat("expected literal at offset %zu", tok.offset));
    }
  } while (cursor->TrySymbol(","));
  NEBULA_RETURN_NOT_OK(cursor->ExpectSymbol(")"));
  return Statement(std::move(stmt));
}

Result<Statement> ParseAnnotate(Cursor* cursor) {
  AnnotateStatement stmt;
  NEBULA_ASSIGN_OR_RETURN(stmt.text, cursor->ExpectString("annotation text"));
  NEBULA_RETURN_NOT_OK(cursor->ExpectKeyword("on"));
  NEBULA_ASSIGN_OR_RETURN(stmt.predicate.table,
                          cursor->ExpectIdentifier("table name"));
  NEBULA_RETURN_NOT_OK(cursor->ExpectKeyword("where"));
  NEBULA_RETURN_NOT_OK(ParseWhereSimple(cursor, &stmt.predicate));
  if (cursor->TryKeyword("by")) {
    NEBULA_ASSIGN_OR_RETURN(stmt.author, cursor->ExpectString("author"));
  }
  return Statement(std::move(stmt));
}

Result<Statement> ParseRule(Cursor* cursor) {
  RuleStatement stmt;
  NEBULA_ASSIGN_OR_RETURN(stmt.text, cursor->ExpectString("annotation text"));
  NEBULA_RETURN_NOT_OK(cursor->ExpectKeyword("on"));
  NEBULA_ASSIGN_OR_RETURN(stmt.predicate.table,
                          cursor->ExpectIdentifier("table name"));
  NEBULA_RETURN_NOT_OK(cursor->ExpectKeyword("where"));
  NEBULA_RETURN_NOT_OK(ParseWhereSimple(cursor, &stmt.predicate));
  if (cursor->TryKeyword("by")) {
    NEBULA_ASSIGN_OR_RETURN(stmt.author, cursor->ExpectString("author"));
  }
  return Statement(std::move(stmt));
}

Result<Statement> ParseVerify(Cursor* cursor, bool accept) {
  VerifyStatement stmt;
  stmt.accept = accept;
  NEBULA_RETURN_NOT_OK(cursor->ExpectKeyword("attachment"));
  if (cursor->Peek().kind != TokenKind::kNumber) {
    return Status::InvalidArgument("expected a verification task id");
  }
  const SqlToken& vid = cursor->Next();
  const std::optional<uint64_t> parsed = ParseUint64(vid.text);
  if (!parsed.has_value()) {
    return Status::InvalidArgument(
        StrFormat("malformed verification task id '%s' at offset %zu",
                  vid.text.c_str(), vid.offset));
  }
  stmt.vid = *parsed;
  return Statement(stmt);
}

Result<Statement> ParseShow(Cursor* cursor) {
  ShowStatement stmt;
  if (cursor->TryKeyword("pending")) {
    stmt.what = ShowStatement::What::kPending;
  } else if (cursor->TryKeyword("tables")) {
    stmt.what = ShowStatement::What::kTables;
  } else {
    return Status::InvalidArgument("expected PENDING or TABLES after SHOW");
  }
  return Statement(stmt);
}

}  // namespace

Result<Statement> ParseStatement(const std::string& statement) {
  NEBULA_ASSIGN_OR_RETURN(std::vector<SqlToken> tokens, Lex(statement));
  Cursor cursor(std::move(tokens));

  Result<Statement> result = Status::InvalidArgument("empty statement");
  if (cursor.TryKeyword("select")) {
    result = ParseSelect(&cursor);
  } else if (cursor.TryKeyword("insert")) {
    result = ParseInsert(&cursor);
  } else if (cursor.TryKeyword("annotate")) {
    result = ParseAnnotate(&cursor);
  } else if (cursor.TryKeyword("rule")) {
    result = ParseRule(&cursor);
  } else if (cursor.TryKeyword("verify")) {
    result = ParseVerify(&cursor, /*accept=*/true);
  } else if (cursor.TryKeyword("reject")) {
    result = ParseVerify(&cursor, /*accept=*/false);
  } else if (cursor.TryKeyword("show")) {
    result = ParseShow(&cursor);
  } else if (!cursor.AtEnd()) {
    result = Status::InvalidArgument(StrFormat(
        "unknown statement '%s' (expected SELECT, INSERT, ANNOTATE, "
        "RULE, VERIFY, REJECT, or SHOW)",
        cursor.Peek().text.c_str()));
  }
  if (!result.ok()) return result;

  (void)cursor.TrySymbol(";");
  if (!cursor.AtEnd()) {
    return Status::InvalidArgument(StrFormat(
        "trailing input at offset %zu", cursor.Peek().offset));
  }
  return result;
}

}  // namespace sql
}  // namespace nebula
