#ifndef NEBULA_SQL_ESCAPE_H_
#define NEBULA_SQL_ESCAPE_H_

#include <string>
#include <string_view>

/// SQL escaping layer — the ONLY sanctioned way to splice runtime strings
/// into generated SQL text or SQL-derived cache keys.
///
/// Everything the keyword engine generates (Predicate::ToString,
/// SelectQuery::ToSqlString, GeneratedSql::CanonicalKey, PlanCache keys)
/// is built from these helpers; nebula_lint's [sql-taint] pass enforces
/// that no registered SQL sink (tools/sql_sinks.txt) returns a string
/// assembled from unescaped runtime values. Annotation text is untrusted
/// input (the extended-SQL shell and any future network front end pass
/// it through verbatim), so a value containing `'`, `;--`, or an
/// embedded NUL must never alter query structure or collide two distinct
/// statements onto one cache key.
///
/// The escapes are the identity on alphanumeric/space text — the entire
/// NebulaCheck universe — so adopting this layer is bit-identical for
/// every existing transcript (proven by the differential sweep).
///
/// This module sits BELOW storage in the layer DAG (tools/layers.txt
/// declares the file-stem module "sql/escape"): storage, keyword, and
/// core all build SQL and must reach it without an upward edge to the
/// tier-7 sql/ front end.

namespace nebula::sql {

/// Escapes `raw` for splicing between single quotes in a SQL literal:
/// `'` doubles to `''`, `\` doubles to `\\`, and control bytes < 0x20
/// (including NUL, which standard SQL literals cannot carry) become
/// `\xNN`. Injective — two distinct inputs never escape to the same
/// output — and the identity on text free of quotes, backslashes, and
/// control bytes.
std::string EscapeSqlLiteral(std::string_view raw);

/// Quotes `ident` for use as a SQL identifier. A name matching
/// [A-Za-z_][A-Za-z0-9_]* passes through unchanged; anything else is
/// wrapped in double quotes with embedded `"` doubled.
std::string QuoteIdent(std::string_view ident);

/// Builder for SQL text that only concatenates escaped pieces: raw
/// keywords come from compile-time constants, identifiers pass through
/// QuoteIdent, values through EscapeSqlLiteral. nebula_lint treats
/// SqlFragment locals (and str() on them) as safe producers, so SQL
/// assembled through this type satisfies [sql-taint] by construction.
class SqlFragment {
 public:
  /// Appends trusted fixed SQL text (keywords, operators, separators).
  /// Takes `const char*` on purpose: pass string literals, never
  /// runtime-assembled text — that is what Ident/Literal are for.
  SqlFragment& Raw(const char* sql) {
    sql_ += sql;
    return *this;
  }

  /// Appends `ident` as a quoted-if-needed SQL identifier.
  SqlFragment& Ident(std::string_view ident) {
    sql_ += QuoteIdent(ident);
    return *this;
  }

  /// Appends `value` as a single-quoted SQL string literal.
  SqlFragment& Literal(std::string_view value) {
    sql_ += '\'';
    sql_ += EscapeSqlLiteral(value);
    sql_ += '\'';
    return *this;
  }

  /// Appends another fragment's (already escaped) SQL text. Named Concat
  /// rather than Append so it can never shadow the Status-returning
  /// Append() family in nebula_lint's [dropped-status] name registry.
  SqlFragment& Concat(const SqlFragment& other) {
    sql_ += other.sql_;
    return *this;
  }

  const std::string& str() const { return sql_; }
  bool empty() const { return sql_.empty(); }

 private:
  std::string sql_;
};

}  // namespace nebula::sql

#endif  // NEBULA_SQL_ESCAPE_H_
