#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "annotation/annotation_store.h"
#include "common/status.h"
#include "core/engine.h"
#include "meta/nebula_meta.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "storage/catalog.h"
#include "storage/query.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace nebula {
namespace sql {
namespace {

// ------------------------------- lexer ---------------------------------

TEST(SqlLexerTest, BasicTokens) {
  auto tokens = Lex("SELECT * FROM gene WHERE gid = 'JW0013'");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 9u);  // incl. kEnd
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kSymbol);
  EXPECT_EQ((*tokens)[6].kind, TokenKind::kSymbol);
  EXPECT_EQ((*tokens)[6].text, "=");
  EXPECT_EQ((*tokens)[7].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[7].text, "JW0013");
  EXPECT_EQ(tokens->back().kind, TokenKind::kEnd);
}

TEST(SqlLexerTest, NumbersAndNegatives) {
  auto tokens = Lex("42 -7 3.5");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "42");
  EXPECT_EQ((*tokens)[1].text, "-7");
  EXPECT_EQ((*tokens)[2].text, "3.5");
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*tokens)[i].kind, TokenKind::kNumber);
  }
}

TEST(SqlLexerTest, TwoCharOperators) {
  auto tokens = Lex("a <> b <= c >= d != e");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "<>");
  EXPECT_EQ((*tokens)[3].text, "<=");
  EXPECT_EQ((*tokens)[5].text, ">=");
  EXPECT_EQ((*tokens)[7].text, "!=");
}

TEST(SqlLexerTest, QuoteEscaping) {
  auto tokens = Lex("'it''s a gene'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "it's a gene");
}

TEST(SqlLexerTest, Errors) {
  EXPECT_FALSE(Lex("'unterminated").ok());
  EXPECT_FALSE(Lex("SELECT @ FROM x").ok());
}

// ------------------------------- parser --------------------------------

TEST(SqlParserTest, SelectStar) {
  auto stmt = ParseStatement("SELECT * FROM gene;");
  ASSERT_TRUE(stmt.ok());
  const auto& select = std::get<SelectStatement>(*stmt);
  EXPECT_TRUE(select.columns.empty());
  EXPECT_EQ(select.query.table, "gene");
  EXPECT_TRUE(select.query.predicates.empty());
  EXPECT_FALSE(select.with_annotations);
}

TEST(SqlParserTest, SelectColumnsWhereConjunction) {
  auto stmt = ParseStatement(
      "select gid, name from gene where length > 1000 and family = 'F1' "
      "with annotations");
  ASSERT_TRUE(stmt.ok());
  const auto& select = std::get<SelectStatement>(*stmt);
  ASSERT_EQ(select.columns.size(), 2u);
  ASSERT_EQ(select.query.predicates.size(), 2u);
  EXPECT_EQ(select.query.predicates[0].op, CompareOp::kGt);
  EXPECT_EQ(select.query.predicates[0].value, Value(int64_t{1000}));
  EXPECT_EQ(select.query.predicates[1].value, Value("F1"));
  EXPECT_TRUE(select.with_annotations);
}

TEST(SqlParserTest, ContainsOperator) {
  auto stmt = ParseStatement(
      "SELECT * FROM publication WHERE abstract CONTAINS 'JW0014'");
  ASSERT_TRUE(stmt.ok());
  const auto& select = std::get<SelectStatement>(*stmt);
  EXPECT_EQ(select.query.predicates[0].op, CompareOp::kContainsToken);
}

TEST(SqlParserTest, Insert) {
  auto stmt = ParseStatement(
      "INSERT INTO gene VALUES ('JW0099', 'abcZ', 512, 'ACGT', 'F2')");
  ASSERT_TRUE(stmt.ok());
  const auto& insert = std::get<InsertStatement>(*stmt);
  EXPECT_EQ(insert.table, "gene");
  ASSERT_EQ(insert.values.size(), 5u);
  EXPECT_TRUE(insert.value_is_string[0]);
  EXPECT_FALSE(insert.value_is_string[2]);
}

TEST(SqlParserTest, Annotate) {
  auto stmt = ParseStatement(
      "ANNOTATE 'related to gene JW0014' ON gene WHERE gid = 'JW0019' BY 'bob'");
  ASSERT_TRUE(stmt.ok());
  const auto& annotate = std::get<AnnotateStatement>(*stmt);
  EXPECT_EQ(annotate.text, "related to gene JW0014");
  EXPECT_EQ(annotate.author, "bob");
  EXPECT_EQ(annotate.predicate.table, "gene");
  ASSERT_EQ(annotate.predicate.predicates.size(), 1u);
}

TEST(SqlParserTest, JoinWithQualifiedColumns) {
  auto stmt = ParseStatement(
      "SELECT gene.gid, protein.pid FROM gene JOIN protein "
      "WHERE gene.family = 'F1' AND protein.ptype = 'kinase'");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& select = std::get<SelectStatement>(*stmt);
  EXPECT_EQ(select.query.table, "gene");
  EXPECT_EQ(select.join_table, "protein");
  ASSERT_EQ(select.columns.size(), 2u);
  EXPECT_EQ(select.columns[0].table, "gene");
  EXPECT_EQ(select.columns[1].column, "pid");
  ASSERT_EQ(select.query.predicates.size(), 1u);
  ASSERT_EQ(select.join_predicates.size(), 1u);
  EXPECT_EQ(select.join_predicates[0].column, "ptype");
}

TEST(SqlParserTest, JoinRejectsUnknownQualifier) {
  EXPECT_FALSE(ParseStatement(
                   "SELECT * FROM gene JOIN protein WHERE other.x = 1")
                   .ok());
  EXPECT_FALSE(ParseStatement(
                   "SELECT * FROM gene JOIN protein WITH ANNOTATIONS")
                   .ok());
}

TEST(SqlParserTest, Rule) {
  auto stmt = ParseStatement(
      "RULE 'Rounded Flag' ON gene WHERE family = 'F1' BY 'curator'");
  ASSERT_TRUE(stmt.ok());
  const auto& rule = std::get<RuleStatement>(*stmt);
  EXPECT_EQ(rule.text, "Rounded Flag");
  EXPECT_EQ(rule.author, "curator");
  EXPECT_EQ(rule.predicate.table, "gene");
  ASSERT_EQ(rule.predicate.predicates.size(), 1u);
}

TEST(SqlParserTest, VerifyReject) {
  auto verify = ParseStatement("VERIFY ATTACHMENT 12;");
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(std::get<VerifyStatement>(*verify).accept);
  EXPECT_EQ(std::get<VerifyStatement>(*verify).vid, 12u);
  auto reject = ParseStatement("reject attachment 3");
  ASSERT_TRUE(reject.ok());
  EXPECT_FALSE(std::get<VerifyStatement>(*reject).accept);
}

TEST(SqlParserTest, VerifyRejectsMalformedVid) {
  // The lexer's number token takes '.' and a leading '-'; none of these
  // is a task id, so none may decide (or name) a task. Neither may a field
  // that merely starts like one.
  for (const char* vid :
       {"1.5", "1.2.3", "-1", "99999999999999999999", "+1", "1x"}) {
    for (const char* verb : {"VERIFY", "REJECT"}) {
      auto stmt = ParseStatement(std::string(verb) + " ATTACHMENT " + vid);
      EXPECT_EQ(stmt.status().code(), StatusCode::kInvalidArgument)
          << verb << " " << vid;
    }
  }
  // The largest id still parses.
  auto max = ParseStatement("VERIFY ATTACHMENT 18446744073709551615");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(std::get<VerifyStatement>(*max).vid, UINT64_MAX);
}

TEST(SqlParserTest, NumericLiterals) {
  auto literal = [](const std::string& text) -> Result<Value> {
    NEBULA_ASSIGN_OR_RETURN(
        Statement stmt,
        ParseStatement("SELECT * FROM gene WHERE length = " + text));
    return std::get<SelectStatement>(stmt).query.predicates[0].value;
  };
  EXPECT_EQ(*literal("42"), Value(int64_t{42}));
  EXPECT_EQ(*literal("-42"), Value(int64_t{-42}));
  EXPECT_EQ(*literal("-9223372036854775808"), Value(INT64_MIN));
  EXPECT_EQ(*literal("1.25"), Value(1.25));
  EXPECT_EQ(*literal("-0.5"), Value(-0.5));
  // One malformed or overflowing number is an error, not a prefix or a
  // clamped value.
  for (const char* bad : {"1.2.3", "1..2", "9223372036854775808",
                          "99999999999999999999", "-9223372036854775809"}) {
    EXPECT_EQ(literal(bad).status().code(), StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(SqlParserTest, Show) {
  auto pending = ParseStatement("SHOW PENDING");
  ASSERT_TRUE(pending.ok());
  EXPECT_EQ(std::get<ShowStatement>(*pending).what,
            ShowStatement::What::kPending);
  auto tables = ParseStatement("show tables;");
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ(std::get<ShowStatement>(*tables).what,
            ShowStatement::What::kTables);
}

TEST(SqlParserTest, Errors) {
  EXPECT_FALSE(ParseStatement("").ok());
  EXPECT_FALSE(ParseStatement("DROP TABLE gene").ok());
  EXPECT_FALSE(ParseStatement("SELECT FROM gene").ok());
  EXPECT_FALSE(ParseStatement("SELECT * gene").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM gene WHERE").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM gene trailing junk").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO gene VALUES ('x'").ok());
  EXPECT_FALSE(ParseStatement("ANNOTATE missing_quotes ON gene WHERE a=1")
                   .ok());
  EXPECT_FALSE(ParseStatement("VERIFY ATTACHMENT abc").ok());
  EXPECT_EQ(ParseStatement("VERIFY 0").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseStatement("VERIFY ATTACHMENT").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(ParseStatement("SHOW NONSENSE").ok());
}

// ------------------------------- session -------------------------------

class SqlSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* gene =
        *catalog_.CreateTable("gene",
                              Schema({{"gid", DataType::kString, true},
                                      {"name", DataType::kString, true},
                                      {"length", DataType::kInt64}}));
    ASSERT_TRUE(
        gene->Insert({Value("JW0013"), Value("grpC"), Value(int64_t{1130})})
            .ok());
    ASSERT_TRUE(
        gene->Insert({Value("JW0014"), Value("groP"), Value(int64_t{1916})})
            .ok());
    ASSERT_TRUE(meta_.AddConcept("Gene", "gene", {{"gid"}, {"name"}}).ok());
    ASSERT_TRUE(meta_.SetColumnPattern("gene", "gid", "JW[0-9]{4}").ok());
    ASSERT_TRUE(meta_.SetColumnPattern("gene", "name", "[a-z]{3}[A-Z]").ok());
    NebulaConfig config;
    config.bounds = {0.30, 0.85};
    engine_ = std::make_unique<NebulaEngine>(&catalog_, &store_, &meta_,
                                             config);
    session_ = std::make_unique<SqlSession>(engine_.get());
  }

  Catalog catalog_;
  NebulaMeta meta_;
  AnnotationStore store_;
  std::unique_ptr<NebulaEngine> engine_;
  std::unique_ptr<SqlSession> session_;
};

TEST_F(SqlSessionTest, SelectStarReturnsAllRowsAndColumns) {
  auto result = session_->Execute("SELECT * FROM gene");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->columns.size(), 3u);
  EXPECT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->message, "2 rows");
}

TEST_F(SqlSessionTest, SelectProjectionAndFilter) {
  auto result = session_->Execute(
      "SELECT name FROM gene WHERE length > 1500");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], "groP");
}

TEST_F(SqlSessionTest, SelectUnknownColumnFails) {
  EXPECT_EQ(session_->Execute("SELECT bogus FROM gene").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(session_->Execute("SELECT * FROM missing").status().code(),
            StatusCode::kNotFound);
}

TEST_F(SqlSessionTest, InsertCoercesTypes) {
  ASSERT_TRUE(session_
                  ->Execute("INSERT INTO gene VALUES "
                            "('JW0015', 'insL', 1112)")
                  .ok());
  auto result = session_->Execute("SELECT * FROM gene WHERE gid = 'JW0015'");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][2], "1112");
}

TEST_F(SqlSessionTest, InsertTypeMismatchFails) {
  EXPECT_FALSE(session_
                   ->Execute("INSERT INTO gene VALUES "
                             "('JW0016', 'aaaA', 'not-a-number')")
                   .ok());
  EXPECT_FALSE(
      session_->Execute("INSERT INTO gene VALUES ('JW0016')").ok());
}

TEST_F(SqlSessionTest, InsertRejectsOverflowingIntegers) {
  for (const char* cell : {"99999999999999999999", "-99999999999999999999",
                           "9223372036854775808"}) {
    const auto result = session_->Execute(
        std::string("INSERT INTO gene VALUES ('JW0099', 'abcD', ") + cell +
        ")");
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << cell;
  }
  // Built in code, a sign, a space or a fraction is no integer either.
  for (const char* cell : {"+7", " 7", "7 ", "1.5", ""}) {
    const Statement stmt =
        InsertStatement{"gene", {"JW0099", "abcD", cell}, {true, true, false}};
    EXPECT_EQ(session_->Execute(stmt).status().code(),
              StatusCode::kInvalidArgument)
        << "'" << cell << "'";
  }
  EXPECT_EQ((*catalog_.GetTable("gene"))->num_rows(), 2u);
}

TEST_F(SqlSessionTest, InsertRejectsNonFiniteAndMalformedDoubles) {
  Table* m = *catalog_.CreateTable(
      "m", Schema({{"id", DataType::kString, true},
                   {"mass", DataType::kDouble}}));
  for (const char* cell : {"nan", "NAN", "inf", "-inf", "infinity", "0x1p3",
                           "1e999", " 1.5", "1.5 ", "+1.5", "1.2.3", ""}) {
    const Statement stmt = InsertStatement{"m", {"r0", cell}, {true, false}};
    EXPECT_EQ(session_->Execute(stmt).status().code(),
              StatusCode::kInvalidArgument)
        << "'" << cell << "'";
  }
  // 1 followed by 400 zeros lexes as one number and overflows a double.
  const auto huge = session_->Execute("INSERT INTO m VALUES ('r0', 1" +
                                      std::string(400, '0') + ")");
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(m->num_rows(), 0u);
}

TEST_F(SqlSessionTest, InsertStoresWellFormedNumbersExactly) {
  Table* m = *catalog_.CreateTable(
      "m", Schema({{"id", DataType::kString, true},
                   {"mass", DataType::kDouble}}));
  ASSERT_TRUE(session_
                  ->Execute("INSERT INTO gene VALUES "
                            "('JW0097', 'abcD', 9223372036854775807)")
                  .ok());
  ASSERT_TRUE(
      session_->Execute("INSERT INTO gene VALUES ('JW0098', 'abcE', -5)")
          .ok());
  const Table* gene = *catalog_.GetTable("gene");
  ASSERT_EQ(gene->num_rows(), 4u);
  EXPECT_EQ(gene->GetCell(2, 2), Value(int64_t{9223372036854775807}));
  EXPECT_EQ(gene->GetCell(3, 2), Value(int64_t{-5}));

  ASSERT_TRUE(
      session_->Execute("INSERT INTO m VALUES ('r0', 1.0000001)").ok());
  ASSERT_TRUE(session_->Execute("INSERT INTO m VALUES ('r1', -2.5)").ok());
  ASSERT_TRUE(session_->Execute("INSERT INTO m VALUES ('r2', 42)").ok());
  ASSERT_EQ(m->num_rows(), 3u);
  EXPECT_EQ(m->GetCell(0, 1).AsDouble(), 1.0000001);
  EXPECT_EQ(m->GetCell(1, 1).AsDouble(), -2.5);
  EXPECT_EQ(m->GetCell(2, 1).AsDouble(), 42.0);
}

TEST_F(SqlSessionTest, AnnotateTriggersDiscoveryAndPropagation) {
  auto result = session_->Execute(
      "ANNOTATE 'this gene is correlated to JW0014' ON gene "
      "WHERE gid = 'JW0013' BY 'alice'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The reference to JW0014 should have been discovered and auto-applied.
  auto select = session_->Execute(
      "SELECT gid FROM gene WHERE gid = 'JW0014' WITH ANNOTATIONS");
  ASSERT_TRUE(select.ok());
  ASSERT_EQ(select->rows.size(), 1u);
  EXPECT_NE(select->rows[0][1].find("correlated"), std::string::npos);
}

TEST_F(SqlSessionTest, AnnotateWithoutMatchFails) {
  EXPECT_EQ(session_
                ->Execute("ANNOTATE 'x' ON gene WHERE gid = 'JW9999'")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(SqlSessionTest, ShowTables) {
  auto result = session_->Execute("SHOW TABLES");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], "gene");
  EXPECT_EQ(result->rows[0][1], "2");
}

TEST_F(SqlSessionTest, PendingQueueAndVerifyCommand) {
  // Force everything into the pending band.
  engine_->config().bounds = {0.0, 1.0};
  ASSERT_TRUE(session_
                  ->Execute("ANNOTATE 'related to gene JW0014' ON gene "
                            "WHERE gid = 'JW0013'")
                  .ok());
  auto pending = session_->Execute("SHOW PENDING");
  ASSERT_TRUE(pending.ok());
  ASSERT_FALSE(pending->rows.empty());
  const std::string vid = pending->rows[0][0];
  ASSERT_TRUE(session_->Execute("VERIFY ATTACHMENT " + vid).ok());
  auto after = session_->Execute("SHOW PENDING");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows.size(), pending->rows.size() - 1);
  // Verifying twice fails.
  EXPECT_FALSE(session_->Execute("VERIFY ATTACHMENT " + vid).ok());
  // A well-formed vid no task has is NotFound.
  for (const char* verb : {"VERIFY", "REJECT"}) {
    EXPECT_EQ(session_
                  ->Execute(std::string(verb) +
                            " ATTACHMENT 18446744073709551615")
                  .status()
                  .code(),
              StatusCode::kNotFound)
        << verb;
  }
}

TEST_F(SqlSessionTest, MalformedVidLeavesPendingTaskAlone) {
  engine_->config().bounds = {0.0, 1.0};
  ASSERT_TRUE(session_
                  ->Execute("ANNOTATE 'related to gene JW0014' ON gene "
                            "WHERE gid = 'JW0013'")
                  .ok());
  auto pending = session_->Execute("SHOW PENDING");
  ASSERT_TRUE(pending.ok());
  ASSERT_FALSE(pending->rows.empty());
  const std::string vid = pending->rows[0][0];
  for (const std::string& bad : {vid + ".5", vid + ".2.3"}) {
    EXPECT_EQ(session_->Execute("VERIFY ATTACHMENT " + bad).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  auto after = session_->Execute("SHOW PENDING");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows.size(), pending->rows.size());
}

TEST_F(SqlSessionTest, RuleAttachesExistingAndFutureTuples) {
  // Both existing genes are long; register a rule over them.
  auto result = session_->Execute(
      "RULE 'long gene' ON gene WHERE length > 1000 BY 'curator'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->message.find("2 existing tuples"), std::string::npos);

  // A future insert matching the predicate is annotated automatically.
  auto insert = session_->Execute(
      "INSERT INTO gene VALUES ('JW0020', 'xyzA', 2000)");
  ASSERT_TRUE(insert.ok());
  EXPECT_NE(insert->message.find("1 auto-attachment rule fired"),
            std::string::npos);
  auto check = session_->Execute(
      "SELECT gid FROM gene WHERE gid = 'JW0020' WITH ANNOTATIONS");
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check->rows.size(), 1u);
  EXPECT_NE(check->rows[0][1].find("long gene"), std::string::npos);

  // A non-matching insert is not annotated.
  auto quiet = session_->Execute(
      "INSERT INTO gene VALUES ('JW0021', 'xyzB', 10)");
  ASSERT_TRUE(quiet.ok());
  EXPECT_EQ(quiet->message.find("rule"), std::string::npos);
}

TEST_F(SqlSessionTest, JoinSelect) {
  // Add a protein table linked to gene.
  Table* protein = *catalog_.CreateTable(
      "protein", Schema({{"pid", DataType::kString, true},
                         {"gene_gid", DataType::kString}}));
  ASSERT_TRUE(protein->Insert({Value("P1"), Value("JW0013")}).ok());
  ASSERT_TRUE(protein->Insert({Value("P2"), Value("JW0014")}).ok());
  ASSERT_TRUE(
      catalog_.AddForeignKey("protein", "gene_gid", "gene", "gid").ok());

  auto result = session_->Execute(
      "SELECT gene.name, protein.pid FROM gene JOIN protein "
      "WHERE gene.gid = 'JW0013'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], "grpC");
  EXPECT_EQ(result->rows[0][1], "P1");
  EXPECT_EQ(result->columns[0], "gene.name");

  // SELECT * over a join prefixes every column with its table.
  auto star = session_->Execute("SELECT * FROM gene JOIN protein");
  ASSERT_TRUE(star.ok());
  EXPECT_EQ(star->rows.size(), 2u);
  EXPECT_EQ(star->columns.front(), "gene.gid");
  EXPECT_EQ(star->columns.back(), "protein.gene_gid");

  // Ambiguous unqualified projection fails.
  auto ambiguous = session_->Execute(
      "SELECT gene_gid FROM protein JOIN gene");
  EXPECT_TRUE(ambiguous.ok());  // gene_gid exists only in protein
  EXPECT_FALSE(
      session_->Execute("SELECT nonexistent FROM gene JOIN protein").ok());
}

TEST_F(SqlSessionTest, ResultToStringRendersTable) {
  auto result = session_->Execute("SELECT gid FROM gene");
  ASSERT_TRUE(result.ok());
  const std::string rendered = result->ToString();
  EXPECT_NE(rendered.find("gid"), std::string::npos);
  EXPECT_NE(rendered.find("JW0013"), std::string::npos);
  EXPECT_NE(rendered.find("2 rows"), std::string::npos);
}

}  // namespace
}  // namespace sql
}  // namespace nebula
