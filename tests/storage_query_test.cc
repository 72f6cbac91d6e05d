#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/catalog.h"
#include "storage/query.h"
#include "storage/table.h"
#include "storage/value.h"

namespace nebula {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* gene =
        *catalog_.CreateTable("gene",
                              Schema({{"gid", DataType::kString, true},
                                      {"name", DataType::kString},
                                      {"length", DataType::kInt64},
                                      {"notes", DataType::kString}}));
    auto add = [&](const char* gid, const char* name, int64_t len,
                   const char* notes) {
      ASSERT_TRUE(
          gene->Insert({Value(gid), Value(name), Value(len), Value(notes)})
              .ok());
    };
    add("JW0001", "grpC", 100, "heat shock related gene");
    add("JW0002", "groP", 200, "binds grpC under stress");
    add("JW0003", "insL", 300, "insertion element");
    add("JW0004", "nhaA", 400, "sodium transport");
    add("JW0005", "grpC2", 150, "paralog of grpC");
    ASSERT_TRUE(gene->DeclareTextColumn(3).ok());
  }

  std::vector<Table::RowId> Run(
      const SelectQuery& q,
      const std::vector<Table::RowId>* restrict = nullptr) {
    QueryExecutor exec(&catalog_);
    auto r = exec.Execute(q, restrict);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : std::vector<Table::RowId>{};
  }

  Catalog catalog_;
};

TEST_F(QueryTest, EqualityUsesIndex) {
  QueryExecutor exec(&catalog_);
  SelectQuery q{"gene", {{"gid", CompareOp::kEq, Value("JW0003")}}};
  auto rows = *exec.Execute(q);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 2u);
  EXPECT_EQ(exec.stats().index_lookups, 1u);
  // Index probe examines only the candidate row, not the whole table.
  EXPECT_EQ(exec.stats().rows_examined, 1u);
}

TEST_F(QueryTest, EmptyPredicateListReturnsAll) {
  EXPECT_EQ(Run({"gene", {}}).size(), 5u);
}

TEST_F(QueryTest, UnknownTableErrors) {
  QueryExecutor exec(&catalog_);
  EXPECT_EQ(exec.Execute({"nope", {}}).status().code(), StatusCode::kNotFound);
}

TEST_F(QueryTest, UnknownColumnErrors) {
  QueryExecutor exec(&catalog_);
  SelectQuery q{"gene", {{"bogus", CompareOp::kEq, Value("x")}}};
  EXPECT_EQ(exec.Execute(q).status().code(), StatusCode::kNotFound);
}

TEST_F(QueryTest, ComparisonOperatorsOnInts) {
  EXPECT_EQ(Run({"gene", {{"length", CompareOp::kLt, Value(int64_t{200})}}})
                .size(),
            2u);  // 100, 150
  EXPECT_EQ(Run({"gene", {{"length", CompareOp::kLe, Value(int64_t{200})}}})
                .size(),
            3u);
  EXPECT_EQ(Run({"gene", {{"length", CompareOp::kGt, Value(int64_t{300})}}})
                .size(),
            1u);
  EXPECT_EQ(Run({"gene", {{"length", CompareOp::kGe, Value(int64_t{300})}}})
                .size(),
            2u);
  EXPECT_EQ(Run({"gene", {{"length", CompareOp::kNe, Value(int64_t{100})}}})
                .size(),
            4u);
}

TEST_F(QueryTest, StringOrderingComparison) {
  EXPECT_EQ(Run({"gene", {{"gid", CompareOp::kLt, Value("JW0003")}}}).size(),
            2u);
}

TEST_F(QueryTest, MixedTypeOrderedComparisonNeverMatches) {
  EXPECT_TRUE(
      Run({"gene", {{"length", CompareOp::kLt, Value("200")}}}).empty());
}

TEST_F(QueryTest, ConjunctionOfPredicates) {
  SelectQuery q{"gene",
                {{"name", CompareOp::kEq, Value("grpC")},
                 {"length", CompareOp::kGe, Value(int64_t{100})}}};
  ASSERT_EQ(Run(q).size(), 1u);
  SelectQuery none{"gene",
                   {{"name", CompareOp::kEq, Value("grpC")},
                    {"length", CompareOp::kGt, Value(int64_t{100})}}};
  EXPECT_TRUE(Run(none).empty());
}

TEST_F(QueryTest, ContainsTokenViaTextIndex) {
  QueryExecutor exec(&catalog_);
  SelectQuery q{"gene", {{"notes", CompareOp::kContainsToken, Value("grpC")}}};
  auto rows = *exec.Execute(q);
  ASSERT_EQ(rows.size(), 2u);  // rows 1 and 4 mention grpC in notes
  EXPECT_EQ(exec.stats().index_lookups, 1u);
}

TEST_F(QueryTest, ContainsTokenScanModeBypassesIndex) {
  // allow_text_index = false: the indexed column must fall back to a
  // full scan (same answers, all rows examined).
  QueryExecutor exec(&catalog_);
  SelectQuery q{"gene", {{"notes", CompareOp::kContainsToken, Value("grpc")}}};
  auto rows = *exec.Execute(q, nullptr, /*allow_text_index=*/false);
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_EQ(exec.stats().index_lookups, 0u);
  EXPECT_EQ(exec.stats().rows_examined, 5u);  // whole table scanned
}

TEST_F(QueryTest, ContainsTokenWithoutIndexScans) {
  // Column 'name' is not a declared text column -> fallback scan still
  // finds matches.
  SelectQuery q{"gene", {{"name", CompareOp::kContainsToken, Value("grpc")}}};
  auto rows = Run(q);
  // "grpC" tokenizes to {grpc}; "grpC2" to {grpc2}: only exact token match.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 0u);
}

TEST_F(QueryTest, ContainsTokenOnNonStringNeverMatches) {
  SelectQuery q{"gene",
                {{"length", CompareOp::kContainsToken, Value("100")}}};
  EXPECT_TRUE(Run(q).empty());
}

TEST_F(QueryTest, RestrictionLimitsRows) {
  const std::vector<Table::RowId> allowed{0, 4};
  SelectQuery q{"gene", {{"notes", CompareOp::kContainsToken, Value("grpc")}}};
  auto rows = Run(q, &allowed);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 4u);  // row 1 matches too but is outside the miniDB
}

TEST_F(QueryTest, RestrictionWithScanPath) {
  const std::vector<Table::RowId> allowed{1, 2};
  SelectQuery q{"gene", {{"length", CompareOp::kGe, Value(int64_t{100})}}};
  auto rows = Run(q, &allowed);
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(QueryTest, RestrictionWithEqualityPath) {
  const std::vector<Table::RowId> allowed{1};
  SelectQuery q{"gene", {{"gid", CompareOp::kEq, Value("JW0001")}}};
  EXPECT_TRUE(Run(q, &allowed).empty());
}

/// The rows of `all` that `allowed` lists: what a restricted execution
/// must return.
std::vector<Table::RowId> FilterRows(const std::vector<Table::RowId>& all,
                                     const std::vector<Table::RowId>& allowed) {
  std::vector<Table::RowId> out;
  for (Table::RowId r : all) {
    if (std::binary_search(allowed.begin(), allowed.end(), r)) {
      out.push_back(r);
    }
  }
  return out;
}

TEST_F(QueryTest, RestrictedEqualityIndexMatchesFilteredResult) {
  Table* strain = *catalog_.CreateTable(
      "strain", Schema({{"sid", DataType::kString, true},
                        {"kind", DataType::kString},
                        {"length", DataType::kInt64}}));
  const char* kinds[] = {"wild", "mutant", "wild", "wild", "mutant", "wild"};
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(strain
                    ->Insert({Value("S" + std::to_string(i)), Value(kinds[i]),
                              Value(int64_t{10} * i)})
                    .ok());
  }
  const SelectQuery q{"strain",
                      {{"kind", CompareOp::kEq, Value("wild")},
                       {"length", CompareOp::kGe, Value(int64_t{10})}}};
  const std::vector<Table::RowId> all = Run(q);
  ASSERT_EQ(all, (std::vector<Table::RowId>{2, 3, 5}));
  for (const std::vector<Table::RowId>& allowed :
       std::vector<std::vector<Table::RowId>>{
           {}, {0}, {0, 1, 3}, {2, 5}, {1, 2, 3, 4, 5}, {0, 1, 2, 3, 4, 5}}) {
    QueryExecutor exec(&catalog_);
    const auto rows = exec.Execute(q, &allowed);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(*rows, FilterRows(all, allowed));
    EXPECT_EQ(exec.stats().index_lookups, 1u);  // the equality index drove it
  }
}

TEST_F(QueryTest, RestrictedScanMatchesFilteredResult) {
  const SelectQuery q{"gene",
                      {{"length", CompareOp::kGe, Value(int64_t{150})}}};
  const std::vector<Table::RowId> all = Run(q);
  ASSERT_EQ(all.size(), 4u);
  for (const std::vector<Table::RowId>& allowed :
       std::vector<std::vector<Table::RowId>>{
           {}, {0}, {0, 4}, {1, 3}, {0, 1, 2, 3, 4}}) {
    QueryExecutor exec(&catalog_);
    const auto rows = exec.Execute(q, &allowed);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(*rows, FilterRows(all, allowed));
    EXPECT_EQ(exec.stats().index_lookups, 0u);
    // The scan visits exactly the listed rows.
    EXPECT_EQ(exec.stats().rows_examined, allowed.size());
  }
}

TEST_F(QueryTest, RestrictedScanSkipsRowsPastTheTable) {
  const SelectQuery q{"gene",
                      {{"length", CompareOp::kGe, Value(int64_t{150})}}};
  const std::vector<Table::RowId> allowed{0, 3, 4, 5, 99};
  QueryExecutor exec(&catalog_);
  const auto rows = exec.Execute(q, &allowed);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, FilterRows(Run(q), allowed));
  EXPECT_EQ(*rows, (std::vector<Table::RowId>{3, 4}));
  // Ids at or past num_rows() are never read.
  EXPECT_EQ(exec.stats().rows_examined, 3u);
}

TEST_F(QueryTest, StatsAccumulateAcrossQueries) {
  QueryExecutor exec(&catalog_);
  ASSERT_TRUE(exec.Execute({"gene", {}}).ok());
  ASSERT_TRUE(exec.Execute({"gene", {}}).ok());
  EXPECT_EQ(exec.stats().rows_examined, 10u);
  EXPECT_EQ(exec.stats().matches, 10u);
  exec.ResetStats();
  EXPECT_EQ(exec.stats().rows_examined, 0u);
}

TEST(ExecStatsTest, ResetZeroesAllCounters) {
  ExecStats stats;
  stats.rows_examined = 7;
  stats.index_lookups = 3;
  stats.matches = 2;
  stats.Reset();
  EXPECT_EQ(stats.rows_examined, 0u);
  EXPECT_EQ(stats.index_lookups, 0u);
  EXPECT_EQ(stats.matches, 0u);
}

TEST_F(QueryTest, AccumulateStatsFoldsWorkerCounters) {
  // Worker threads execute with a private ExecStats and fold it back into
  // the engine's accumulator after the join.
  QueryExecutor exec(&catalog_);
  ASSERT_TRUE(exec.Execute({"gene", {}}).ok());
  const ExecStats base = exec.stats();

  ExecStats worker;
  worker.rows_examined = 11;
  worker.index_lookups = 5;
  worker.matches = 4;
  exec.AccumulateStats(worker);
  EXPECT_EQ(exec.stats().rows_examined, base.rows_examined + 11);
  EXPECT_EQ(exec.stats().index_lookups, base.index_lookups + 5);
  EXPECT_EQ(exec.stats().matches, base.matches + 4);
}

TEST(QueryToStringTest, SqlRendering) {
  SelectQuery q{"gene",
                {{"gid", CompareOp::kEq, Value("JW0001")},
                 {"length", CompareOp::kGt, Value(int64_t{5})}}};
  EXPECT_EQ(q.ToSqlString(),
            "SELECT * FROM gene WHERE gid = 'JW0001' AND length > '5'");
  EXPECT_EQ((SelectQuery{"gene", {}}.ToSqlString()), "SELECT * FROM gene");
}

// ------------------------------- joins ---------------------------------

class JoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* gene = *catalog_.CreateTable(
        "gene", Schema({{"gid", DataType::kString, true},
                        {"family", DataType::kString}}));
    Table* protein = *catalog_.CreateTable(
        "protein", Schema({{"pid", DataType::kString, true},
                           {"gene_gid", DataType::kString},
                           {"ptype", DataType::kString}}));
    ASSERT_TRUE(catalog_.CreateTable("island",
                                     Schema({{"x", DataType::kInt64}}))
                    .ok());
    ASSERT_TRUE(gene->Insert({Value("JW0001"), Value("F1")}).ok());
    ASSERT_TRUE(gene->Insert({Value("JW0002"), Value("F2")}).ok());
    ASSERT_TRUE(
        protein->Insert({Value("P1"), Value("JW0001"), Value("kinase")})
            .ok());
    ASSERT_TRUE(
        protein->Insert({Value("P2"), Value("JW0001"), Value("receptor")})
            .ok());
    ASSERT_TRUE(
        protein->Insert({Value("P3"), Value("JW0002"), Value("kinase")})
            .ok());
    ASSERT_TRUE(
        catalog_.AddForeignKey("protein", "gene_gid", "gene", "gid").ok());
  }

  Catalog catalog_;
};

TEST_F(JoinTest, ChildToParentJoin) {
  QueryExecutor exec(&catalog_);
  JoinQuery join{"protein", "gene", {}, {}};
  auto pairs = exec.ExecuteJoin(join);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs->size(), 3u);  // every protein matches its gene
}

TEST_F(JoinTest, ParentToChildJoin) {
  QueryExecutor exec(&catalog_);
  JoinQuery join{"gene", "protein", {}, {}};
  auto pairs = exec.ExecuteJoin(join);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs->size(), 3u);
  // Gene JW0001 (row 0) pairs with two proteins.
  size_t for_gene0 = 0;
  for (const auto& [l, r] : *pairs) {
    if (l == 0) ++for_gene0;
  }
  EXPECT_EQ(for_gene0, 2u);
}

TEST_F(JoinTest, PredicatesOnBothSides) {
  QueryExecutor exec(&catalog_);
  JoinQuery join{"gene",
                 "protein",
                 {{"family", CompareOp::kEq, Value("F1")}},
                 {{"ptype", CompareOp::kEq, Value("kinase")}}};
  auto pairs = exec.ExecuteJoin(join);
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs->size(), 1u);
  EXPECT_EQ((*pairs)[0].first, 0u);   // gene JW0001
  EXPECT_EQ((*pairs)[0].second, 0u);  // protein P1
}

TEST_F(JoinTest, NoLinkingForeignKeyFails) {
  QueryExecutor exec(&catalog_);
  JoinQuery join{"gene", "island", {}, {}};
  EXPECT_EQ(exec.ExecuteJoin(join).status().code(), StatusCode::kNotFound);
}

TEST_F(JoinTest, UnknownTableOrColumnFails) {
  QueryExecutor exec(&catalog_);
  EXPECT_FALSE(exec.ExecuteJoin({"gene", "missing", {}, {}}).ok());
  JoinQuery bad_col{"gene", "protein", {}, {{"bogus", CompareOp::kEq,
                                             Value("x")}}};
  EXPECT_EQ(exec.ExecuteJoin(bad_col).status().code(),
            StatusCode::kNotFound);
}

TEST_F(JoinTest, EmptyResultWhenNoMatch) {
  QueryExecutor exec(&catalog_);
  JoinQuery join{"gene",
                 "protein",
                 {{"family", CompareOp::kEq, Value("F9")}},
                 {}};
  auto pairs = exec.ExecuteJoin(join);
  ASSERT_TRUE(pairs.ok());
  EXPECT_TRUE(pairs->empty());
}

TEST(CompareOpTest, Names) {
  EXPECT_STREQ(CompareOpName(CompareOp::kEq), "=");
  EXPECT_STREQ(CompareOpName(CompareOp::kContainsToken), "CONTAINS");
}

}  // namespace
}  // namespace nebula
