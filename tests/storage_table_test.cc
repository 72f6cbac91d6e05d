#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace nebula {
namespace {

Schema GeneSchema() {
  return Schema({{"gid", DataType::kString, /*unique=*/true},
                 {"name", DataType::kString},
                 {"length", DataType::kInt64}});
}

TEST(SchemaTest, ColumnIndexCaseInsensitive) {
  const Schema s = GeneSchema();
  EXPECT_EQ(s.ColumnIndex("gid"), 0);
  EXPECT_EQ(s.ColumnIndex("GID"), 0);
  EXPECT_EQ(s.ColumnIndex("Length"), 2);
  EXPECT_EQ(s.ColumnIndex("missing"), -1);
  EXPECT_TRUE(s.HasColumn("name"));
  EXPECT_FALSE(s.HasColumn("nope"));
}

TEST(SchemaTest, ValidateRowArity) {
  const Schema s = GeneSchema();
  EXPECT_FALSE(s.ValidateRow({Value("a")}).ok());
  EXPECT_TRUE(
      s.ValidateRow({Value("a"), Value("b"), Value(int64_t{1})}).ok());
}

TEST(SchemaTest, ValidateRowTypes) {
  const Schema s = GeneSchema();
  const Status st =
      s.ValidateRow({Value("a"), Value("b"), Value("not-an-int")});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(TupleIdTest, EqualityOrderingHash) {
  const TupleId a{1, 5}, b{1, 5}, c{1, 6}, d{2, 0};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_LT(a, c);
  EXPECT_LT(c, d);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), c.Hash());
  EXPECT_EQ(a.ToString(), "1:5");
}

class TableTest : public ::testing::Test {
 protected:
  TableTest() : table_(0, "gene", GeneSchema()) {}

  Table::RowId MustInsert(const char* gid, const char* name, int64_t len) {
    auto r = table_.Insert({Value(gid), Value(name), Value(len)});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }

  Table table_;
};

TEST_F(TableTest, InsertAssignsSequentialRowIds) {
  EXPECT_EQ(MustInsert("JW0001", "aaaA", 10), 0u);
  EXPECT_EQ(MustInsert("JW0002", "aabB", 20), 1u);
  EXPECT_EQ(table_.num_rows(), 2u);
}

TEST_F(TableTest, GetRowAndCell) {
  MustInsert("JW0001", "aaaA", 10);
  EXPECT_EQ(table_.GetRow(0)[0].AsString(), "JW0001");
  EXPECT_EQ(table_.GetCell(0, 2).AsInt(), 10);
}

TEST_F(TableTest, RejectsWrongArity) {
  auto r = table_.Insert({Value("JW0001")});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(TableTest, RejectsWrongType) {
  auto r = table_.Insert({Value("JW0001"), Value("x"), Value("10")});
  EXPECT_FALSE(r.ok());
}

TEST_F(TableTest, EnforcesUniqueConstraint) {
  MustInsert("JW0001", "aaaA", 10);
  auto dup = table_.Insert({Value("JW0001"), Value("zzzZ"), Value(int64_t{5})});
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  // Non-unique column may repeat.
  EXPECT_TRUE(
      table_.Insert({Value("JW0002"), Value("aaaA"), Value(int64_t{5})}).ok());
}

TEST_F(TableTest, LookupByValue) {
  MustInsert("JW0001", "aaaA", 10);
  MustInsert("JW0002", "aaaA", 20);
  MustInsert("JW0003", "bbbB", 30);
  const auto rows = table_.Lookup("name", Value("aaaA"));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], 0u);
  EXPECT_EQ(rows[1], 1u);
  EXPECT_TRUE(table_.Lookup("name", Value("none")).empty());
  EXPECT_TRUE(table_.Lookup("missing_col", Value("x")).empty());
}

TEST_F(TableTest, LookupIsMaintainedIncrementally) {
  MustInsert("JW0001", "aaaA", 10);
  EXPECT_EQ(table_.Lookup("gid", Value("JW0001")).size(), 1u);
  // Index already built; the next insert must show up.
  MustInsert("JW0002", "aaaA", 20);
  EXPECT_EQ(table_.Lookup("gid", Value("JW0002")).size(), 1u);
}

TEST_F(TableTest, LookupIntColumn) {
  MustInsert("JW0001", "aaaA", 10);
  MustInsert("JW0002", "bbbB", 10);
  EXPECT_EQ(table_.Lookup("length", Value(int64_t{10})).size(), 2u);
  // Same digits, wrong type: no hit.
  EXPECT_TRUE(table_.Lookup("length", Value("10")).empty());
}

TEST_F(TableTest, ScanWithPredicate) {
  MustInsert("JW0001", "aaaA", 10);
  MustInsert("JW0002", "bbbB", 25);
  MustInsert("JW0003", "cccC", 40);
  const auto rows = table_.Scan(
      [](const std::vector<Value>& row) { return row[2].AsInt() > 15; });
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], 1u);
}

TEST_F(TableTest, DistinctCount) {
  MustInsert("JW0001", "aaaA", 10);
  MustInsert("JW0002", "aaaA", 20);
  MustInsert("JW0003", "bbbB", 10);
  EXPECT_EQ(table_.DistinctCount(1), 2u);
  EXPECT_EQ(table_.DistinctCount(0), 3u);
}

// ----------------------------- text columns -----------------------------

class TextColumnTest : public ::testing::Test {
 protected:
  TextColumnTest()
      : table_(0, "pub",
               Schema({{"id", DataType::kString, true},
                       {"abstract", DataType::kString},
                       {"year", DataType::kInt64}})) {}

  size_t Count(size_t column, const std::string& token) {
    return table_.LookupToken(column, token, &scan_).size();
  }

  Table table_;
  std::vector<Table::RowId> scan_;
};

TEST_F(TextColumnTest, DeclareAndLookup) {
  ASSERT_TRUE(table_
                  .Insert({Value("P1"), Value("gene JW0014 binds G-Actin"),
                           Value(int64_t{2014})})
                  .ok());
  ASSERT_TRUE(
      table_.Insert({Value("P2"), Value("unrelated text"), Value(int64_t{2015})})
          .ok());
  ASSERT_TRUE(table_.DeclareTextColumn(1).ok());
  EXPECT_TRUE(table_.IsTextColumn(1));
  EXPECT_FALSE(table_.IsTextColumn(0));

  EXPECT_EQ(Count(1, "jw0014"), 1u);
  EXPECT_EQ(Count(1, "JW0014"), 1u);  // case-insensitive
  EXPECT_EQ(Count(1, "text"), 1u);
  EXPECT_EQ(Count(1, "absent"), 0u);
  // "G-Actin" is split at '-' by the index tokenizer.
  EXPECT_EQ(Count(1, "actin"), 1u);
  // Served from the value index: the scan storage stays untouched.
  EXPECT_TRUE(scan_.empty());
}

TEST_F(TextColumnTest, UndeclaredColumnIsEmpty) {
  ASSERT_TRUE(
      table_.Insert({Value("P1"), Value("abc"), Value(int64_t{1})}).ok());
  EXPECT_EQ(Count(1, "abc"), 0u);
  // The value index holds the token; only the declaration is missing.
  ASSERT_NE(table_.TryValueIndex(), nullptr);
  EXPECT_NE(table_.TryValueIndex()->Lookup("abc", 1), nullptr);
}

TEST_F(TextColumnTest, PostingsMaintainedAcrossInserts) {
  ASSERT_TRUE(table_.DeclareTextColumn(1).ok());
  ASSERT_TRUE(
      table_.Insert({Value("P1"), Value("alpha beta"), Value(int64_t{1})})
          .ok());
  EXPECT_EQ(Count(1, "beta"), 1u);  // builds the value index
  ASSERT_TRUE(
      table_.Insert({Value("P2"), Value("beta gamma"), Value(int64_t{2})})
          .ok());
  EXPECT_EQ(Count(1, "beta"), 2u);
  EXPECT_EQ(Count(1, "gamma"), 1u);
}

TEST_F(TextColumnTest, RepeatedTokenInOneRowPostsOnce) {
  ASSERT_TRUE(table_.DeclareTextColumn(1).ok());
  ASSERT_TRUE(
      table_.Insert({Value("P1"), Value("echo echo echo"), Value(int64_t{1})})
          .ok());
  EXPECT_EQ(Count(1, "echo"), 1u);
}

TEST_F(TextColumnTest, RejectsNonStringColumn) {
  EXPECT_EQ(table_.DeclareTextColumn(2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table_.DeclareTextColumn(9).code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(table_.IsTextColumn(2));
  EXPECT_FALSE(table_.IsTextColumn(9));
}

TEST(TokenizeForIndexTest, SplitsOnNonAlnum) {
  const auto toks = TokenizeForIndex("Gene JW0014, binds G-Actin!");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[0], "gene");
  EXPECT_EQ(toks[1], "jw0014");
  EXPECT_EQ(toks[3], "g");
  EXPECT_EQ(toks[4], "actin");
}

TEST(TokenizeForIndexTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(TokenizeForIndex("").empty());
  EXPECT_TRUE(TokenizeForIndex("... !!").empty());
}

}  // namespace
}  // namespace nebula
