// Unified inverted value index: tokenizer contract, posting-list
// maintenance under insert interleavings (incremental == from-scratch
// rebuild), LookupToken against a brute-force scan of the cells, and the
// QueryExecutor fast path's bit-identical results and replayed ExecStats
// against the legacy posting-list/scan evaluation.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/fault_points.h"
#include "common/random.h"
#include "common/string_util.h"
#include "storage/catalog.h"
#include "storage/query.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"
#include "storage/value_index.h"
#include "testing/check_workload.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace nebula {
namespace {

Schema TwoTextSchema() {
  return Schema({{"id", DataType::kString, true},
                 {"title", DataType::kString, false},
                 {"abstract", DataType::kString, false},
                 {"score", DataType::kInt64, false}});
}

TEST(TokenizeForIndexTest, LowercasedAlnumRuns) {
  EXPECT_EQ(TokenizeForIndex("Gene JW0014, kinase!"),
            (std::vector<std::string>{"gene", "jw0014", "kinase"}));
  EXPECT_TRUE(TokenizeForIndex("...  \t").empty());
  EXPECT_EQ(TokenizeForIndex("a1b2"), (std::vector<std::string>{"a1b2"}));
}

TEST(ValueIndexTest, AddRowIndexesEveryStringColumn) {
  const Schema schema = TwoTextSchema();
  ValueIndex index;
  index.AddRow(schema, {Value("P1"), Value("gene kinase"),
                        Value("the kinase pathway"), Value(int64_t{7})},
               0);
  index.AddRow(schema, {Value("P2"), Value("unrelated"), Value("gene Gene"),
                        Value(int64_t{8})},
               1);

  const auto* title_kinase = index.Lookup("kinase", 1);
  ASSERT_NE(title_kinase, nullptr);
  EXPECT_EQ(*title_kinase, (std::vector<ValueIndex::RowId>{0}));
  const auto* abs_kinase = index.Lookup("kinase", 2);
  ASSERT_NE(abs_kinase, nullptr);
  EXPECT_EQ(*abs_kinase, (std::vector<ValueIndex::RowId>{0}));
  // Duplicate tokens within one cell dedup to one posting.
  const auto* abs_gene = index.Lookup("gene", 2);
  ASSERT_NE(abs_gene, nullptr);
  EXPECT_EQ(*abs_gene, (std::vector<ValueIndex::RowId>{1}));
  // Int columns are never indexed; absent (token, column) pairs are null.
  EXPECT_EQ(index.Lookup("7", 3), nullptr);
  EXPECT_EQ(index.Lookup("gene", 0), nullptr);
  EXPECT_EQ(index.Lookup("nosuchtoken", 1), nullptr);
  EXPECT_GT(index.num_tokens(), 0u);
  EXPECT_GT(index.num_postings(), 0u);
}

// ---- Property: incremental maintenance == from-scratch rebuild --------
// Build the table's index at a random point of the insert stream; every
// later Insert maintains it incrementally. The final index must equal a
// from-scratch rebuild over the full table, for any interleaving.

class IndexRebuildEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexRebuildEquivalence, CanonicalDumpsMatch) {
  Rng rng(GetParam());
  static const char* kWords[] = {"gene",   "protein", "kinase", "jw0014",
                                 "binds",  "pathway", "alpha",  "beta",
                                 "mutant", "express"};
  auto random_text = [&] {
    std::string text;
    const size_t n = 1 + rng.Uniform(5);
    for (size_t i = 0; i < n; ++i) {
      if (!text.empty()) text += ' ';
      text += kWords[rng.Uniform(std::size(kWords))];
    }
    return text;
  };

  Table table(0, "publication", TwoTextSchema());
  const size_t total_rows = 20 + rng.Uniform(40);
  const size_t build_at = rng.Uniform(total_rows);
  for (size_t r = 0; r < total_rows; ++r) {
    if (r == build_at) {
      // Lazy build at an arbitrary stream position; rows after this are
      // folded in incrementally by Insert.
      ASSERT_NE(table.TryValueIndex(), nullptr);
    }
    ASSERT_TRUE(table
                    .Insert({Value("P" + std::to_string(r)),
                             Value(random_text()), Value(random_text()),
                             Value(static_cast<int64_t>(r))})
                    .ok());
  }

  const ValueIndex* incremental = table.TryValueIndex();
  ASSERT_NE(incremental, nullptr);
  ValueIndex from_scratch;
  for (Table::RowId r = 0; r < table.num_rows(); ++r) {
    from_scratch.AddRow(table.schema(), table.GetRow(r), r);
  }
  EXPECT_EQ(incremental->CanonicalDump(), from_scratch.CanonicalDump());
  EXPECT_EQ(incremental->num_tokens(), from_scratch.num_tokens());
  EXPECT_EQ(incremental->num_postings(), from_scratch.num_postings());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexRebuildEquivalence,
                         ::testing::Values(1u, 2u, 7u, 42u, 1234u, 99999u));

// ---- Property: fast path == legacy path (rows AND ExecStats) ----------

class IndexVsScanExecution : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexVsScanExecution, IdenticalRowsAndReplayedStats) {
  Rng rng(GetParam());
  static const char* kWords[] = {"gene", "protein", "kinase", "jw0014",
                                 "binds", "pathway"};
  Catalog catalog;
  Table* table = *catalog.CreateTable("publication", TwoTextSchema());
  const size_t rows = 30 + rng.Uniform(30);
  for (size_t r = 0; r < rows; ++r) {
    std::string title = kWords[rng.Uniform(std::size(kWords))];
    title += ' ';
    title += kWords[rng.Uniform(std::size(kWords))];
    ASSERT_TRUE(table
                    ->Insert({Value("P" + std::to_string(r)), Value(title),
                              Value(std::string(kWords[rng.Uniform(
                                  std::size(kWords))])),
                              Value(static_cast<int64_t>(r % 10))})
                    .ok());
  }
  // Half the seeds also declare title a text column, covering the
  // replayed posting-list cost model; the other half replay the scan cost
  // model.
  const bool text_indexed = (GetParam() & 1) != 0;
  if (text_indexed) {
    ASSERT_TRUE(table->DeclareTextColumn(1).ok());
  }

  for (int round = 0; round < 20; ++round) {
    SelectQuery query;
    query.table = "publication";
    query.predicates.push_back({"title", CompareOp::kContainsToken,
                                Value(std::string(kWords[rng.Uniform(
                                    std::size(kWords))]))});
    if (rng.Bernoulli(0.5)) {
      query.predicates.push_back({"abstract", CompareOp::kContainsToken,
                                  Value(std::string(kWords[rng.Uniform(
                                      std::size(kWords))]))});
    }
    if (rng.Bernoulli(0.5)) {
      // Non-token residue: verified per candidate on both paths.
      query.predicates.push_back({"score", CompareOp::kGe,
                                  Value(static_cast<int64_t>(rng.Uniform(10)))});
    }

    QueryExecutor fast(&catalog);
    QueryExecutor legacy(&catalog);
    legacy.set_use_value_index(false);
    const auto a = fast.Execute(query);
    const auto b = legacy.Execute(query);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << query.ToSqlString();
    EXPECT_EQ(fast.stats().rows_examined, legacy.stats().rows_examined);
    EXPECT_EQ(fast.stats().index_lookups, legacy.stats().index_lookups);
    EXPECT_EQ(fast.stats().matches, legacy.stats().matches);
    EXPECT_EQ(fast.path_stats().index_path, 1u);
    EXPECT_EQ(fast.path_stats().legacy_path, 0u);
    EXPECT_EQ(legacy.path_stats().index_path, 0u);
    EXPECT_EQ(legacy.path_stats().legacy_path, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexVsScanExecution,
                         ::testing::Values(1u, 2u, 3u, 4u, 50u, 51u));

TEST(IndexVsScanExecution, EqualityPredicatesStayOnLegacyPath) {
  Catalog catalog;
  Table* table = *catalog.CreateTable("publication", TwoTextSchema());
  ASSERT_TRUE(table
                  ->Insert({Value("P0"), Value("gene kinase"),
                            Value("pathway"), Value(int64_t{1})})
                  .ok());
  SelectQuery query;
  query.table = "publication";
  query.predicates.push_back({"id", CompareOp::kEq, Value("P0")});
  query.predicates.push_back(
      {"title", CompareOp::kContainsToken, Value("gene")});
  QueryExecutor executor(&catalog);
  const auto result = executor.Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
  // Hash-index-eligible queries keep their historical driver.
  EXPECT_EQ(executor.path_stats().index_path, 0u);
  EXPECT_EQ(executor.path_stats().legacy_path, 1u);
}

// ---- Property: LookupToken == a brute-force scan of the cells ---------
// The value index is the one token index: the legacy token driver, the
// fast path's counter replay and the keyword layer's text mappings all
// read it through LookupToken, so no path compares its postings against
// a second index. Check them against the cells instead, on the declared
// text columns of the Tiny dataset and of a hostile check universe,
// before and after further inserts, with and without a failed build.

/// A text column's cells, each tokenized once and sorted for lookup.
std::vector<std::vector<std::string>> TokenizedCells(const Table& table,
                                                     size_t column) {
  std::vector<std::vector<std::string>> cells(table.num_rows());
  for (Table::RowId r = 0; r < table.num_rows(); ++r) {
    const Value& cell = table.GetCell(r, column);
    if (!cell.is_string()) continue;
    cells[r] = TokenizeForIndex(cell.AsString());
    std::sort(cells[r].begin(), cells[r].end());
  }
  return cells;
}

/// Probes every declared text column of `catalog` with the tokens of the
/// column, their upper-case variants and tokens that miss, and expects
/// LookupToken to return exactly the rows whose cell's tokens contain the
/// lower-cased probe. `stride` > 1 probes every stride-th token of the
/// vocabulary plus every token of the column's last rows (a failed build
/// scans the column per probe). Returns the number of probes made.
size_t ExpectLookupTokenEqualsScan(const Catalog& catalog, size_t stride) {
  constexpr size_t kLastRows = 5;
  size_t probes = 0;
  for (const auto& table : catalog.tables()) {
    for (size_t c = 0; c < table->schema().num_columns(); ++c) {
      if (!table->IsTextColumn(c)) continue;
      const auto cells = TokenizedCells(*table, c);
      std::set<std::string> vocabulary;
      for (const auto& tokens : cells) {
        vocabulary.insert(tokens.begin(), tokens.end());
      }
      std::set<std::string> tokens;
      size_t i = 0;
      for (const std::string& token : vocabulary) {
        if (i++ % stride == 0) tokens.insert(token);
      }
      for (size_t r = cells.size() - std::min(cells.size(), kLastRows);
           r < cells.size(); ++r) {
        tokens.insert(cells[r].begin(), cells[r].end());
      }
      std::vector<std::string> inputs(tokens.begin(), tokens.end());
      for (const std::string& token : tokens) {
        inputs.push_back(ToUpper(token));
      }
      // Misses: an absent token, an empty one, and needles that are not
      // single tokens (matched verbatim, never re-tokenized).
      for (const char* miss : {"zzqxnotatoken", "", "g-actin", "two words"}) {
        inputs.emplace_back(miss);
      }
      for (const std::string& input : inputs) {
        const std::string needle = ToLower(input);
        std::vector<Table::RowId> expected;
        for (Table::RowId r = 0; r < cells.size(); ++r) {
          if (std::binary_search(cells[r].begin(), cells[r].end(), needle)) {
            expected.push_back(r);
          }
        }
        std::vector<Table::RowId> scan;
        EXPECT_EQ(table->LookupToken(c, input, &scan), expected)
            << table->name() << "." << table->schema().column(c).name
            << " token '" << input << "'";
        ++probes;
      }
    }
  }
  return probes;
}

bool HasTextColumn(const Table& table) {
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    if (table.IsTextColumn(c)) return true;
  }
  return false;
}

/// Appends `count` rows to every table with a declared text column. Each
/// text cell repeats a token already in its column and adds a new one in
/// two cases; other cells get fresh values, so unique columns stay unique.
void InsertTextRows(Catalog* catalog, size_t count) {
  for (const auto& table : catalog->tables()) {
    if (!HasTextColumn(*table)) continue;
    const Schema& schema = table->schema();
    for (size_t i = 0; i < count; ++i) {
      const Table::RowId source = (i * 7) % table->num_rows();
      const std::string serial = std::to_string(table->num_rows());
      std::vector<Value> row;
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        if (table->IsTextColumn(c)) {
          const std::vector<std::string> old_tokens =
              TokenizeForIndex(table->GetCell(source, c).ToString());
          row.emplace_back(
              (old_tokens.empty() ? std::string() : old_tokens[0]) +
              " Freshtoken" + serial + " FRESHTOKEN" + serial);
          continue;
        }
        switch (schema.column(c).type) {
          case DataType::kString:
            row.emplace_back("extra-" + serial + "-" + std::to_string(c));
            break;
          case DataType::kInt64:
            row.emplace_back(static_cast<int64_t>(1000000 + table->num_rows()));
            break;
          case DataType::kDouble:
            row.emplace_back(0.5);
            break;
        }
      }
      ASSERT_TRUE(table->Insert(std::move(row)).ok()) << table->name();
    }
  }
}

/// The catalogs under test, in a fresh build each time: the Tiny bio
/// dataset and a hostile check universe.
struct TextCatalogs {
  std::unique_ptr<BioDataset> dataset;
  std::unique_ptr<check::CheckUniverse> universe;

  std::vector<Catalog*> catalogs() {
    return {&dataset->catalog, &universe->catalog};
  }
};

TextCatalogs BuildTextCatalogs() {
  TextCatalogs out;
  auto dataset = GenerateBioDataset(DatasetSpec::Tiny());
  EXPECT_TRUE(dataset.ok());
  if (dataset.ok()) out.dataset = std::move(*dataset);
  check::CheckWorkloadParams hostile;
  hostile.hostile_tokens = true;
  auto universe = check::BuildCheckUniverse(11, hostile);
  EXPECT_TRUE(universe.ok());
  if (universe.ok()) out.universe = std::move(*universe);
  return out;
}

TEST(LookupTokenEqualsScan, ValueIndexPostings) {
  TextCatalogs fixture = BuildTextCatalogs();
  ASSERT_NE(fixture.dataset, nullptr);
  ASSERT_NE(fixture.universe, nullptr);
  for (Catalog* catalog : fixture.catalogs()) {
    EXPECT_GT(ExpectLookupTokenEqualsScan(*catalog, /*stride=*/1), 0u);
    InsertTextRows(catalog, 5);
    EXPECT_GT(ExpectLookupTokenEqualsScan(*catalog, /*stride=*/1), 0u);
    for (const auto& table : catalog->tables()) {
      if (HasTextColumn(*table)) {
        EXPECT_TRUE(table->value_index_info().built) << table->name();
      }
    }
  }
}

TEST(LookupTokenEqualsScan, FailedBuildScansTheColumn) {
  TextCatalogs fixture = BuildTextCatalogs();
  ASSERT_NE(fixture.dataset, nullptr);
  ASSERT_NE(fixture.universe, nullptr);
  // Armed before first use: every table's first LookupToken latches the
  // build into kFailed, and LookupToken answers by scanning.
  ScopedFault fault(kFaultStorageValueIndexBuild);
  for (Catalog* catalog : fixture.catalogs()) {
    EXPECT_GT(ExpectLookupTokenEqualsScan(*catalog, /*stride=*/25), 0u);
    InsertTextRows(catalog, 5);
    EXPECT_GT(ExpectLookupTokenEqualsScan(*catalog, /*stride=*/25), 0u);
    for (const auto& table : catalog->tables()) {
      if (HasTextColumn(*table)) {
        EXPECT_TRUE(table->value_index_info().failed) << table->name();
      }
    }
  }
}

}  // namespace
}  // namespace nebula
