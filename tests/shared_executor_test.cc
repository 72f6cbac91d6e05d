#include <gtest/gtest.h>

#include "common/string_util.h"
#include "keyword/engine.h"
#include "keyword/mini_db.h"
#include "keyword/query_types.h"
#include "keyword/shared_executor.h"
#include "meta/nebula_meta.h"
#include "storage/catalog.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace nebula {
namespace {

class SharedExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gene_ = *catalog_.CreateTable(
        "gene", Schema({{"gid", DataType::kString, true},
                        {"name", DataType::kString, true}}));
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(gene_
                      ->Insert({Value(StrFormat("JW%04d", i)),
                                Value(StrFormat("ab%cX", 'a' + i))})
                      .ok());
    }
    ASSERT_TRUE(meta_.AddConcept("Gene", "gene", {{"gid"}, {"name"}}).ok());
    ASSERT_TRUE(meta_.SetColumnPattern("gene", "gid", "JW[0-9]{4}").ok());
    ASSERT_TRUE(meta_.SetColumnPattern("gene", "name", "[a-z]{3}[A-Z]").ok());
    engine_ = std::make_unique<KeywordSearchEngine>(&catalog_, &meta_);
  }

  Catalog catalog_;
  NebulaMeta meta_;
  Table* gene_ = nullptr;
  std::unique_ptr<KeywordSearchEngine> engine_;
};

std::vector<KeywordQuery> MakeGroup() {
  return {
      {{"gene", "JW0003"}, 1.0, "q0"},
      {{"gene", "JW0003"}, 0.8, "q1"},  // duplicate content, lower weight
      {{"gene", "abcX"}, 0.9, "q2"},
      {{"JW0007"}, 0.7, "q3"},
  };
}

/// The group's rows bucketed by query, each bucket folded by MergeHits:
/// what engine.Search(queries[q]) returns for query q.
std::vector<std::vector<SearchHit>> MergePerQuery(
    const std::vector<GroupRow>& rows, size_t num_queries) {
  std::vector<std::vector<SearchHit>> buckets(num_queries);
  for (const GroupRow& r : rows) {
    buckets[r.query].push_back({r.tuple(), r.confidence});
  }
  for (auto& hits : buckets) {
    hits = KeywordSearchEngine::MergeHits(std::move(hits));
  }
  return buckets;
}

/// Runs `queries` through ExecuteGroup over CompileGroup's plans.
std::vector<GroupRow> RunGroup(SharedKeywordExecutor* shared,
                               const KeywordSearchEngine& engine,
                               const std::vector<KeywordQuery>& queries,
                               const MiniDb* mini_db = nullptr) {
  std::vector<GroupRow> rows;
  EXPECT_TRUE(
      shared->ExecuteGroup(engine.CompileGroup(queries), mini_db, &rows).ok());
  return rows;
}

TEST_F(SharedExecutorTest, ResultsIdenticalToIsolatedExecution) {
  const auto queries = MakeGroup();
  SharedKeywordExecutor shared(engine_.get());
  const auto merged =
      MergePerQuery(RunGroup(&shared, *engine_, queries), queries.size());

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto isolated = *engine_->Search(queries[qi]);
    ASSERT_EQ(merged[qi].size(), isolated.size()) << "query " << qi;
    for (size_t h = 0; h < isolated.size(); ++h) {
      EXPECT_EQ(merged[qi][h].tuple, isolated[h].tuple);
      EXPECT_EQ(merged[qi][h].confidence, isolated[h].confidence);
    }
  }
}

TEST_F(SharedExecutorTest, RowsInQueryThenPlanOrder) {
  const auto queries = MakeGroup();
  const auto plans = engine_->CompileGroup(queries);
  SharedKeywordExecutor shared(engine_.get());
  std::vector<GroupRow> rows;
  ASSERT_TRUE(shared.ExecuteGroup(plans, nullptr, &rows).ok());

  // Expected: each query's statements in plan order, each statement's
  // rows as ExecuteRows returns them, at the statement's confidence.
  std::vector<GroupRow> want;
  for (uint32_t qi = 0; qi < plans.size(); ++qi) {
    for (const GeneratedSql& sql : plans[qi]) {
      const auto selected = *engine_->ExecuteRows(sql, nullptr, nullptr);
      for (Table::RowId r : selected.rows) {
        want.push_back({selected.table_id, qi, r, sql.confidence});
      }
    }
  }
  ASSERT_EQ(rows.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(rows[i].tuple(), want[i].tuple()) << "row " << i;
    EXPECT_EQ(rows[i].query, want[i].query) << "row " << i;
    EXPECT_EQ(rows[i].confidence, want[i].confidence) << "row " << i;
  }
}

TEST_F(SharedExecutorTest, SharingReducesDistinctStatements) {
  SharedKeywordExecutor shared(engine_.get());
  (void)RunGroup(&shared, *engine_, MakeGroup());
  EXPECT_GT(shared.stats().total_sql, shared.stats().distinct_sql);
  EXPECT_GT(shared.stats().sharing_ratio(), 0.0);
  EXPECT_LT(shared.stats().sharing_ratio(), 1.0);
}

TEST_F(SharedExecutorTest, EmptyGroup) {
  SharedKeywordExecutor shared(engine_.get());
  EXPECT_TRUE(RunGroup(&shared, *engine_, {}).empty());
  EXPECT_EQ(shared.stats().total_sql, 0u);
  EXPECT_DOUBLE_EQ(shared.stats().sharing_ratio(), 0.0);
}

TEST_F(SharedExecutorTest, RespectsMiniDb) {
  MiniDb mini;
  mini.Add({gene_->id(), 3});
  SharedKeywordExecutor shared(engine_.get());
  for (const GroupRow& r : RunGroup(&shared, *engine_, MakeGroup(), &mini)) {
    EXPECT_TRUE(mini.Contains(r.tuple()));
  }
}

TEST_F(SharedExecutorTest, IdenticalQueriesShareFully) {
  const std::vector<KeywordQuery> queries = {
      {{"gene", "JW0001"}, 1.0, "a"},
      {{"gene", "JW0001"}, 1.0, "b"},
      {{"gene", "JW0001"}, 1.0, "c"},
  };
  SharedKeywordExecutor shared(engine_.get());
  (void)RunGroup(&shared, *engine_, queries);
  // 3 queries compile to the same statements: sharing ratio = 2/3.
  EXPECT_NEAR(shared.stats().sharing_ratio(), 2.0 / 3.0, 1e-9);
}

TEST_F(SharedExecutorTest, StatsAreReportedPerGroupNotAccumulated) {
  SharedKeywordExecutor shared(engine_.get());
  (void)RunGroup(&shared, *engine_, MakeGroup());
  const size_t total = shared.stats().total_sql;
  const size_t distinct = shared.stats().distinct_sql;
  const double ratio = shared.stats().sharing_ratio();
  ASSERT_GT(total, 0u);

  // A second round through the same executor reports the same per-group
  // numbers — not twice them: ExecuteGroup resets on entry.
  (void)RunGroup(&shared, *engine_, MakeGroup());
  EXPECT_EQ(shared.stats().total_sql, total);
  EXPECT_EQ(shared.stats().distinct_sql, distinct);
  EXPECT_DOUBLE_EQ(shared.stats().sharing_ratio(), ratio);
}

// Two double literals that print alike under Value::ToString's "%.6g" are
// two statements. Keyed by CanonicalKey, the group ran one of them and
// handed its rows to both queries.
TEST(SharedExecutorDoubleLiteralTest, DistinctDoubleLiteralsRunTwoStatements) {
  Catalog catalog;
  Table* m = *catalog.CreateTable(
      "m", Schema({{"id", DataType::kString, true},
                   {"mass", DataType::kDouble}}));
  ASSERT_TRUE(m->Insert({Value("r0"), Value(1.0000001)}).ok());
  ASSERT_TRUE(m->Insert({Value("r1"), Value(1.0000002)}).ok());
  NebulaMeta meta;
  ASSERT_TRUE(meta.AddConcept("M", "m", {{"mass"}}).ok());
  ASSERT_TRUE(meta.SetColumnPattern("m", "mass", "[0-9]+\\.[0-9]+").ok());
  KeywordSearchEngine engine(&catalog, &meta);

  const std::vector<KeywordQuery> queries = {
      {{"1.0000001"}, 1.0, "first"},
      {{"1.0000002"}, 1.0, "second"},
      {{"1.0000001", "1.0000002"}, 1.0, "both"},
  };
  SharedKeywordExecutor shared(&engine);
  const auto results =
      MergePerQuery(RunGroup(&shared, engine, queries), queries.size());
  EXPECT_EQ(shared.stats().total_sql, 4u);
  EXPECT_EQ(shared.stats().distinct_sql, 2u);
  ASSERT_EQ(results[0].size(), 1u);
  EXPECT_EQ(results[0][0].tuple, (TupleId{m->id(), 0}));
  ASSERT_EQ(results[1].size(), 1u);
  EXPECT_EQ(results[1][0].tuple, (TupleId{m->id(), 1}));
  ASSERT_EQ(results[2].size(), 2u);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto isolated = *engine.Search(queries[qi]);
    ASSERT_EQ(results[qi].size(), isolated.size()) << "query " << qi;
    for (size_t h = 0; h < isolated.size(); ++h) {
      EXPECT_EQ(results[qi][h].tuple, isolated[h].tuple);
    }
  }
}

TEST(SharedExecutionStatsTest, ResetZeroesCounters) {
  SharedExecutionStats stats;
  stats.total_sql = 10;
  stats.distinct_sql = 4;
  EXPECT_GT(stats.sharing_ratio(), 0.0);
  stats.Reset();
  EXPECT_EQ(stats.total_sql, 0u);
  EXPECT_EQ(stats.distinct_sql, 0u);
  EXPECT_DOUBLE_EQ(stats.sharing_ratio(), 0.0);
}

TEST(MiniDbTest, AddContainsSize) {
  MiniDb mini;
  EXPECT_TRUE(mini.empty());
  mini.Add({0, 1});
  mini.Add({0, 1});  // idempotent
  mini.Add({1, 2});
  EXPECT_EQ(mini.size(), 2u);
  EXPECT_TRUE(mini.Contains({0, 1}));
  EXPECT_FALSE(mini.Contains({0, 2}));
  ASSERT_NE(mini.ForTable(0), nullptr);
  EXPECT_EQ(mini.ForTable(0)->size(), 1u);
  EXPECT_EQ(mini.ForTable(9), nullptr);
}

}  // namespace
}  // namespace nebula
