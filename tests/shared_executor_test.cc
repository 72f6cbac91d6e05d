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

TEST_F(SharedExecutorTest, ResultsIdenticalToIsolatedExecution) {
  const auto queries = MakeGroup();
  std::vector<std::vector<SearchHit>> shared_results;
  SharedKeywordExecutor shared(engine_.get());
  ASSERT_TRUE(shared.ExecuteGroup(queries, &shared_results).ok());
  ASSERT_EQ(shared_results.size(), queries.size());

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto isolated = *engine_->Search(queries[qi]);
    ASSERT_EQ(shared_results[qi].size(), isolated.size()) << "query " << qi;
    for (size_t h = 0; h < isolated.size(); ++h) {
      EXPECT_EQ(shared_results[qi][h].tuple, isolated[h].tuple);
      EXPECT_NEAR(shared_results[qi][h].confidence, isolated[h].confidence,
                  1e-12);
    }
  }
}

TEST_F(SharedExecutorTest, SharingReducesDistinctStatements) {
  SharedKeywordExecutor shared(engine_.get());
  std::vector<std::vector<SearchHit>> results;
  ASSERT_TRUE(shared.ExecuteGroup(MakeGroup(), &results).ok());
  EXPECT_GT(shared.stats().total_sql, shared.stats().distinct_sql);
  EXPECT_GT(shared.stats().sharing_ratio(), 0.0);
  EXPECT_LT(shared.stats().sharing_ratio(), 1.0);
}

TEST_F(SharedExecutorTest, EmptyGroup) {
  SharedKeywordExecutor shared(engine_.get());
  std::vector<std::vector<SearchHit>> results;
  ASSERT_TRUE(shared.ExecuteGroup({}, &results).ok());
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(shared.stats().total_sql, 0u);
  EXPECT_DOUBLE_EQ(shared.stats().sharing_ratio(), 0.0);
}

TEST_F(SharedExecutorTest, RespectsMiniDb) {
  MiniDb mini;
  mini.Add({gene_->id(), 3});
  SharedKeywordExecutor shared(engine_.get());
  std::vector<std::vector<SearchHit>> results;
  ASSERT_TRUE(shared.ExecuteGroup(MakeGroup(), &results, &mini).ok());
  for (const auto& hits : results) {
    for (const auto& h : hits) EXPECT_TRUE(mini.Contains(h.tuple));
  }
}

TEST_F(SharedExecutorTest, IdenticalQueriesShareFully) {
  const std::vector<KeywordQuery> queries = {
      {{"gene", "JW0001"}, 1.0, "a"},
      {{"gene", "JW0001"}, 1.0, "b"},
      {{"gene", "JW0001"}, 1.0, "c"},
  };
  SharedKeywordExecutor shared(engine_.get());
  std::vector<std::vector<SearchHit>> results;
  ASSERT_TRUE(shared.ExecuteGroup(queries, &results).ok());
  // 3 queries compile to the same statements: sharing ratio = 2/3.
  EXPECT_NEAR(shared.stats().sharing_ratio(), 2.0 / 3.0, 1e-9);
}

TEST_F(SharedExecutorTest, StatsAreReportedPerGroupNotAccumulated) {
  SharedKeywordExecutor shared(engine_.get());
  std::vector<std::vector<SearchHit>> results;
  ASSERT_TRUE(shared.ExecuteGroup(MakeGroup(), &results).ok());
  const size_t total = shared.stats().total_sql;
  const size_t distinct = shared.stats().distinct_sql;
  const double ratio = shared.stats().sharing_ratio();
  ASSERT_GT(total, 0u);

  // A second round through the same executor reports the same per-group
  // numbers — not twice them: ExecuteGroup resets on entry.
  ASSERT_TRUE(shared.ExecuteGroup(MakeGroup(), &results).ok());
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
  std::vector<std::vector<SearchHit>> results;
  ASSERT_TRUE(shared.ExecuteGroup(queries, &results).ok());
  EXPECT_EQ(shared.stats().total_sql, 4u);
  EXPECT_EQ(shared.stats().distinct_sql, 2u);
  ASSERT_EQ(results.size(), 3u);
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
