#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "annotation/annotation_store.h"
#include "common/string_util.h"
#include "core/acg.h"
#include "core/identify.h"
#include "keyword/engine.h"
#include "keyword/mini_db.h"
#include "keyword/query_types.h"
#include "meta/nebula_meta.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "storage/catalog.h"
#include "storage/query.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace nebula {
namespace {

/// Fixture: genes JW0000..JW0009 with an ACG where JW0001 shares
/// annotations with the focal gene JW0000.
class IdentifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gene_ = *catalog_.CreateTable(
        "gene", Schema({{"gid", DataType::kString, true},
                        {"name", DataType::kString, true}}));
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(gene_
                      ->Insert({Value(StrFormat("JW%04d", i)),
                                Value(StrFormat("aa%cX", 'a' + i))})
                      .ok());
    }
    ASSERT_TRUE(meta_.AddConcept("Gene", "gene", {{"gid"}, {"name"}}).ok());
    ASSERT_TRUE(meta_.SetColumnPattern("gene", "gid", "JW[0-9]{4}").ok());
    ASSERT_TRUE(meta_.SetColumnPattern("gene", "name", "[a-z]{2}[a-z][A-Z]").ok());
    engine_ = std::make_unique<KeywordSearchEngine>(&catalog_, &meta_);

    // ACG: annotations shared between gene rows 0 and 1.
    const AnnotationId a1 = store_.AddAnnotation("x");
    ASSERT_TRUE(store_.Attach(a1, Tid(0)).ok());
    ASSERT_TRUE(store_.Attach(a1, Tid(1)).ok());
    acg_.BuildFromStore(store_);
  }

  TupleId Tid(uint64_t row) const { return {gene_->id(), row}; }

  Catalog catalog_;
  NebulaMeta meta_;
  AnnotationStore store_;
  Acg acg_;
  Table* gene_ = nullptr;
  std::unique_ptr<KeywordSearchEngine> engine_;
};

TEST_F(IdentifyTest, FindsQueriedTuples) {
  TupleIdentifier identifier(engine_.get(), &acg_);
  const std::vector<KeywordQuery> queries = {
      {{"gene", "JW0002"}, 1.0, "q1"},
      {{"gene", "JW0003"}, 0.8, "q2"},
  };
  const auto candidates = *identifier.Identify(queries, {});
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].tuple, Tid(2));
  EXPECT_EQ(candidates[1].tuple, Tid(3));
  // Normalization: top candidate at 1.0, the other scaled by the query
  // weight ratio.
  EXPECT_DOUBLE_EQ(candidates[0].confidence, 1.0);
  EXPECT_NEAR(candidates[1].confidence, 0.8, 1e-9);
}

TEST_F(IdentifyTest, QueryWeightScalesConfidence) {
  TupleIdentifier identifier(engine_.get(), &acg_);
  const std::vector<KeywordQuery> queries = {
      {{"gene", "JW0002"}, 1.0, "q1"},
      {{"gene", "JW0003"}, 0.5, "q2"},
  };
  const auto candidates = *identifier.Identify(queries, {});
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_NEAR(candidates[1].confidence / candidates[0].confidence, 0.5,
              1e-9);
}

TEST_F(IdentifyTest, GroupRewardSumsAcrossQueries) {
  TupleIdentifier identifier(engine_.get(), &acg_);
  // Row 2 is referenced twice: by gid and by name.
  const std::vector<KeywordQuery> queries = {
      {{"gene", "JW0002"}, 1.0, "q1"},
      {{"gene", "aacX"}, 1.0, "q2"},
      {{"gene", "JW0003"}, 1.0, "q3"},
  };
  const auto candidates = *identifier.Identify(queries, {});
  ASSERT_GE(candidates.size(), 2u);
  // The doubly-referenced tuple must rank first with strictly higher
  // confidence than the singly-referenced one.
  EXPECT_EQ(candidates[0].tuple, Tid(2));
  EXPECT_GT(candidates[0].confidence, candidates[1].confidence);
  EXPECT_EQ(candidates[0].evidence.size(), 2u);
}

TEST_F(IdentifyTest, GroupRewardDisabledKeepsMax) {
  IdentifyParams params;
  params.group_reward = false;
  TupleIdentifier identifier(engine_.get(), &acg_, params);
  const std::vector<KeywordQuery> queries = {
      {{"gene", "JW0002"}, 1.0, "q1"},
      {{"gene", "aacX"}, 1.0, "q2"},
      {{"gene", "JW0003"}, 1.0, "q3"},
  };
  const auto candidates = *identifier.Identify(queries, {});
  // Without the reward, both tuples keep comparable confidences.
  ASSERT_GE(candidates.size(), 2u);
  EXPECT_NEAR(candidates[0].confidence, candidates[1].confidence, 0.05);
}

TEST_F(IdentifyTest, FocalAdjustmentBoostsConnectedCandidates) {
  // Focal = row 0; row 1 shares an annotation with it in the ACG.
  TupleIdentifier with(engine_.get(), &acg_);
  IdentifyParams off;
  off.focal_adjustment = false;
  TupleIdentifier without(engine_.get(), &acg_, off);

  const std::vector<KeywordQuery> queries = {
      {{"gene", "JW0001"}, 1.0, "q1"},  // connected to focal
      {{"gene", "JW0005"}, 1.0, "q2"},  // not connected
  };
  const auto boosted = *with.Identify(queries, {Tid(0)});
  const auto plain = *without.Identify(queries, {Tid(0)});

  // Without adjustment the two candidates tie; with it, row 1 wins.
  ASSERT_EQ(boosted.size(), 2u);
  EXPECT_EQ(boosted[0].tuple, Tid(1));
  EXPECT_GT(boosted[0].confidence, boosted[1].confidence);
  ASSERT_EQ(plain.size(), 2u);
  EXPECT_NEAR(plain[0].confidence, plain[1].confidence, 1e-9);
}

TEST_F(IdentifyTest, FocalAdjustmentNoopWithoutFocal) {
  TupleIdentifier identifier(engine_.get(), &acg_);
  const std::vector<KeywordQuery> queries = {{{"gene", "JW0001"}, 1.0, "q"}};
  const auto candidates = *identifier.Identify(queries, {});
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_DOUBLE_EQ(candidates[0].confidence, 1.0);
}

TEST_F(IdentifyTest, MiniDbRestrictsCandidates) {
  TupleIdentifier identifier(engine_.get(), &acg_);
  MiniDb mini;
  mini.Add(Tid(2));
  const std::vector<KeywordQuery> queries = {
      {{"gene", "JW0002"}, 1.0, "q1"},
      {{"gene", "JW0003"}, 1.0, "q2"},
  };
  const auto candidates = *identifier.Identify(queries, {}, &mini);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].tuple, Tid(2));
}

// Two queries share a statement (gid = 'JW0002', at a different
// confidence in each), and tuple 2 is also hit by a statement only the
// first query holds. The shared statement runs once, and each query still
// sees its own confidence for it.
TEST_F(IdentifyTest, SharedStatementRunsOnceAtEachQuerysConfidence) {
  const std::vector<KeywordQuery> queries = {
      {{"gene", "JW0002", "aacX"}, 1.0, "q0"},
      {{"JW0002"}, 0.9, "q1"},
      {{"gene", "JW0005"}, 0.5, "q2"},
  };
  const auto plans = engine_->CompileGroup(queries);
  ASSERT_EQ(plans.size(), 3u);
  ASSERT_EQ(plans[0].size(), 2u);
  ASSERT_EQ(plans[1].size(), 1u);
  ASSERT_EQ(plans[2].size(), 1u);
  ASSERT_TRUE(plans[1][0].SameStatement(plans[0][0]));
  ASSERT_NE(plans[1][0].confidence, plans[0][0].confidence);

  // Reference candidates: Search per query, weighted and summed per tuple
  // in query order, normalized, ranked by (confidence desc, tuple asc).
  KeywordSearchEngine reference(&catalog_, &meta_);
  std::map<TupleId, CandidateTuple> grouped;
  for (const KeywordQuery& q : queries) {
    const auto hits = reference.Search(q);
    ASSERT_TRUE(hits.ok());
    for (const SearchHit& hit : *hits) {
      CandidateTuple& c = grouped[hit.tuple];
      c.tuple = hit.tuple;
      c.confidence += hit.confidence * q.weight;
      c.evidence.push_back(q.label);
    }
  }
  double max_conf = 0.0;
  for (const auto& [tuple, c] : grouped) {
    max_conf = std::max(max_conf, c.confidence);
  }
  std::vector<CandidateTuple> want;
  for (auto& [tuple, c] : grouped) {
    c.confidence /= max_conf;
    want.push_back(c);
  }
  std::stable_sort(want.begin(), want.end(),
                   [](const CandidateTuple& a, const CandidateTuple& b) {
                     return a.confidence > b.confidence;
                   });
  // Reference counters: each distinct statement once.
  ExecStats want_stats;
  for (const GeneratedSql* sql : {&plans[0][0], &plans[0][1], &plans[2][0]}) {
    ExecStats one;
    ASSERT_TRUE(reference.ExecuteRows(*sql, nullptr, &one).ok());
    want_stats += one;
  }
  ASSERT_GT(want_stats.rows_examined, 0u);

  obs::ScopedEventContext scope(nullptr);
  TupleIdentifier identifier(engine_.get(), &acg_);
  const auto got = *identifier.Identify(queries, {});
  EXPECT_EQ(engine_->stats().rows_examined, want_stats.rows_examined);
  EXPECT_EQ(engine_->stats().index_lookups, want_stats.index_lookups);
  EXPECT_EQ(engine_->stats().matches, want_stats.matches);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(scope.context()->sql_executed, 3u);
    EXPECT_EQ(scope.context()->sql_shared, 1u);
  }
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].tuple, Tid(2));
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].tuple, want[i].tuple) << "rank " << i;
    EXPECT_EQ(got[i].confidence, want[i].confidence) << "rank " << i;
    EXPECT_EQ(got[i].evidence, want[i].evidence) << "rank " << i;
  }
}

TEST_F(IdentifyTest, EvidenceDeduplicated) {
  TupleIdentifier identifier(engine_.get(), &acg_);
  // Two identical queries (same label): evidence should list it once.
  const std::vector<KeywordQuery> queries = {
      {{"gene", "JW0002"}, 1.0, "dup"},
      {{"gene", "JW0002"}, 1.0, "dup"},
  };
  const auto candidates = *identifier.Identify(queries, {});
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].evidence.size(), 1u);
  EXPECT_EQ(candidates[0].evidence[0], "dup");
}

TEST_F(IdentifyTest, EmptyQuerySetYieldsNoCandidates) {
  TupleIdentifier identifier(engine_.get(), &acg_);
  EXPECT_TRUE(identifier.Identify({}, {Tid(0)})->empty());
}

TEST_F(IdentifyTest, EqualConfidenceTieBreaksByTupleId) {
  TupleIdentifier identifier(engine_.get(), &acg_);
  // Four tuples at identical confidence, queried in shuffled order: the
  // ranking must fall back to ascending tuple id. Regression guard for
  // the differential harness — equal-confidence candidates must never
  // reorder across runs or configurations.
  const std::vector<KeywordQuery> queries = {
      {{"gene", "JW0005"}, 1.0, "q1"},
      {{"gene", "JW0003"}, 1.0, "q2"},
      {{"gene", "JW0008"}, 1.0, "q3"},
      {{"gene", "JW0002"}, 1.0, "q4"},
  };
  const auto first = *identifier.Identify(queries, {});
  ASSERT_EQ(first.size(), 4u);
  for (const auto& c : first) EXPECT_DOUBLE_EQ(c.confidence, 1.0);
  EXPECT_EQ(first[0].tuple, Tid(2));
  EXPECT_EQ(first[1].tuple, Tid(3));
  EXPECT_EQ(first[2].tuple, Tid(5));
  EXPECT_EQ(first[3].tuple, Tid(8));
  // And the whole ranking is reproducible call over call.
  const auto second = *identifier.Identify(queries, {});
  ASSERT_EQ(second.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].tuple, first[i].tuple);
  }
}

TEST_F(IdentifyTest, ConfidencesAlwaysNormalized) {
  TupleIdentifier identifier(engine_.get(), &acg_);
  const std::vector<KeywordQuery> queries = {
      {{"gene", "JW0001"}, 0.3, "q1"},
      {{"gene", "JW0005"}, 0.2, "q2"},
  };
  const auto candidates = *identifier.Identify(queries, {Tid(0)});
  ASSERT_FALSE(candidates.empty());
  EXPECT_DOUBLE_EQ(candidates[0].confidence, 1.0);
  for (const auto& c : candidates) {
    EXPECT_GT(c.confidence, 0.0);
    EXPECT_LE(c.confidence, 1.0);
  }
}

}  // namespace
}  // namespace nebula
