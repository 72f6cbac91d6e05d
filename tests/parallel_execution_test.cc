#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/acg.h"
#include "core/engine.h"
#include "core/identify.h"
#include "core/query_generation.h"
#include "keyword/engine.h"
#include "keyword/query_types.h"
#include "keyword/shared_executor.h"
#include "meta/nebula_meta.h"
#include "storage/catalog.h"
#include "storage/query.h"
#include "storage/table.h"
#include "storage/value.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace nebula {
namespace {

// ===================================================================
// ExecuteGroup determinism: for every pool size the shared executor
// must produce byte-identical hits, scores, SharedExecutionStats, and
// engine ExecStats totals as the sequential (no-pool) path.
// ===================================================================

class ParallelSharedExecutionTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    gene_ = *catalog_.CreateTable(
        "gene", Schema({{"gid", DataType::kString, true},
                        {"name", DataType::kString, true}}));
    for (int i = 0; i < 26; ++i) {
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

  static std::vector<KeywordQuery> MakeGroup() {
    return {
        {{"gene", "JW0003"}, 1.0, "q0"},
        {{"gene", "JW0003"}, 0.8, "q1"},  // duplicate content, lower weight
        {{"gene", "abcX"}, 0.9, "q2"},
        {{"JW0007"}, 0.7, "q3"},
        {{"gene", "abdX"}, 0.6, "q4"},
        {{"JW0003"}, 0.5, "q5"},
    };
  }

  Catalog catalog_;
  NebulaMeta meta_;
  Table* gene_ = nullptr;
  std::unique_ptr<KeywordSearchEngine> engine_;
};

TEST_P(ParallelSharedExecutionTest, IdenticalToSequentialExecution) {
  const auto queries = MakeGroup();

  // Baseline: sequential shared execution.
  engine_->ResetStats();
  SharedKeywordExecutor sequential(engine_.get());
  std::vector<std::vector<SearchHit>> expected;
  ASSERT_TRUE(sequential.ExecuteGroup(queries, &expected).ok());
  const SharedExecutionStats expected_shared = sequential.stats();
  const ExecStats expected_exec = engine_->stats();

  // Parallel run on a pool of GetParam() workers.
  ThreadPool pool(GetParam());
  engine_->ResetStats();
  SharedKeywordExecutor parallel(engine_.get(), &pool);
  std::vector<std::vector<SearchHit>> actual;
  ASSERT_TRUE(parallel.ExecuteGroup(queries, &actual).ok());

  ASSERT_EQ(actual.size(), expected.size());
  for (size_t qi = 0; qi < expected.size(); ++qi) {
    ASSERT_EQ(actual[qi].size(), expected[qi].size()) << "query " << qi;
    for (size_t h = 0; h < expected[qi].size(); ++h) {
      EXPECT_EQ(actual[qi][h].tuple, expected[qi][h].tuple);
      // Bit-identical, not merely close: the parallel path runs the same
      // FP operations in the same order.
      EXPECT_EQ(actual[qi][h].confidence, expected[qi][h].confidence);
    }
  }
  EXPECT_EQ(parallel.stats().total_sql, expected_shared.total_sql);
  EXPECT_EQ(parallel.stats().distinct_sql, expected_shared.distinct_sql);
  EXPECT_DOUBLE_EQ(parallel.stats().sharing_ratio(),
                   expected_shared.sharing_ratio());
  EXPECT_EQ(engine_->stats().rows_examined, expected_exec.rows_examined);
  EXPECT_EQ(engine_->stats().index_lookups, expected_exec.index_lookups);
  EXPECT_EQ(engine_->stats().matches, expected_exec.matches);
}

TEST_P(ParallelSharedExecutionTest, StressRoundsStayDeterministic) {
  const auto queries = MakeGroup();
  SharedKeywordExecutor sequential(engine_.get());
  std::vector<std::vector<SearchHit>> expected;
  ASSERT_TRUE(sequential.ExecuteGroup(queries, &expected).ok());

  ThreadPool pool(GetParam());
  for (int round = 0; round < 25; ++round) {
    SharedKeywordExecutor parallel(engine_.get(), &pool);
    std::vector<std::vector<SearchHit>> actual;
    ASSERT_TRUE(parallel.ExecuteGroup(queries, &actual).ok());
    ASSERT_EQ(actual.size(), expected.size()) << "round " << round;
    for (size_t qi = 0; qi < expected.size(); ++qi) {
      ASSERT_EQ(actual[qi].size(), expected[qi].size());
      for (size_t h = 0; h < expected[qi].size(); ++h) {
        EXPECT_EQ(actual[qi][h].tuple, expected[qi][h].tuple);
        EXPECT_EQ(actual[qi][h].confidence, expected[qi][h].confidence);
      }
    }
  }
}

TEST_P(ParallelSharedExecutionTest, LazyIndexBuildRaceFree) {
  // First touch of the catalog happens *inside* the pool workers: the
  // concurrent statements race to lazily build the same hash indexes.
  // Under -DNEBULA_SANITIZE=thread this exercises the double-checked
  // locking in Table::GetOrBuildIndex.
  ThreadPool pool(GetParam());
  SharedKeywordExecutor parallel(engine_.get(), &pool);
  std::vector<std::vector<SearchHit>> hits;
  ASSERT_TRUE(parallel.ExecuteGroup(MakeGroup(), &hits).ok());

  SharedKeywordExecutor sequential(engine_.get());
  std::vector<std::vector<SearchHit>> expected;
  ASSERT_TRUE(sequential.ExecuteGroup(MakeGroup(), &expected).ok());
  ASSERT_EQ(hits.size(), expected.size());
  for (size_t qi = 0; qi < expected.size(); ++qi) {
    ASSERT_EQ(hits[qi].size(), expected[qi].size());
  }
}

TEST_P(ParallelSharedExecutionTest, IsolatedIdentifyMatchesSequential) {
  // The non-shared Stage-2 path parallelizes at whole-query granularity;
  // candidates must still match the sequential path exactly.
  const auto queries = MakeGroup();
  Acg acg;
  IdentifyParams params;
  params.shared_execution = false;

  TupleIdentifier sequential(engine_.get(), &acg, params);
  const auto expected = *sequential.Identify(queries, {});

  ThreadPool pool(GetParam());
  TupleIdentifier parallel(engine_.get(), &acg, params, &pool);
  const auto actual = *parallel.Identify(queries, {});

  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].tuple, expected[i].tuple);
    EXPECT_EQ(actual[i].confidence, expected[i].confidence);
    EXPECT_EQ(actual[i].evidence, expected[i].evidence);
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ParallelSharedExecutionTest,
                         ::testing::Values(1u, 2u, 8u));

// ===================================================================
// Batch ingest: InsertAnnotations must report the same per-annotation
// outcome as one-at-a-time InsertAnnotation, at every pool size.
// Each engine gets its own freshly generated (deterministic) dataset
// because ingestion mutates the store and the ACG.
// ===================================================================

class BatchIngestTest : public ::testing::TestWithParam<size_t> {};

std::vector<AnnotationRequest> MakeRequests(const BioDataset& ds,
                                            size_t count) {
  std::vector<AnnotationRequest> requests;
  for (size_t i = 0; i < ds.workload.annotations.size() && requests.size() < count;
       i += 5) {
    const WorkloadAnnotation& wa = ds.workload.annotations[i];
    if (wa.ideal_tuples.empty()) continue;
    requests.push_back({wa.text, {wa.ideal_tuples.front()}, "tester"});
  }
  return requests;
}

TEST_P(BatchIngestTest, BatchMatchesOneAtATime) {
  auto baseline_ds = GenerateBioDataset(DatasetSpec::Tiny());
  auto batch_ds = GenerateBioDataset(DatasetSpec::Tiny());
  ASSERT_TRUE(baseline_ds.ok());
  ASSERT_TRUE(batch_ds.ok());

  NebulaConfig config;
  NebulaEngine sequential(&(*baseline_ds)->catalog, &(*baseline_ds)->store,
                          &(*baseline_ds)->meta, config);
  sequential.RebuildAcg();

  config.num_threads = GetParam();
  NebulaEngine batch(&(*batch_ds)->catalog, &(*batch_ds)->store,
                     &(*batch_ds)->meta, config);
  batch.RebuildAcg();

  const auto requests = MakeRequests(**baseline_ds, 6);
  ASSERT_FALSE(requests.empty());

  std::vector<AnnotationReport> expected;
  for (const AnnotationRequest& r : requests) {
    auto report = sequential.InsertAnnotation(r.text, r.focal, r.author);
    ASSERT_TRUE(report.ok());
    expected.push_back(std::move(report).value());
  }

  auto reports = batch.InsertAnnotations(requests);
  ASSERT_TRUE(reports.ok());
  ASSERT_EQ(reports->size(), expected.size());

  for (size_t i = 0; i < expected.size(); ++i) {
    const AnnotationReport& e = expected[i];
    const AnnotationReport& a = (*reports)[i];
    EXPECT_EQ(a.annotation, e.annotation);
    EXPECT_EQ(a.mode, e.mode);
    ASSERT_EQ(a.queries.size(), e.queries.size()) << "request " << i;
    for (size_t q = 0; q < e.queries.size(); ++q) {
      EXPECT_EQ(a.queries[q].keywords, e.queries[q].keywords);
      EXPECT_EQ(a.queries[q].weight, e.queries[q].weight);
    }
    ASSERT_EQ(a.candidates.size(), e.candidates.size()) << "request " << i;
    for (size_t c = 0; c < e.candidates.size(); ++c) {
      EXPECT_EQ(a.candidates[c].tuple, e.candidates[c].tuple);
      EXPECT_EQ(a.candidates[c].confidence, e.candidates[c].confidence);
    }
    EXPECT_EQ(a.verification.auto_accepted, e.verification.auto_accepted);
    EXPECT_EQ(a.verification.auto_rejected, e.verification.auto_rejected);
    EXPECT_EQ(a.verification.pending, e.verification.pending);
    EXPECT_EQ(a.verification.already_attached,
              e.verification.already_attached);
    EXPECT_EQ(a.spam.spam_suspected, e.spam.spam_suspected);
  }

  // The side effects on the store must line up too.
  EXPECT_EQ((*batch_ds)->store.num_annotations(),
            (*baseline_ds)->store.num_annotations());
  EXPECT_EQ((*batch_ds)->store.num_attachments(),
            (*baseline_ds)->store.num_attachments());
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, BatchIngestTest,
                         ::testing::Values(0u, 1u, 2u, 8u));

// ===================================================================
// The word-score memo under concurrency: Stage-1 generation on pool
// workers and Stage-2 keyword mapping on the caller share one meta's
// memo. Four threads generate and map the same texts, each in its own
// order; every result must equal a sequential run on a fresh copy.
// ===================================================================

/// Queries of `text` and MapKeyword's output for each of their keywords,
/// weights and scores as exact hex floats.
std::string GenerateAndMap(const NebulaMeta* meta,
                           const KeywordSearchEngine& engine,
                           const std::string& text) {
  std::string out;
  char num[32];
  for (const KeywordQuery& q : QueryGenerator(meta).Generate(text).queries) {
    std::snprintf(num, sizeof(num), "%a", q.weight);
    out += q.label + " " + num + "\n";
    for (const std::string& kw : q.keywords) {
      for (const KeywordMapping& m : engine.MapKeyword(kw)) {
        std::snprintf(num, sizeof(num), "%a", m.score);
        out += "  " + kw + " " + m.table + "." + m.column + " " + num + "\n";
      }
    }
  }
  return out;
}

TEST(WordMemoConcurrencyTest, GenerateAndMapKeywordMatchSequential) {
  auto ds = GenerateBioDataset(DatasetSpec::Tiny());
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  std::vector<std::string> texts;
  for (const WorkloadAnnotation& wa : (*ds)->workload.annotations) {
    if (texts.size() == 24) break;
    texts.push_back(wa.text);
  }

  NebulaMeta fresh((*ds)->meta);
  const KeywordSearchEngine sequential_engine(&(*ds)->catalog, &fresh);
  std::vector<std::string> expected;
  for (const std::string& text : texts) {
    expected.push_back(GenerateAndMap(&fresh, sequential_engine, text));
  }

  const NebulaMeta* shared = &(*ds)->meta;
  const KeywordSearchEngine engine(&(*ds)->catalog, shared);
  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::string>> got(
      kThreads, std::vector<std::string>(texts.size()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < texts.size(); ++k) {
        const size_t i = (k + t * 7) % texts.size();
        got[t][i] = GenerateAndMap(shared, engine, texts[i]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < texts.size(); ++i) {
      EXPECT_EQ(got[t][i], expected[i]) << "thread " << t << " text " << i;
    }
  }
  EXPECT_GT(shared->word_memo_size(), 0u);
}

}  // namespace
}  // namespace nebula
