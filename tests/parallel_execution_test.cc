#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "annotation/annotation_store.h"
#include "common/fault.h"
#include "common/fault_points.h"
#include "common/random.h"
#include "core/acg.h"
#include "core/engine.h"
#include "core/query_generation.h"
#include "keyword/engine.h"
#include "keyword/query_types.h"
#include "meta/nebula_meta.h"
#include "storage/schema.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace nebula {
namespace {

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
// The pool's one job: batch Stage 1. Single inserts and discoveries run
// all of Stage 2 on the caller and submit nothing; a batch submits one
// Stage-1 task per request. A "threadpool.submit" fault armed never to
// fire still counts every submission, with or without observability
// compiled in.
// ===================================================================

TEST(PoolContractTest, OnlyBatchStageOneRunsOnThePool) {
  auto ds = GenerateBioDataset(DatasetSpec::Tiny());
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  NebulaConfig config;
  config.num_threads = 2;
  NebulaEngine engine(&(*ds)->catalog, &(*ds)->store, &(*ds)->meta, config);
  engine.RebuildAcg();
  const auto requests = MakeRequests(**ds, 6);
  ASSERT_GE(requests.size(), 2u);

  FaultSpec never;
  never.skip_calls = std::numeric_limits<uint64_t>::max();
  ScopedFault count(kFaultThreadPoolSubmit, never);
  const auto submissions = [] {
    return FaultRegistry::Global().CallCount(kFaultThreadPoolSubmit);
  };
  for (const AnnotationRequest& r : requests) {
    auto report = engine.InsertAnnotation(r.text, r.focal, r.author);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(engine.Discover(report->annotation, r.focal).ok());
  }
  EXPECT_EQ(submissions(), 0u);

  auto batch = engine.InsertAnnotations(requests);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(submissions(), requests.size());
}

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

// ===================================================================
// The ACG's const queries keep their visited sets in locals: readers sharing
// one graph get the sequential answers, and TSan sees no shared write.
// ===================================================================

struct AcgQuery {
  std::vector<TupleId> focal;
  TupleId target;
  size_t k = 0;
};

struct AcgAnswer {
  std::vector<TupleId> hood;
  int hops = 0;
  double edge = 0.0;
  double path = 0.0;
  std::vector<std::pair<TupleId, double>> neighbors;
  bool operator==(const AcgAnswer&) const = default;
};

AcgAnswer Ask(const Acg& acg, const AcgQuery& q) {
  return {acg.KHopNeighborhood(q.focal, q.k), acg.HopDistance(q.focal, q.target),
          acg.EdgeWeight(q.focal.front(), q.target),
          acg.PathWeight(q.focal, q.target, 3), acg.Neighbors(q.target)};
}

TEST(AcgConcurrencyTest, ConstQueriesMatchSequential) {
  Rng rng(11);
  auto tuple = [&] {
    const uint64_t i = rng.Uniform(150);
    return TupleId{static_cast<uint32_t>(i % 2), i};
  };
  AnnotationStore store;
  for (size_t a = 0; a < 120; ++a) {
    const AnnotationId id = store.AddAnnotation("x");
    for (size_t n = 1 + rng.Uniform(3); n > 0; --n) {
      const TupleId t = tuple();
      if (store.HasAttachment(id, t)) continue;
      ASSERT_TRUE(store.Attach(id, t).ok());
    }
  }
  Acg acg;
  acg.BuildFromStore(store);

  std::vector<AcgQuery> queries;
  for (size_t i = 0; i < 64; ++i) {
    AcgQuery q;
    for (size_t n = 1 + rng.Uniform(3); n > 0; --n) q.focal.push_back(tuple());
    q.target = tuple();
    q.k = i % 5;
    queries.push_back(std::move(q));
  }
  std::vector<AcgAnswer> expected;
  int farthest = -1;
  for (const AcgQuery& q : queries) {
    expected.push_back(Ask(acg, q));
    farthest = std::max(farthest, expected.back().hops);
  }
  ASSERT_GE(farthest, 2);  // the BFS walks more than one layer

  constexpr size_t kThreads = 4;
  std::vector<std::vector<AcgAnswer>> got(
      kThreads, std::vector<AcgAnswer>(queries.size()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < queries.size(); ++k) {
        const size_t i = (k + t * 7) % queries.size();
        got[t][i] = Ask(acg, queries[i]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(got[t][i] == expected[i]) << "thread " << t << " query " << i;
    }
  }
}

}  // namespace
}  // namespace nebula
