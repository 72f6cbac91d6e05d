#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "annotation/annotation_store.h"
#include "annotation/quality.h"
#include "annotation/serialize.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/acg.h"
#include "core/assessment.h"
#include "core/context_adjust.h"
#include "core/engine.h"
#include "core/focal_spreading.h"
#include "core/identify.h"
#include "core/query_generation.h"
#include "core/signature_maps.h"
#include "keyword/engine.h"
#include "keyword/mini_db.h"
#include "keyword/query_types.h"
#include "meta/nebula_meta.h"
#include "sql/parser.h"
#include "storage/catalog.h"
#include "storage/query.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"
#include "testing/check_workload.h"
#include "text/tokenizer.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace nebula {
namespace {

/// Shared Tiny dataset for all property suites (generated once).
BioDataset* SharedDataset() {
  static BioDataset* dataset = [] {
    auto result = GenerateBioDataset(DatasetSpec::Tiny());
    if (!result.ok()) return static_cast<BioDataset*>(nullptr);
    return result->release();
  }();
  return dataset;
}

// ---------------- Property: epsilon monotonicity --------------------
// Raising the cutoff can only remove emphasized words, so the number of
// generated queries is non-increasing in epsilon, and every true
// reference survives epsilon = 0.4 (which accepts everything 0.6 does).

class EpsilonMonotonicity : public ::testing::TestWithParam<size_t> {};

TEST_P(EpsilonMonotonicity, QueryCountNonIncreasingInEpsilon) {
  BioDataset* ds = SharedDataset();
  ASSERT_NE(ds, nullptr);
  const WorkloadAnnotation& wa = ds->workload.annotations[GetParam()];
  size_t prev = SIZE_MAX;
  for (double eps : {0.4, 0.6, 0.8}) {
    QueryGenerationParams params;
    params.epsilon = eps;
    QueryGenerator gen(&ds->meta, params);
    const size_t n = gen.Generate(wa.text).queries.size();
    EXPECT_LE(n, prev) << "eps=" << eps;
    prev = n;
  }
}

TEST_P(EpsilonMonotonicity, NoFalseNegativesAtPointSix) {
  BioDataset* ds = SharedDataset();
  ASSERT_NE(ds, nullptr);
  const WorkloadAnnotation& wa = ds->workload.annotations[GetParam()];
  QueryGenerationParams params;
  params.epsilon = 0.6;
  QueryGenerator gen(&ds->meta, params);
  const auto queries = gen.Generate(wa.text).queries;
  for (const auto& ref : wa.refs) {
    bool covered = false;
    for (const auto& q : queries) {
      for (const auto& k : q.keywords) {
        if (k == ref.surface[0]) covered = true;
      }
    }
    EXPECT_TRUE(covered) << "missed reference " << ref.surface[0] << " in: "
                         << wa.text;
  }
}

INSTANTIATE_TEST_SUITE_P(WorkloadAnnotations, EpsilonMonotonicity,
                         ::testing::Range<size_t>(0, 60, 7));

// ------------- Property: batch ingest == one-at-a-time ingest ----------
// InsertAnnotations pipelines Stage-1 generation on the worker pool, but
// per-annotation candidates must stay identical to inserting the same
// requests one at a time.

class BatchIngestEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchIngestEquivalence, SameCandidatesPerAnnotation) {
  // Ingestion mutates the store and the ACG, so each engine gets its own
  // freshly generated (deterministic) dataset — never the shared one.
  auto seq_ds = GenerateBioDataset(DatasetSpec::Tiny());
  auto batch_ds = GenerateBioDataset(DatasetSpec::Tiny());
  ASSERT_TRUE(seq_ds.ok());
  ASSERT_TRUE(batch_ds.ok());

  Rng rng(GetParam());
  const auto& annotations = (*seq_ds)->workload.annotations;
  std::vector<AnnotationRequest> requests;
  for (uint64_t idx : rng.SampleWithoutReplacement(annotations.size(), 5)) {
    const WorkloadAnnotation& wa = annotations[idx];
    if (wa.ideal_tuples.empty()) continue;
    requests.push_back({wa.text, {wa.ideal_tuples.front()}, "prop"});
  }
  ASSERT_FALSE(requests.empty());

  NebulaConfig config;
  NebulaEngine sequential(&(*seq_ds)->catalog, &(*seq_ds)->store,
                          &(*seq_ds)->meta, config);
  sequential.RebuildAcg();
  config.num_threads = 2;
  NebulaEngine batch(&(*batch_ds)->catalog, &(*batch_ds)->store,
                     &(*batch_ds)->meta, config);
  batch.RebuildAcg();

  std::vector<AnnotationReport> expected;
  for (const AnnotationRequest& r : requests) {
    auto report = sequential.InsertAnnotation(r.text, r.focal, r.author);
    ASSERT_TRUE(report.ok());
    expected.push_back(std::move(report).value());
  }
  auto reports = batch.InsertAnnotations(requests);
  ASSERT_TRUE(reports.ok());
  ASSERT_EQ(reports->size(), expected.size());

  // Order-normalized comparison of the candidate sets.
  const auto normalized = [](std::vector<CandidateTuple> c) {
    std::sort(c.begin(), c.end(),
              [](const CandidateTuple& a, const CandidateTuple& b) {
                return a.tuple < b.tuple;
              });
    return c;
  };
  for (size_t i = 0; i < expected.size(); ++i) {
    const auto e = normalized(expected[i].candidates);
    const auto a = normalized((*reports)[i].candidates);
    ASSERT_EQ(a.size(), e.size()) << "request " << i;
    for (size_t c = 0; c < e.size(); ++c) {
      EXPECT_EQ(a[c].tuple, e[c].tuple);
      EXPECT_NEAR(a[c].confidence, e[c].confidence, 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchIngestEquivalence,
                         ::testing::Values(3u, 17u, 2026u));

// -------- Property: focal-spreading results nest in full results -------

class MiniDbSubset : public ::testing::TestWithParam<size_t> {};

TEST_P(MiniDbSubset, ApproximateCandidatesAreSubsetOfFull) {
  BioDataset* ds = SharedDataset();
  ASSERT_NE(ds, nullptr);
  const size_t k = GetParam();
  const WorkloadAnnotation& wa = ds->workload.annotations[10];

  QueryGenerator gen(&ds->meta);
  const auto queries = gen.Generate(wa.text).queries;
  KeywordSearchEngine engine(&ds->catalog, &ds->meta);
  Acg acg;
  acg.BuildFromStore(ds->store);
  TupleIdentifier identifier(&engine, &acg);

  // Use a corpus-annotated tuple as focal so the ACG has the node.
  const std::vector<TupleId> focal{wa.ideal_tuples.front()};
  FocalSpreadingParams sp;
  sp.require_stable_acg = false;
  FocalSpreading spreading(&acg, sp);
  const MiniDb mini = spreading.BuildMiniDb(focal, k);

  const auto approx = *identifier.Identify(queries, focal, &mini);
  const auto full = *identifier.Identify(queries, focal);
  EXPECT_LE(approx.size(), full.size());
  for (const auto& c : approx) {
    EXPECT_TRUE(mini.Contains(c.tuple));
    bool in_full = false;
    for (const auto& f : full) {
      if (f.tuple == c.tuple) in_full = true;
    }
    EXPECT_TRUE(in_full);
  }
}

TEST_P(MiniDbSubset, MiniDbGrowsMonotonicallyWithK) {
  BioDataset* ds = SharedDataset();
  ASSERT_NE(ds, nullptr);
  const size_t k = GetParam();
  Acg acg;
  acg.BuildFromStore(ds->store);
  FocalSpreading spreading(&acg);
  const std::vector<TupleId> focal{
      ds->workload.annotations[10].ideal_tuples.front()};
  EXPECT_LE(spreading.BuildMiniDb(focal, k).size(),
            spreading.BuildMiniDb(focal, k + 1).size());
}

INSTANTIATE_TEST_SUITE_P(Radii, MiniDbSubset,
                         ::testing::Values(1u, 2u, 3u, 4u));

// ------------- Property: candidate confidence normalization ------------

class ConfidenceNormalization : public ::testing::TestWithParam<size_t> {};

TEST_P(ConfidenceNormalization, InUnitIntervalWithMaxOne) {
  BioDataset* ds = SharedDataset();
  ASSERT_NE(ds, nullptr);
  const WorkloadAnnotation& wa = ds->workload.annotations[GetParam()];
  QueryGenerator gen(&ds->meta);
  const auto queries = gen.Generate(wa.text).queries;
  if (queries.empty()) GTEST_SKIP();
  KeywordSearchEngine engine(&ds->catalog, &ds->meta);
  Acg acg;
  acg.BuildFromStore(ds->store);
  TupleIdentifier identifier(&engine, &acg);
  const auto candidates =
      *identifier.Identify(queries, {wa.ideal_tuples.front()});
  if (candidates.empty()) GTEST_SKIP();
  EXPECT_DOUBLE_EQ(candidates[0].confidence, 1.0);
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_GT(candidates[i].confidence, 0.0);
    EXPECT_LE(candidates[i].confidence, candidates[i - 1].confidence);
  }
}

INSTANTIATE_TEST_SUITE_P(WorkloadAnnotations, ConfidenceNormalization,
                         ::testing::Range<size_t>(0, 60, 11));

// ------------- Property: ACG weights are a valid similarity ------------

class AcgWeightProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AcgWeightProperty, WeightsSymmetricAndBounded) {
  // Random bipartite attachment graphs driven by the seed.
  Rng rng(GetParam());
  AnnotationStore store;
  const size_t annotations = 30;
  const size_t tuples = 15;
  for (size_t a = 0; a < annotations; ++a) {
    const AnnotationId id = store.AddAnnotation("x");
    const size_t fanout = 1 + rng.Uniform(4);
    for (uint64_t t : rng.SampleWithoutReplacement(tuples, fanout)) {
      ASSERT_TRUE(store.Attach(id, {0, t}).ok());
    }
  }
  Acg acg;
  acg.BuildFromStore(store);
  for (uint64_t i = 0; i < tuples; ++i) {
    for (uint64_t j = 0; j < tuples; ++j) {
      const double w = acg.EdgeWeight({0, i}, {0, j});
      EXPECT_GE(w, 0.0);
      EXPECT_LE(w, 1.0);
      EXPECT_NEAR(w, acg.EdgeWeight({0, j}, {0, i}), 1e-12);
    }
  }
  // Neighbors(f) lists exactly the tuples with a non-zero EdgeWeight to f,
  // in TupleId order, each weight equal to EdgeWeight in both argument
  // orders bit for bit: Identify's focal merge-join relies on all three.
  for (uint64_t i = 0; i <= tuples; ++i) {  // row `tuples` is absent
    const TupleId f{0, i};
    const auto neighbors = acg.Neighbors(f);
    EXPECT_TRUE(std::is_sorted(
        neighbors.begin(), neighbors.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; }));
    size_t listed = 0;
    for (uint64_t j = 0; j <= tuples; ++j) {
      const TupleId t{0, j};
      auto it = std::find_if(neighbors.begin(), neighbors.end(),
                             [&t](const auto& n) { return n.first == t; });
      const double w = it == neighbors.end() ? 0.0 : it->second;
      EXPECT_EQ(std::bit_cast<uint64_t>(w),
                std::bit_cast<uint64_t>(acg.EdgeWeight(t, f)))
          << i << "-" << j;
      EXPECT_EQ(std::bit_cast<uint64_t>(w),
                std::bit_cast<uint64_t>(acg.EdgeWeight(f, t)))
          << i << "-" << j;
      if (it != neighbors.end()) ++listed;
    }
    EXPECT_EQ(listed, neighbors.size());
  }
}

TEST_P(AcgWeightProperty, HopDistanceConsistentWithNeighborhood) {
  Rng rng(GetParam());
  AnnotationStore store;
  for (size_t a = 0; a < 25; ++a) {
    const AnnotationId id = store.AddAnnotation("x");
    for (uint64_t t : rng.SampleWithoutReplacement(12, 2)) {
      ASSERT_TRUE(store.Attach(id, {0, t}).ok());
    }
  }
  Acg acg;
  acg.BuildFromStore(store);
  const std::vector<TupleId> focal{{0, 0}};
  if (!acg.HasNode(focal[0])) GTEST_SKIP();
  for (size_t k = 0; k <= 3; ++k) {
    const auto hood = acg.KHopNeighborhood(focal, k);
    for (const TupleId& t : hood) {
      const int d = acg.HopDistance(focal, t);
      EXPECT_GE(d, 0);
      EXPECT_LE(static_cast<size_t>(d), k);
    }
  }
}

/// Hop distance from `focal` to every reachable node, by a plain
/// one-directional BFS over Neighbors(): the oracle for the ACG's own
/// searches.
std::map<TupleId, int> ReferenceDistances(const Acg& acg,
                                          const std::vector<TupleId>& focal) {
  std::map<TupleId, int> dist;
  std::deque<TupleId> queue;
  for (const TupleId& f : focal) {
    if (acg.HasNode(f) && dist.emplace(f, 0).second) queue.push_back(f);
  }
  while (!queue.empty()) {
    const TupleId cur = queue.front();
    queue.pop_front();
    const int d = dist.at(cur);
    for (const auto& [nb, _] : acg.Neighbors(cur)) {
      if (dist.emplace(nb, d + 1).second) queue.push_back(nb);
    }
  }
  return dist;
}

TEST_P(AcgWeightProperty, HopSearchesMatchReferenceBfs) {
  // Three disjoint tuple groups over two tables, so the graph has several
  // components; tuples no annotation touches stay out of the graph.
  Rng rng(GetParam());
  constexpr uint64_t kGroups = 3, kGroupSize = 12;
  auto tuple = [](uint64_t i) {
    return TupleId{static_cast<uint32_t>(i % 2), i};
  };
  AnnotationStore store;
  for (size_t a = 0; a < 30; ++a) {
    const AnnotationId id = store.AddAnnotation("x");
    const uint64_t group = rng.Uniform(kGroups);
    for (uint64_t t : rng.SampleWithoutReplacement(kGroupSize,
                                                   1 + rng.Uniform(3))) {
      ASSERT_TRUE(store.Attach(id, tuple(group * kGroupSize + t)).ok());
    }
  }
  Acg acg;
  acg.BuildFromStore(store);

  std::vector<TupleId> universe, in_graph, absent;
  for (uint64_t i = 0; i < kGroups * kGroupSize; ++i) {
    universe.push_back(tuple(i));
    (acg.HasNode(tuple(i)) ? in_graph : absent).push_back(tuple(i));
  }
  universe.push_back({7, 1000});  // a table the graph never saw
  absent.push_back({7, 1000});
  ASSERT_GE(in_graph.size(), 3u);

  auto pick = [&](const std::vector<TupleId>& from) {
    return from[rng.Uniform(from.size())];
  };
  const TupleId a = pick(in_graph), b = pick(in_graph);
  const std::vector<std::vector<TupleId>> focals = {
      {a},
      {a, a, b, a},                                       // duplicates
      {pick(absent), b, pick(absent), pick(in_graph)},    // mixed
      {pick(absent)},                                     // none in graph
      {},                                                 // empty
      {pick(in_graph), pick(in_graph), pick(in_graph)},
  };
  for (const std::vector<TupleId>& focal : focals) {
    const std::map<TupleId, int> dist = ReferenceDistances(acg, focal);
    // Every tuple as target: focal members, reachable, unreachable and
    // absent ones.
    for (const TupleId& t : universe) {
      auto it = dist.find(t);
      EXPECT_EQ(acg.HopDistance(focal, t), it == dist.end() ? -1 : it->second)
          << "target " << t.ToString() << " focal size " << focal.size();
    }
    for (size_t k = 0; k <= 5; ++k) {
      std::vector<TupleId> expected;
      for (const auto& [t, d] : dist) {
        if (static_cast<size_t>(d) <= k) expected.push_back(t);
      }
      EXPECT_EQ(acg.KHopNeighborhood(focal, k), expected)
          << "k " << k << " focal size " << focal.size();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcgWeightProperty,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

// ------ Property: F_P is zero whenever nothing is auto-accepted --------

class NoAutoAcceptNoFalsePositive
    : public ::testing::TestWithParam<size_t> {};

TEST_P(NoAutoAcceptNoFalsePositive, UpperBoundOneImpliesZeroFp) {
  BioDataset* ds = SharedDataset();
  ASSERT_NE(ds, nullptr);
  const WorkloadAnnotation& wa = ds->workload.annotations[GetParam()];
  QueryGenerator gen(&ds->meta);
  const auto queries = gen.Generate(wa.text).queries;
  KeywordSearchEngine engine(&ds->catalog, &ds->meta);
  Acg acg;
  acg.BuildFromStore(ds->store);
  TupleIdentifier identifier(&engine, &acg);
  const std::vector<TupleId> focal{wa.ideal_tuples.front()};
  const auto candidates = *identifier.Identify(queries, focal);

  EdgeSet ideal;
  for (const TupleId& t : wa.ideal_tuples) ideal.Add(1000, t);
  // beta_upper = 1.0: nothing can be auto-accepted (Fig. 8), so F_P = 0.
  const AssessmentCounts counts =
      AssessPrediction(1000, candidates, focal, ideal, {0.3, 1.0});
  EXPECT_EQ(counts.n_accept(), 0u);
  EXPECT_DOUBLE_EQ(ComputeAssessment(counts).fp, 0.0);
}

INSTANTIATE_TEST_SUITE_P(WorkloadAnnotations, NoAutoAcceptNoFalsePositive,
                         ::testing::Values(2u, 17u, 31u, 44u, 59u));

// ------------- Property: SQL parser is total (no crashes) --------------
// Mutated valid statements and random printable garbage must always give
// either a parsed statement or a clean error status.

class SqlParserFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlParserFuzz, NeverCrashesOnMutatedInput) {
  Rng rng(GetParam());
  const std::string seeds[] = {
      "SELECT gid, name FROM gene WHERE length > 1000 AND family = 'F1'",
      "ANNOTATE 'related to gene JW0014' ON gene WHERE gid = 'x' BY 'a'",
      "INSERT INTO gene VALUES ('JW0001', 'abcD', 42)",
      "SELECT * FROM gene JOIN protein WHERE protein.ptype = 'kinase'",
      "VERIFY ATTACHMENT 17;",
      "SHOW PENDING",
  };
  for (int round = 0; round < 300; ++round) {
    std::string input = seeds[rng.Uniform(std::size(seeds))];
    // Apply 1-5 random mutations: delete, duplicate, or randomize a char.
    const size_t mutations = 1 + rng.Uniform(5);
    for (size_t m = 0; m < mutations && !input.empty(); ++m) {
      const size_t pos = rng.Uniform(input.size());
      switch (rng.Uniform(3)) {
        case 0:
          input.erase(pos, 1);
          break;
        case 1:
          input.insert(input.begin() + static_cast<ptrdiff_t>(pos),
                       input[pos]);
          break;
        default:
          input[pos] = static_cast<char>(' ' + rng.Uniform(95));
      }
    }
    // The only requirement: a clean Result, never a crash/UB.
    const auto result = sql::ParseStatement(input);
    (void)result;
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlParserFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------- Property: serializer round-trips random databases ----------

class SerializeRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializeRoundTrip, RandomDatabaseSurvives) {
  Rng rng(GetParam());
  Catalog catalog;
  AnnotationStore store;
  const size_t num_tables = 1 + rng.Uniform(3);
  for (size_t t = 0; t < num_tables; ++t) {
    std::vector<ColumnDef> columns;
    const size_t num_columns = 1 + rng.Uniform(4);
    for (size_t c = 0; c < num_columns; ++c) {
      const DataType type = static_cast<DataType>(rng.Uniform(3));
      columns.push_back({"c" + std::to_string(c), type, false});
    }
    Table* table =
        *catalog.CreateTable("t" + std::to_string(t), Schema(columns));
    const size_t rows = rng.Uniform(20);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<Value> row;
      for (const auto& col : columns) {
        switch (col.type) {
          case DataType::kInt64:
            row.push_back(Value(static_cast<int64_t>(rng.Next())));
            break;
          case DataType::kDouble:
            row.push_back(Value(rng.NextDouble() * 1e6 - 5e5));
            break;
          case DataType::kString: {
            std::string text;
            const size_t len = rng.Uniform(24);
            for (size_t i = 0; i < len; ++i) {
              text += static_cast<char>(' ' + rng.Uniform(95));
            }
            if (rng.Bernoulli(0.3)) text += "\ttab\nnewline\\slash";
            row.push_back(Value(text));
            break;
          }
        }
      }
      ASSERT_TRUE(table->Insert(std::move(row)).ok());
    }
    // A few annotations on random rows.
    for (size_t a = 0; a < 3 && table->num_rows() > 0; ++a) {
      const AnnotationId id = store.AddAnnotation(
          "note " + std::to_string(rng.Next() % 1000), "fuzzer");
      (void)store.Attach(id, {table->id(), rng.Uniform(table->num_rows())});
    }
  }

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("nebula_rt_" + std::to_string(GetParam())))
          .string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(DatabaseSerializer::Save(dir, catalog, &store).ok());

  Catalog loaded;
  AnnotationStore loaded_store;
  ASSERT_TRUE(DatabaseSerializer::Load(dir, &loaded, &loaded_store).ok());
  std::filesystem::remove_all(dir);

  ASSERT_EQ(loaded.num_tables(), catalog.num_tables());
  for (const auto& table : catalog.tables()) {
    const Table* other = *loaded.GetTable(table->name());
    ASSERT_EQ(other->num_rows(), table->num_rows());
    for (Table::RowId r = 0; r < table->num_rows(); ++r) {
      for (size_t c = 0; c < table->schema().num_columns(); ++c) {
        EXPECT_EQ(other->GetCell(r, c), table->GetCell(r, c))
            << table->name() << " row " << r << " col " << c;
      }
    }
  }
  EXPECT_EQ(loaded_store.num_annotations(), store.num_annotations());
  EXPECT_EQ(loaded_store.num_attachments(), store.num_attachments());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeRoundTrip,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// ------------------ Property: Stage-1 invariants -----------------------
// Query generation is a pure function of (text, meta): weights stay in
// [0,1], repeated generation is bit-identical, and no two emitted queries
// carry the same keyword multiset (deduplication is idempotent).

class StageOneInvariants : public ::testing::TestWithParam<size_t> {};

TEST_P(StageOneInvariants, QueryWeightsInUnitInterval) {
  BioDataset* ds = SharedDataset();
  ASSERT_NE(ds, nullptr);
  const WorkloadAnnotation& wa = ds->workload.annotations[GetParam()];
  QueryGenerator gen(&ds->meta);
  for (const KeywordQuery& q : gen.Generate(wa.text).queries) {
    EXPECT_GT(q.weight, 0.0) << q.ToString();
    EXPECT_LE(q.weight, 1.0) << q.ToString();
  }
}

TEST_P(StageOneInvariants, GenerationDeterministicAndDeduplicated) {
  BioDataset* ds = SharedDataset();
  ASSERT_NE(ds, nullptr);
  const WorkloadAnnotation& wa = ds->workload.annotations[GetParam()];
  QueryGenerator first(&ds->meta);
  QueryGenerator second(&ds->meta);
  const auto a = first.Generate(wa.text).queries;
  const auto b = second.Generate(wa.text).queries;
  ASSERT_EQ(a.size(), b.size());
  std::vector<std::vector<std::string>> keyword_sets;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].keywords, b[i].keywords);
    EXPECT_DOUBLE_EQ(a[i].weight, b[i].weight);
    EXPECT_EQ(a[i].label, b[i].label);
    std::vector<std::string> sorted = a[i].keywords;
    std::sort(sorted.begin(), sorted.end());
    keyword_sets.push_back(std::move(sorted));
  }
  // Dedup idempotence: generating again must not re-introduce a keyword
  // multiset that deduplication already folded.
  std::sort(keyword_sets.begin(), keyword_sets.end());
  EXPECT_EQ(std::adjacent_find(keyword_sets.begin(), keyword_sets.end()),
            keyword_sets.end())
      << "duplicate keyword multiset in: " << wa.text;
}

INSTANTIATE_TEST_SUITE_P(WorkloadAnnotations, StageOneInvariants,
                         ::testing::Range<size_t>(0, 60, 6));

// ---------- Property: plan-cache hits are byte-identical to cold --------
// The keyword->configuration plan cache may only ever change wall time:
// candidates served through a cache hit must equal both a cold run and a
// cache-disabled run bit for bit (tuples, confidences, evidence).

class PlanCacheEquivalence : public ::testing::TestWithParam<size_t> {};

TEST_P(PlanCacheEquivalence, HitResultsBitIdenticalToCold) {
  BioDataset* ds = SharedDataset();
  ASSERT_NE(ds, nullptr);
  const WorkloadAnnotation& wa = ds->workload.annotations[GetParam()];
  QueryGenerator gen(&ds->meta);
  const auto queries = gen.Generate(wa.text).queries;
  if (queries.empty()) GTEST_SKIP();
  KeywordSearchEngine engine(&ds->catalog, &ds->meta);
  Acg acg;
  acg.BuildFromStore(ds->store);
  PlanCache cache(&ds->meta);

  TupleIdentifier cached(&engine, &acg, {}, &cache);
  TupleIdentifier uncached(&engine, &acg, {}, /*plan_cache=*/nullptr);

  const std::vector<TupleId> focal{wa.ideal_tuples.front()};
  const auto cold = *cached.Identify(queries, focal);    // fills the cache
  EXPECT_GT(cache.size(), 0u);
  const auto hit = *cached.Identify(queries, focal);     // served from it
  const auto bypass = *uncached.Identify(queries, focal);

  ASSERT_EQ(hit.size(), cold.size());
  ASSERT_EQ(bypass.size(), cold.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(hit[i].tuple, cold[i].tuple);
    EXPECT_EQ(hit[i].confidence, cold[i].confidence);  // exact, not NEAR
    EXPECT_EQ(hit[i].evidence, cold[i].evidence);
    EXPECT_EQ(bypass[i].tuple, cold[i].tuple);
    EXPECT_EQ(bypass[i].confidence, cold[i].confidence);
    EXPECT_EQ(bypass[i].evidence, cold[i].evidence);
  }
}

INSTANTIATE_TEST_SUITE_P(WorkloadAnnotations, PlanCacheEquivalence,
                         ::testing::Values(0u, 9u, 21u, 33u, 45u, 57u));

// ------ Property: a plan cache over budget still serves exact plans -----
// A budget of a few plans forces wholesale drops group after group; every
// plan it returns must still equal a fresh CompileToSql, and it must never
// hold more than its budget.

TEST(PlanCacheEviction, TinyBudgetPlansEqualCompileToSql) {
  BioDataset* ds = SharedDataset();
  ASSERT_NE(ds, nullptr);
  KeywordSearchEngine engine(&ds->catalog, &ds->meta);
  const size_t budget = 2048;
  PlanCache cache(&ds->meta, budget);
  QueryGenerator gen(&ds->meta);
  std::set<std::vector<std::string>> distinct;
  size_t peak = 0;
  for (size_t a = 0; a < 40 && a < ds->workload.annotations.size(); ++a) {
    const auto queries = gen.Generate(ds->workload.annotations[a].text).queries;
    for (const KeywordQuery& q : queries) distinct.insert(q.keywords);
    const auto plans = cache.GetOrCompileGroup(engine, queries);
    peak = std::max(peak, cache.size());
    ASSERT_LE(cache.bytes(), budget);
    ASSERT_EQ(plans.size(), queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      const auto fresh = engine.CompileToSql(queries[q]);
      ASSERT_EQ(plans[q].size(), fresh.size()) << queries[q].label;
      for (size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(plans[q][i].CanonicalKey(), fresh[i].CanonicalKey());
        EXPECT_EQ(plans[q][i].confidence, fresh[i].confidence);
      }
    }
  }
  EXPECT_GT(peak, 1u);
  EXPECT_LT(peak, distinct.size());  // evicted along the way
}

// ------ Property: every NebulaMeta mutation invalidates the cache -------
// Each successful mutator must bump version(), and a bumped version must
// flush the plan cache on its next group lookup.

TEST(PlanCacheInvalidation, EveryMetaMutationBumpsVersionAndFlushes) {
  auto ds = GenerateBioDataset(DatasetSpec::Tiny());
  ASSERT_TRUE(ds.ok());
  NebulaMeta& meta = (*ds)->meta;
  KeywordSearchEngine engine(&(*ds)->catalog, &meta);
  PlanCache cache(&meta);

  QueryGenerator gen(&meta);
  const auto queries =
      gen.Generate((*ds)->workload.annotations[0].text).queries;
  ASSERT_FALSE(queries.empty());

  // Exercise every mutator; after each one the cache must flush on the
  // next lookup (size drops back to the one freshly compiled group).
  Rng rng(7);
  const std::vector<std::function<void()>> mutations = {
      [&] {
        ASSERT_TRUE(
            meta.AddConcept("NewConcept", "gene", {{"gid"}}).ok());
      },
      [&] { meta.AddTableAlias("gene", "locus"); },
      [&] { meta.AddColumnAlias("gene", "gid", "gene identifier"); },
      [&] {
        ASSERT_TRUE(
            meta.SetColumnPattern("gene", "gid", "[A-Z]+[0-9]+").ok());
      },
      [&] {
        ASSERT_TRUE(
            meta.SetColumnOntology("gene", "gid", {"jw0001", "jw0002"}).ok());
      },
      [&] {
        ASSERT_TRUE(meta.DrawColumnSamples((*ds)->catalog, 5, &rng).ok());
      },
  };
  for (size_t m = 0; m < mutations.size(); ++m) {
    (void)cache.GetOrCompileGroup(engine, queries);
    const size_t warm = cache.size();
    EXPECT_GT(warm, 0u) << "mutation " << m;
    // A second warm lookup keeps the entries (no spurious invalidation).
    (void)cache.GetOrCompileGroup(engine, queries);
    EXPECT_EQ(cache.size(), warm) << "mutation " << m;

    const uint64_t before = meta.version();
    mutations[m]();
    EXPECT_EQ(meta.version(), before + 1) << "mutation " << m;

    // The flush happens on the next lookup: stale entries are dropped and
    // exactly this group's fresh plans remain.
    const auto plans = cache.GetOrCompileGroup(engine, queries);
    EXPECT_EQ(plans.size(), queries.size());
    EXPECT_LE(cache.size(), warm) << "mutation " << m;
  }

  // Changing the engine's search knobs invalidates too.
  (void)cache.GetOrCompileGroup(engine, queries);
  engine.params().min_mapping_score = 0.55;
  const size_t before_entries = cache.size();
  (void)cache.GetOrCompileGroup(engine, queries);
  EXPECT_LE(cache.size(), before_entries);
}

// ------- Property: the Stage-2 fold equals the hash-map merge ---------
// TupleIdentifier::Identify and KeywordSearchEngine::MergeHits sort and
// fold flat arrays. Their references are the hash-map merges they
// replaced, kept here; results must match bit for bit.

/// MergeHits as a hash map: the first statement's confidence per tuple,
/// replaced only by a strictly larger one; then the (confidence desc,
/// tuple asc) sort.
std::vector<SearchHit> ReferenceMergeHits(
    const std::vector<std::vector<SearchHit>>& per_sql_hits) {
  std::unordered_map<TupleId, double, TupleIdHash> best;
  for (const auto& hits : per_sql_hits) {
    for (const auto& h : hits) {
      auto [it, inserted] = best.emplace(h.tuple, h.confidence);
      if (!inserted && h.confidence > it->second) it->second = h.confidence;
    }
  }
  std::vector<SearchHit> merged;
  for (const auto& [tuple, conf] : best) merged.push_back({tuple, conf});
  std::sort(merged.begin(), merged.end(),
            [](const SearchHit& a, const SearchHit& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              return a.tuple < b.tuple;
            });
  return merged;
}

/// Identify as a hash-map merge: Search per query, a hash-map grouping
/// with one label per hit, a linear evidence dedup, EdgeWeight per
/// (candidate, focal tuple) or PathWeight per candidate, normalization
/// and a stable sort.
std::vector<CandidateTuple> ReferenceIdentify(
    KeywordSearchEngine* engine, const Acg& acg, const IdentifyParams& params,
    const std::vector<KeywordQuery>& queries,
    const std::vector<TupleId>& focal, const MiniDb* mini_db) {
  std::vector<std::vector<SearchHit>> per_query;
  for (const KeywordQuery& q : queries) {
    per_query.push_back(*engine->Search(q, mini_db));
  }
  struct Accum {
    double confidence = 0.0;
    std::vector<std::string> evidence;
  };
  std::unordered_map<TupleId, Accum, TupleIdHash> grouped;
  for (size_t qi = 0; qi < per_query.size(); ++qi) {
    for (const SearchHit& hit : per_query[qi]) {
      const double contribution = hit.confidence * queries[qi].weight;
      Accum& acc = grouped[hit.tuple];
      acc.confidence = params.group_reward
                           ? acc.confidence + contribution
                           : std::max(acc.confidence, contribution);
      acc.evidence.push_back(queries[qi].label.empty() ? queries[qi].ToString()
                                                       : queries[qi].label);
    }
  }
  if (params.focal_adjustment && !focal.empty()) {
    for (auto& [tuple, acc] : grouped) {
      double reward = 0.0;
      if (params.focal_reward_mode == FocalRewardMode::kDirectEdge) {
        for (const TupleId& f : focal) {
          reward += acg.EdgeWeight(tuple, f) * acc.confidence;
        }
      } else {
        reward = acg.PathWeight(focal, tuple, params.path_max_hops) *
                 acc.confidence;
      }
      acc.confidence += reward;
    }
  }
  double max_conf = 0.0;
  for (const auto& [_, acc] : grouped) {
    max_conf = std::max(max_conf, acc.confidence);
  }
  std::vector<CandidateTuple> out;
  for (auto& [tuple, acc] : grouped) {
    CandidateTuple c;
    c.tuple = tuple;
    c.confidence = max_conf > 0.0 ? acc.confidence / max_conf : 0.0;
    for (auto& e : acc.evidence) {
      if (std::find(c.evidence.begin(), c.evidence.end(), e) ==
          c.evidence.end()) {
        c.evidence.push_back(std::move(e));
      }
    }
    out.push_back(std::move(c));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const CandidateTuple& a, const CandidateTuple& b) {
                     if (a.confidence != b.confidence) {
                       return a.confidence > b.confidence;
                     }
                     return a.tuple < b.tuple;
                   });
  return out;
}

/// The first difference between two rankings (tuple, confidence bits,
/// evidence), or "" when they are equal.
std::string FirstDifference(const std::vector<CandidateTuple>& got,
                            const std::vector<CandidateTuple>& want) {
  if (got.size() != want.size()) {
    return "size " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    const std::string at = "rank " + std::to_string(i) + ": ";
    if (!(got[i].tuple == want[i].tuple)) {
      return at + got[i].tuple.ToString() + " vs " + want[i].tuple.ToString();
    }
    if (std::bit_cast<uint64_t>(got[i].confidence) !=
        std::bit_cast<uint64_t>(want[i].confidence)) {
      return at + StrFormat("confidence %.17g vs %.17g", got[i].confidence,
                            want[i].confidence);
    }
    if (got[i].evidence != want[i].evidence) return at + "evidence";
  }
  return "";
}

/// ExecStats of running each distinct statement of the group once, in
/// plan order: the statements compiled per query, repeats found by a
/// linear SameStatement scan.
ExecStats ReferenceGroupStats(const KeywordSearchEngine& engine,
                              const std::vector<KeywordQuery>& queries,
                              const MiniDb* mini_db) {
  std::vector<GeneratedSql> distinct;
  for (const KeywordQuery& q : queries) {
    for (const GeneratedSql& sql : engine.CompileToSql(q)) {
      if (std::none_of(distinct.begin(), distinct.end(),
                       [&sql](const GeneratedSql& d) {
                         return d.SameStatement(sql);
                       })) {
        distinct.push_back(sql);
      }
    }
  }
  ExecStats total;
  for (const GeneratedSql& sql : distinct) {
    ExecStats one;
    EXPECT_TRUE(engine.ExecuteRows(sql, mini_db, &one).ok());
    total += one;
  }
  return total;
}

/// Runs one query group through Identify and through the reference in
/// every configuration: group reward on/off x focal adjustment off /
/// direct edge / shortest path x plan cache off/on x without/with `mini`.
/// Identify must also report ReferenceGroupStats' ExecStats.
void ExpectFoldEqualsReference(const Catalog& catalog, const NebulaMeta& meta,
                               const Acg& acg,
                               const std::vector<KeywordQuery>& queries,
                               const std::vector<TupleId>& focal,
                               const MiniDb& mini, const std::string& name) {
  for (int config = 0; config < 24; ++config) {
    IdentifyParams params;
    params.group_reward = (config & 1) != 0;
    const bool use_plan_cache = (config & 2) != 0;
    const MiniDb* restrict = (config & 4) != 0 ? &mini : nullptr;
    params.focal_adjustment = config / 8 != 0;
    params.focal_reward_mode = config / 8 == 2 ? FocalRewardMode::kShortestPath
                                               : FocalRewardMode::kDirectEdge;
    KeywordSearchEngine reference_engine(&catalog, &meta);
    KeywordSearchEngine engine(&catalog, &meta);
    PlanCache plan_cache(&meta);
    TupleIdentifier identifier(&engine, &acg, params,
                               use_plan_cache ? &plan_cache : nullptr);
    const auto want = ReferenceIdentify(&reference_engine, acg, params,
                                        queries, focal, restrict);
    const ExecStats want_stats =
        ReferenceGroupStats(reference_engine, queries, restrict);
    const auto got = identifier.Identify(queries, focal, restrict);
    ASSERT_TRUE(got.ok()) << name << " config " << config;
    EXPECT_EQ(FirstDifference(*got, want), "") << name << " config " << config;
    EXPECT_EQ(engine.stats().rows_examined, want_stats.rows_examined)
        << name << " config " << config;
    EXPECT_EQ(engine.stats().index_lookups, want_stats.index_lookups)
        << name << " config " << config;
    EXPECT_EQ(engine.stats().matches, want_stats.matches)
        << name << " config " << config;
  }
}

MiniDb FocalMiniDb(const Acg& acg, const std::vector<TupleId>& focal) {
  FocalSpreadingParams sp;
  sp.require_stable_acg = false;
  return FocalSpreading(&acg, sp).BuildMiniDb(focal, 2);
}

TEST(FoldEqualsReference, TinyWorkloadAnnotations) {
  BioDataset* ds = SharedDataset();
  ASSERT_NE(ds, nullptr);
  Acg acg;
  acg.BuildFromStore(ds->store);
  QueryGenerator gen(&ds->meta);
  for (size_t a = 0; a < 60 && a < ds->workload.annotations.size(); a += 7) {
    const WorkloadAnnotation& wa = ds->workload.annotations[a];
    const std::vector<TupleId> focal{wa.ideal_tuples.front()};
    ExpectFoldEqualsReference(ds->catalog, ds->meta, acg,
                              gen.Generate(wa.text).queries, focal,
                              FocalMiniDb(acg, focal),
                              "tiny annotation " + std::to_string(a));
  }
}

TEST(FoldEqualsReference, HostileCheckUniverse) {
  check::CheckWorkloadParams params;
  params.hostile_tokens = true;
  auto universe = check::BuildCheckUniverse(11, params);
  ASSERT_TRUE(universe.ok());
  const check::CheckUniverse& u = **universe;
  Acg acg;
  acg.BuildFromStore(u.store);
  QueryGenerator gen(&u.meta);
  const check::CheckWorkload workload =
      check::GenerateCheckWorkload(11, u, params);
  ASSERT_FALSE(workload.annotations.empty());
  for (size_t a = 0; a < workload.annotations.size(); ++a) {
    const check::CheckAnnotation& ann = workload.annotations[a];
    ExpectFoldEqualsReference(u.catalog, u.meta, acg,
                              gen.Generate(ann.text).queries, ann.focal,
                              FocalMiniDb(acg, ann.focal),
                              "hostile annotation " + std::to_string(a));
  }
}

/// Targeted groups over one Tiny annotation whose candidates include ACG
/// neighbours of its focal tuple.
class FoldEqualsReferenceTargeted : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = SharedDataset();
    ASSERT_NE(ds_, nullptr);
    acg_.BuildFromStore(ds_->store);
    QueryGenerator gen(&ds_->meta);
    // The first annotation with three or more queries, a candidate that
    // is an ACG neighbour of its focal tuple, and a candidate that is not.
    for (const WorkloadAnnotation& wa : ds_->workload.annotations) {
      queries_ = gen.Generate(wa.text).queries;
      focal_ = wa.ideal_tuples.front();
      if (queries_.size() < 3) continue;
      KeywordSearchEngine engine(&ds_->catalog, &ds_->meta);
      IdentifyParams plain;
      plain.focal_adjustment = false;
      candidates_ = *TupleIdentifier(&engine, &acg_, plain)
                         .Identify(queries_, {focal_});
      size_t connected = 0;
      for (const CandidateTuple& c : candidates_) {
        if (acg_.EdgeWeight(c.tuple, focal_) > 0.0) ++connected;
      }
      if (connected > 0 && connected < candidates_.size()) return;
    }
    FAIL() << "no Tiny annotation has a focal-connected candidate";
  }

  void Expect(const std::vector<KeywordQuery>& queries,
              const std::vector<TupleId>& focal, const std::string& name) {
    ExpectFoldEqualsReference(ds_->catalog, ds_->meta, acg_, queries, focal,
                              FocalMiniDb(acg_, {focal_}), name);
  }

  BioDataset* ds_ = nullptr;
  Acg acg_;
  std::vector<KeywordQuery> queries_;
  TupleId focal_;
  std::vector<CandidateTuple> candidates_;
};

TEST_F(FoldEqualsReferenceTargeted, FocalShapes) {
  const TupleId absent{0, 1u << 30};
  ASSERT_FALSE(acg_.HasNode(absent));
  Expect(queries_, {focal_}, "focal");
  Expect(queries_, {focal_, focal_}, "duplicated focal tuple");
  Expect(queries_, {focal_, absent, focal_}, "duplicated and absent focal");
  Expect(queries_, {absent}, "only an absent focal tuple");
  // A candidate that is itself a focal tuple, first and last in focal.
  Expect(queries_, {candidates_.front().tuple, focal_},
         "top candidate as a focal tuple");
  Expect(queries_, {focal_, candidates_.back().tuple},
         "last candidate as a focal tuple");
}

TEST_F(FoldEqualsReferenceTargeted, EvidenceLabels) {
  std::vector<KeywordQuery> shared_label = queries_;
  shared_label[2].label = shared_label[0].label;
  Expect(shared_label, {focal_}, "two queries with one label");
  std::vector<KeywordQuery> empty_label = queries_;
  empty_label[1].label.clear();
  Expect(empty_label, {focal_}, "an empty label");
  // An empty label renders as the keywords, which may equal another
  // query's explicit label.
  std::vector<KeywordQuery> rendered_equal = queries_;
  rendered_equal[1].label.clear();
  rendered_equal[2].label = rendered_equal[1].ToString();
  Expect(rendered_equal, {focal_}, "a rendered label equal to a label");
  // The same query twice under one label: one evidence entry, two terms.
  std::vector<KeywordQuery> repeated = queries_;
  repeated.push_back(queries_[0]);
  Expect(repeated, {focal_}, "a repeated query");
}

TEST_F(FoldEqualsReferenceTargeted, EqualConfidences) {
  // Unit weights leave many candidates at equal confidence, so the
  // ranking falls back to the tuple order.
  std::vector<KeywordQuery> unit = queries_;
  for (KeywordQuery& q : unit) q.weight = 1.0;
  Expect(unit, {focal_}, "unit weights");
  Expect(unit, {}, "unit weights, no focal");
  std::vector<KeywordQuery> zero = queries_;
  zero[0].weight = 0.0;
  Expect(zero, {focal_}, "a zero weight");
}

TEST(MergeHitsProperty, EqualsHashMapMergeOnRandomHits) {
  // Few tuples and few confidence levels, -0.0 among them: duplicates
  // within and across statements, and ties everywhere.
  const double levels[] = {0.0, -0.0, 0.25, 0.5, 0.5, 0.75};
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    for (int round = 0; round < 200; ++round) {
      std::vector<std::vector<SearchHit>> per_sql(rng.Uniform(6));
      std::vector<SearchHit> concatenated;
      for (auto& hits : per_sql) {
        const size_t n = rng.Uniform(10);
        for (size_t i = 0; i < n; ++i) {
          hits.push_back({{static_cast<uint32_t>(rng.Uniform(3)),
                           rng.Uniform(5)},
                          levels[rng.Uniform(std::size(levels))]});
        }
        concatenated.insert(concatenated.end(), hits.begin(), hits.end());
      }
      const auto want = ReferenceMergeHits(per_sql);
      const auto got = KeywordSearchEngine::MergeHits(concatenated);
      ASSERT_EQ(got.size(), want.size()) << seed << "/" << round;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].tuple, want[i].tuple) << seed << "/" << round;
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i].confidence),
                  std::bit_cast<uint64_t>(want[i].confidence))
            << seed << "/" << round;
      }
    }
  }
}

// §5.2.2: a full {table, column, value} context (Type-1) must reward a
// value mapping more than {table, value} (Type-2), which must reward it
// more than {column, value} (Type-3) — because beta1 > beta2 > beta3.
TEST(ContextRewardOrdering, TypeOneBeatsTypeTwoBeatsTypeThree) {
  const ContextAdjustParams params;  // defaults: 0.30 / 0.20 / 0.10
  ASSERT_GT(params.beta1, params.beta2);
  ASSERT_GT(params.beta2, params.beta3);
  const double base = 0.5;  // below 1/(1+beta1): the clamp never hides order

  auto word = [](const std::string& text, size_t pos,
                 std::vector<WordMapping> mappings) {
    SigWord w;
    w.token = Token{text, ToLower(text), pos, 0};
    w.mappings = std::move(mappings);
    return w;
  };
  const WordMapping table_map{WordMapping::Kind::kTable, "gene", "", 0.9};
  const WordMapping column_map{WordMapping::Kind::kColumn, "gene", "gid",
                               0.8};
  const WordMapping value_map{WordMapping::Kind::kValue, "gene", "gid",
                              base};

  SignatureMap type1;  // gene gid JW0001
  type1.words = {word("gene", 0, {table_map}), word("gid", 1, {column_map}),
                 word("JW0001", 2, {value_map})};
  SignatureMap type2;  // gene .. JW0001
  type2.words = {word("gene", 0, {table_map}), word("the", 1, {}),
                 word("JW0001", 2, {value_map})};
  SignatureMap type3;  // .. gid JW0001
  type3.words = {word("the", 0, {}), word("gid", 1, {column_map}),
                 word("JW0001", 2, {value_map})};

  ContextBasedAdjustment(&type1, params);
  ContextBasedAdjustment(&type2, params);
  ContextBasedAdjustment(&type3, params);

  const double w1 = type1.words[2].mappings[0].weight;
  const double w2 = type2.words[2].mappings[0].weight;
  const double w3 = type3.words[2].mappings[0].weight;
  EXPECT_NEAR(w1, base * (1 + params.beta1), 1e-12);
  EXPECT_NEAR(w2, base * (1 + params.beta2), 1e-12);
  EXPECT_NEAR(w3, base * (1 + params.beta3), 1e-12);
  EXPECT_GT(w1, w2);
  EXPECT_GT(w2, w3);
  EXPECT_GT(w3, base);
}

}  // namespace
}  // namespace nebula
