#include <gtest/gtest.h>

#include "annotation/annotation_store.h"
#include "annotation/quality.h"
#include "common/random.h"
#include "common/status.h"
#include "core/bounds_setting.h"
#include "core/engine.h"
#include "core/focal_spreading.h"
#include "core/identify.h"
#include "storage/schema.h"
#include "workload/generator.h"
#include "workload/oracle.h"
#include "workload/spec.h"

namespace nebula {
namespace {

/// End-to-end tests over a shared Tiny dataset: insert held-out workload
/// annotations through the full Nebula pipeline and check the discovered
/// attachments against ground truth.
class EngineIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto result = GenerateBioDataset(DatasetSpec::Tiny());
    ASSERT_TRUE(result.ok());
    dataset_ = result->release();
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  std::unique_ptr<NebulaEngine> MakeEngine(NebulaConfig config = {}) {
    auto engine = std::make_unique<NebulaEngine>(
        &dataset_->catalog, &dataset_->store, &dataset_->meta, config);
    engine->RebuildAcg();
    return engine;
  }

  /// Ground-truth edge set for a workload annotation inserted as `id`.
  static EdgeSet IdealFor(AnnotationId id, const WorkloadAnnotation& wa) {
    EdgeSet ideal;
    for (const TupleId& t : wa.ideal_tuples) ideal.Add(id, t);
    return ideal;
  }

  static BioDataset* dataset_;
};

BioDataset* EngineIntegrationTest::dataset_ = nullptr;

TEST_F(EngineIntegrationTest, DiscoverDoesNotMutateState) {
  auto engine = MakeEngine();
  const size_t annotations_before = dataset_->store.num_annotations();
  const size_t edges_before = dataset_->store.num_attachments();

  const AnnotationId existing = 0;
  const auto focal = dataset_->store.AttachedTuples(existing, true);
  ASSERT_FALSE(focal.empty());
  auto report = engine->Discover(existing, focal);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(dataset_->store.num_annotations(), annotations_before);
  EXPECT_EQ(dataset_->store.num_attachments(), edges_before);
  EXPECT_TRUE(engine->verification().tasks().empty());
  EXPECT_EQ(engine->verification().next_vid(), 0u);
}

TEST_F(EngineIntegrationTest, WorkloadAnnotationsRecoverGroundTruth) {
  NebulaConfig config;
  config.generation.epsilon = 0.6;
  config.bounds = {0.2, 0.9};
  auto engine = MakeEngine(config);

  size_t total_ideal = 0;
  size_t recovered = 0;
  // Use the 100-byte class: compact but fully-specified references.
  for (size_t idx : dataset_->workload.BySizeClass(100)) {
    const WorkloadAnnotation& wa = dataset_->workload.annotations[idx];
    const std::vector<TupleId> focal{wa.ideal_tuples.front()};
    auto report = engine->InsertAnnotation(wa.text, focal, "test");
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    // Every remaining ideal tuple should appear among the candidates.
    for (size_t i = 1; i < wa.ideal_tuples.size(); ++i) {
      ++total_ideal;
      for (const auto& c : report->candidates) {
        if (c.tuple == wa.ideal_tuples[i]) {
          ++recovered;
          break;
        }
      }
    }
  }
  ASSERT_GT(total_ideal, 0u);
  // Discovery (pre-verification) must surface nearly all true references.
  EXPECT_GE(static_cast<double>(recovered) / total_ideal, 0.95)
      << recovered << "/" << total_ideal;
}

TEST_F(EngineIntegrationTest, OracleDrivenPipelineImprovesDatabase) {
  NebulaConfig config;
  config.bounds = {0.25, 0.9};
  auto engine = MakeEngine(config);

  const WorkloadAnnotation* chosen = nullptr;
  for (size_t idx : dataset_->workload.BySizeClass(500)) {
    if (dataset_->workload.annotations[idx].ideal_tuples.size() >= 2) {
      chosen = &dataset_->workload.annotations[idx];
      break;
    }
  }
  ASSERT_NE(chosen, nullptr);
  const WorkloadAnnotation& wa = *chosen;
  const std::vector<TupleId> focal{wa.ideal_tuples.front()};
  auto report = engine->InsertAnnotation(wa.text, focal, "oracle");
  ASSERT_TRUE(report.ok());

  const EdgeSet ideal = IdealFor(report->annotation, wa);
  OracleExpert oracle(&ideal);
  oracle.ProcessPending(&engine->verification());

  // After the oracle pass, the annotation's edges should cover most of
  // the ground truth without many spurious edges.
  const auto attached = dataset_->store.AttachedTuples(report->annotation);
  size_t correct = 0;
  for (const TupleId& t : attached) {
    if (ideal.Contains(report->annotation, t)) ++correct;
  }
  EXPECT_GE(correct, wa.ideal_tuples.size() - 1);
  // Spurious True edges can only come from wrong auto-accepts.
  const double precision =
      static_cast<double>(correct) / static_cast<double>(attached.size());
  EXPECT_GE(precision, 0.7);
}

TEST_F(EngineIntegrationTest, FocalSpreadingPathProducesSubsetOfFull) {
  // Feed the profile + force stability off-switch so approximation runs.
  NebulaConfig approx_config;
  approx_config.enable_focal_spreading = true;
  approx_config.spreading.require_stable_acg = false;
  approx_config.spreading.selection = KSelection::kFixed;
  approx_config.spreading.fixed_k = 3;
  auto approx_engine = MakeEngine(approx_config);
  auto full_engine = MakeEngine();

  const WorkloadAnnotation& wa =
      dataset_->workload.annotations[dataset_->workload.BySizeClass(100)[1]];
  const AnnotationId id = dataset_->store.AddAnnotation(wa.text, "t");
  for (const TupleId& t : wa.ideal_tuples) {
    ASSERT_TRUE(dataset_->store.Attach(id, t).ok());
  }
  // Rebuild so the focal is connected in both engines' graphs.
  approx_engine->RebuildAcg();
  full_engine->RebuildAcg();
  const std::vector<TupleId> focal{wa.ideal_tuples.front()};

  auto approx = approx_engine->Discover(id, focal);
  auto full = full_engine->Discover(id, focal);
  ASSERT_TRUE(approx.ok() && full.ok());
  EXPECT_EQ(approx->mode, SearchMode::kFocalSpreading);
  EXPECT_EQ(full->mode, SearchMode::kFullDatabase);
  EXPECT_GT(approx->mini_db_size, 0u);
  // Approximate candidates are a subset of full candidates (as tuples).
  EXPECT_LE(approx->candidates.size(), full->candidates.size());
  for (const auto& c : approx->candidates) {
    bool found = false;
    for (const auto& f : full->candidates) {
      if (f.tuple == c.tuple) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST_F(EngineIntegrationTest, UnstableAcgFallsBackToFullSearch) {
  NebulaConfig config;
  config.enable_focal_spreading = true;  // stability required (default)
  auto engine = MakeEngine(config);
  ASSERT_FALSE(engine->acg().stable());
  const WorkloadAnnotation& wa =
      dataset_->workload.annotations[dataset_->workload.BySizeClass(100)[2]];
  auto report =
      engine->InsertAnnotation(wa.text, {wa.ideal_tuples.front()}, "t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->mode, SearchMode::kFullDatabase);
}

TEST_F(EngineIntegrationTest, InsertAttachesFocalAsTrueEdges) {
  auto engine = MakeEngine();
  const WorkloadAnnotation& wa =
      dataset_->workload.annotations[dataset_->workload.BySizeClass(50)[0]];
  const std::vector<TupleId> focal{wa.ideal_tuples.front()};
  auto report = engine->InsertAnnotation(wa.text, focal, "bob");
  ASSERT_TRUE(report.ok());
  const auto tuples =
      dataset_->store.AttachedTuples(report->annotation, true);
  ASSERT_FALSE(tuples.empty());
  EXPECT_EQ(tuples.front(), focal.front());
  auto ann = dataset_->store.GetAnnotation(report->annotation);
  ASSERT_TRUE(ann.ok());
  EXPECT_EQ((*ann)->author, "bob");
  EXPECT_EQ((*ann)->text, wa.text);
}

TEST_F(EngineIntegrationTest, RepeatedFocalTupleAppliesNothing) {
  // Without durability too, a repeated focal tuple is refused before
  // Stage 0 stores anything: no annotation, no attachment, no ACG edge.
  auto engine = MakeEngine();
  const WorkloadAnnotation* wa = nullptr;
  for (const WorkloadAnnotation& candidate : dataset_->workload.annotations) {
    if (candidate.ideal_tuples.size() >= 2) {
      wa = &candidate;
      break;
    }
  }
  ASSERT_NE(wa, nullptr);
  const std::vector<TupleId> focal{wa->ideal_tuples[0], wa->ideal_tuples[1],
                                   wa->ideal_tuples[0]};
  const size_t annotations = dataset_->store.num_annotations();
  const size_t attachments = dataset_->store.num_attachments();
  const size_t nodes = engine->acg().num_nodes();
  const size_t edges = engine->acg().num_edges();
  auto report = engine->InsertAnnotation(wa->text, focal, "bob");
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dataset_->store.num_annotations(), annotations);
  EXPECT_EQ(dataset_->store.num_attachments(), attachments);
  EXPECT_EQ(engine->acg().num_nodes(), nodes);
  EXPECT_EQ(engine->acg().num_edges(), edges);
  EXPECT_TRUE(engine->verification().tasks().empty());
  EXPECT_EQ(engine->verification().next_vid(), 0u);
  EXPECT_EQ(engine->verification().auto_rejected(), 0u);
}

TEST_F(EngineIntegrationTest, SpamGuardBlocksOverreachingAnnotations) {
  NebulaConfig config;
  config.enable_spam_guard = true;
  config.spam_guard.max_coverage = 0.0005;  // absurdly strict on purpose
  config.spam_guard.min_candidates = 1;
  auto engine = MakeEngine(config);
  const WorkloadAnnotation& wa =
      dataset_->workload.annotations[dataset_->workload.BySizeClass(500)[1]];
  auto report =
      engine->InsertAnnotation(wa.text, {wa.ideal_tuples.front()}, "spam");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->spam.spam_suspected);
  EXPECT_GT(report->spam.coverage, 0.0005);
  // No verification tasks were created.
  EXPECT_EQ(report->verification.auto_accepted, 0u);
  EXPECT_EQ(report->verification.pending, 0u);
  EXPECT_TRUE(engine->verification().tasks().empty());
  EXPECT_EQ(engine->verification().next_vid(), 0u);
  // The focal attachment itself still exists (the user's own action).
  EXPECT_TRUE(
      dataset_->store.HasAttachment(report->annotation,
                                    wa.ideal_tuples.front()));
}

TEST_F(EngineIntegrationTest, SpamGuardPassesNormalAnnotations) {
  NebulaConfig config;  // default guard thresholds
  auto engine = MakeEngine(config);
  const WorkloadAnnotation& wa =
      dataset_->workload.annotations[dataset_->workload.BySizeClass(50)[3]];
  auto report =
      engine->InsertAnnotation(wa.text, {wa.ideal_tuples.front()}, "ok");
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->spam.spam_suspected);
}

TEST_F(EngineIntegrationTest, BoundsSettingFindsReasonableBounds) {
  auto engine = MakeEngine();
  Rng rng(11);
  const auto training = dataset_->SampleTrainingSet(15, &rng);
  ASSERT_FALSE(training.empty());

  DiscoveryFn discover = [&](AnnotationId annotation,
                             const std::vector<TupleId>& focal) {
    auto report = engine->Discover(annotation, focal);
    return report.ok() ? report->candidates : std::vector<CandidateTuple>{};
  };
  BoundsSettingConfig config;
  config.max_fn = 0.5;
  config.max_fp = 0.3;
  config.grid = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  const BoundsSettingResult result =
      BoundsSetting(training, discover, config);
  EXPECT_FALSE(result.grid.empty());
  EXPECT_LE(result.best.lower, result.best.upper);
}

TEST_F(EngineIntegrationTest, PlanCacheServesOnlyTheAcceleratedPath) {
  // use_value_index = false is the legacy side: it compiles every group
  // and never fills the plan cache.
  for (const bool use_value_index : {false, true}) {
    NebulaConfig config;
    config.use_value_index = use_value_index;
    auto engine = MakeEngine(config);
    for (size_t idx : dataset_->workload.BySizeClass(100)) {
      const WorkloadAnnotation& wa = dataset_->workload.annotations[idx];
      ASSERT_TRUE(
          engine->InsertAnnotation(wa.text, {wa.ideal_tuples.front()}, "pc")
              .ok());
    }
    if (use_value_index) {
      EXPECT_GT(engine->plan_cache().size(), 0u);
    } else {
      EXPECT_EQ(engine->plan_cache().size(), 0u);
    }
  }
}

}  // namespace
}  // namespace nebula
