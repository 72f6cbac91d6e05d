// Fault-injected pipeline tests: a mid-batch storage/SQL failure must
// surface as a clean error — no crash, no partial ACG corruption, metrics
// still serializable — and the engine must keep working once the fault
// clears. Labeled "fault" in ctest.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>

#include "annotation/annotation_store.h"
#include "common/fault.h"
#include "common/fault_points.h"
#include "common/status.h"
#include "core/acg.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "sql/session.h"
#include "storage/table.h"
#include "testing/check_workload.h"

namespace nebula {
namespace {

class EngineFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Global().Clear();
    auto universe = check::BuildCheckUniverse(2026);
    ASSERT_TRUE(universe.ok()) << universe.status().ToString();
    universe_ = std::move(universe).value();
    workload_ = check::GenerateCheckWorkload(2026, *universe_);
    ASSERT_GE(workload_.annotations.size(), 3u);
  }
  void TearDown() override { FaultRegistry::Global().Clear(); }

  std::vector<AnnotationRequest> Requests() const {
    std::vector<AnnotationRequest> requests;
    for (const check::CheckAnnotation& a : workload_.annotations) {
      requests.push_back({a.text, a.focal, a.author});
    }
    return requests;
  }

  /// The no-corruption oracle: the incrementally maintained ACG must be
  /// structurally identical to one rebuilt from scratch off the store.
  void ExpectAcgConsistent(NebulaEngine* engine) {
    Acg rebuilt;
    rebuilt.BuildFromStore(*engine->store());
    EXPECT_EQ(engine->acg().Fingerprint(), rebuilt.Fingerprint());
  }

  std::unique_ptr<check::CheckUniverse> universe_;
  check::CheckWorkload workload_;
};

TEST_F(EngineFaultTest, MidBatchQueryFaultSurfacesCleanly) {
  NebulaConfig config;
  NebulaEngine engine(&universe_->catalog, &universe_->store,
                      &universe_->meta, config);
  engine.RebuildAcg();
  const size_t annotations_before = universe_->store.num_annotations();

  {
    // Let a few statements through, then fail every query execution.
    FaultSpec spec;
    spec.code = StatusCode::kCorruption;
    spec.message = "storage offline";
    spec.skip_calls = 2;
    ScopedFault fault("storage.query.execute", spec);
    const auto reports = engine.InsertAnnotations(Requests());
    ASSERT_FALSE(reports.ok());
    EXPECT_NE(reports.status().message().find("storage.query.execute"),
              std::string::npos);
  }

  // Stage 0 of the failed annotation committed (store + focal) before
  // Stage 2 hit the fault — that is the documented contract. What must
  // NOT exist is a half-applied Stage 2/3: the incremental ACG has to
  // match a from-scratch rebuild exactly.
  ExpectAcgConsistent(&engine);
  EXPECT_GT(universe_->store.num_annotations(), annotations_before);
  for (const Attachment& att : universe_->store.AllAttachments()) {
    if (att.type == AttachmentType::kTrue) {
      EXPECT_DOUBLE_EQ(att.weight, 1.0);
    } else {
      EXPECT_GT(att.weight, 0.0);
      EXPECT_LT(att.weight, 1.0);
    }
  }
#if NEBULA_OBS_ENABLED
  // Metrics stay serializable mid-disaster.
  EXPECT_FALSE(NebulaEngine::DumpMetrics().empty());
#else
  // Instrumentation compiled out: the dump is empty but must not crash.
  (void)NebulaEngine::DumpMetrics();
#endif

  // Fault cleared: the engine keeps working.
  const check::CheckAnnotation& again = workload_.annotations.front();
  const auto report =
      engine.InsertAnnotation(again.text, again.focal, "retry");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectAcgConsistent(&engine);
}

TEST_F(EngineFaultTest, SharedExecutorFaultDoesNotPoisonTheBatch) {
  NebulaConfig config;
  config.num_threads = 2;
  NebulaEngine engine(&universe_->catalog, &universe_->store,
                      &universe_->meta, config);
  engine.RebuildAcg();
  {
    FaultSpec spec;
    spec.max_fires = 1;  // exactly one statement fails
    ScopedFault fault("keyword.shared.statement", spec);
    const auto reports = engine.InsertAnnotations(Requests());
    // The one poisoned annotation fails the batch call with a clean
    // error; nothing crashes while Stage-1 workers still run ahead.
    ASSERT_FALSE(reports.ok());
  }
  ExpectAcgConsistent(&engine);
  const auto reports = engine.InsertAnnotations(Requests());
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  EXPECT_EQ(reports->size(), workload_.annotations.size());
  ExpectAcgConsistent(&engine);
}

TEST_F(EngineFaultTest, ThreadPoolFaultFallsBackToInlineAndMatches) {
  // Baseline: pooled run without faults.
  auto clean_universe = check::BuildCheckUniverse(2026);
  ASSERT_TRUE(clean_universe.ok());
  NebulaConfig config;
  config.num_threads = 3;
  NebulaEngine clean_engine(&(*clean_universe)->catalog,
                            &(*clean_universe)->store,
                            &(*clean_universe)->meta, config);
  clean_engine.RebuildAcg();
  const auto expected = clean_engine.InsertAnnotations(Requests());
  ASSERT_TRUE(expected.ok());

  // Same run with every pool submission refused: everything degrades to
  // inline execution with identical results.
  NebulaEngine engine(&universe_->catalog, &universe_->store,
                      &universe_->meta, config);
  engine.RebuildAcg();
  ScopedFault fault("threadpool.submit");
  const auto reports = engine.InsertAnnotations(Requests());
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(), expected->size());
  for (size_t i = 0; i < reports->size(); ++i) {
    ASSERT_EQ((*reports)[i].candidates.size(),
              (*expected)[i].candidates.size());
    for (size_t c = 0; c < (*reports)[i].candidates.size(); ++c) {
      EXPECT_EQ((*reports)[i].candidates[c].tuple,
                (*expected)[i].candidates[c].tuple);
      EXPECT_DOUBLE_EQ((*reports)[i].candidates[c].confidence,
                       (*expected)[i].candidates[c].confidence);
    }
  }
  ExpectAcgConsistent(&engine);
}

TEST_F(EngineFaultTest, SqlSessionFaultIsCleanAndRecoverable) {
  NebulaConfig config;
  NebulaEngine engine(&universe_->catalog, &universe_->store,
                      &universe_->meta, config);
  engine.RebuildAcg();
  sql::SqlSession session(&engine);
  {
    ScopedFault fault("sql.session.execute");
    const auto result = session.Execute("SHOW TABLES");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  }
  const auto result = session.Execute("SHOW TABLES");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectAcgConsistent(&engine);
}

TEST_F(EngineFaultTest, ValueIndexBuildFaultDegradesToScanNotCorruption) {
  // Baseline: clean accelerated run on an identical universe.
  auto clean_universe = check::BuildCheckUniverse(2026);
  ASSERT_TRUE(clean_universe.ok());
  NebulaConfig config;
  NebulaEngine clean_engine(&(*clean_universe)->catalog,
                            &(*clean_universe)->store,
                            &(*clean_universe)->meta, config);
  clean_engine.RebuildAcg();
  const auto expected = clean_engine.InsertAnnotations(Requests());
  ASSERT_TRUE(expected.ok());

  // Same run with every value-index build failing: all tables latch into
  // permanent scan fallback. Results must be identical — degraded, never
  // corrupt — and no call may surface the fault as an error.
  NebulaEngine engine(&universe_->catalog, &universe_->store,
                      &universe_->meta, config);
  engine.RebuildAcg();
  ScopedFault fault("storage.valueindex.build");
  const auto reports = engine.InsertAnnotations(Requests());
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  EXPECT_GT(FaultRegistry::Global().FireCount("storage.valueindex.build"),
            0u);
  ASSERT_EQ(reports->size(), expected->size());
  for (size_t i = 0; i < reports->size(); ++i) {
    ASSERT_EQ((*reports)[i].candidates.size(),
              (*expected)[i].candidates.size());
    for (size_t c = 0; c < (*reports)[i].candidates.size(); ++c) {
      EXPECT_EQ((*reports)[i].candidates[c].tuple,
                (*expected)[i].candidates[c].tuple);
      EXPECT_DOUBLE_EQ((*reports)[i].candidates[c].confidence,
                       (*expected)[i].candidates[c].confidence);
    }
  }
  ExpectAcgConsistent(&engine);

  // The failure is sticky by design: even after the fault clears, a table
  // that failed its build serves scans rather than retry into a
  // half-built index.
  for (size_t t = 0; t < universe_->catalog.num_tables(); ++t) {
    const Table* table =
        universe_->catalog.GetTableById(static_cast<uint32_t>(t));
    const Table::ValueIndexInfo info = table->value_index_info();
    if (info.failed) {
      EXPECT_EQ(table->TryValueIndex(), nullptr);
      EXPECT_FALSE(info.built);
    }
  }
}

TEST_F(EngineFaultTest, PlanCacheFillFaultDegradesToRecompile) {
  NebulaConfig config;
  NebulaEngine engine(&universe_->catalog, &universe_->store,
                      &universe_->meta, config);
  engine.RebuildAcg();
  {
    ScopedFault fault("core.plancache.fill");
    const auto reports = engine.InsertAnnotations(Requests());
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    EXPECT_GT(FaultRegistry::Global().FireCount("core.plancache.fill"), 0u);
    // Every fill was refused: nothing may linger in the cache.
    EXPECT_EQ(engine.plan_cache().size(), 0u);
  }
  ExpectAcgConsistent(&engine);
  // Fault cleared: the cache fills again.
  const check::CheckAnnotation& again = workload_.annotations.front();
  ASSERT_TRUE(engine.InsertAnnotation(again.text, again.focal, "r").ok());
  EXPECT_GT(engine.plan_cache().size(), 0u);
}

TEST_F(EngineFaultTest, WordMemoFillFaultDegradesToRescoring) {
  // Stage-1 generation runs on pool workers here, so the fault also fires
  // there; candidates must still equal a clean run's bit for bit.
  NebulaConfig config;
  config.num_threads = 2;
  auto clean_universe = check::BuildCheckUniverse(2026);
  ASSERT_TRUE(clean_universe.ok());
  NebulaEngine clean_engine(&(*clean_universe)->catalog,
                            &(*clean_universe)->store,
                            &(*clean_universe)->meta, config);
  clean_engine.RebuildAcg();
  const auto expected = clean_engine.InsertAnnotations(Requests());
  ASSERT_TRUE(expected.ok());

  NebulaEngine engine(&universe_->catalog, &universe_->store,
                      &universe_->meta, config);
  engine.RebuildAcg();
  ScopedFault fault(kFaultMetaWordMemoFill);
  const auto reports = engine.InsertAnnotations(Requests());
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  EXPECT_GT(FaultRegistry::Global().FireCount(kFaultMetaWordMemoFill), 0u);
  EXPECT_EQ(universe_->meta.word_memo_size(), 0u);
  ASSERT_EQ(reports->size(), expected->size());
  for (size_t i = 0; i < reports->size(); ++i) {
    ASSERT_EQ((*reports)[i].candidates.size(),
              (*expected)[i].candidates.size());
    for (size_t c = 0; c < (*reports)[i].candidates.size(); ++c) {
      EXPECT_EQ((*reports)[i].candidates[c].tuple,
                (*expected)[i].candidates[c].tuple);
      EXPECT_EQ((*reports)[i].candidates[c].confidence,
                (*expected)[i].candidates[c].confidence);
    }
  }
  ExpectAcgConsistent(&engine);
}

TEST_F(EngineFaultTest, TableInsertFaultRejectsRowWithoutSideEffects) {
  Table* table = universe_->catalog.GetTableById(0);
  const uint64_t rows_before = table->num_rows();
  {
    ScopedFault fault("storage.table.insert");
    const auto rid = table->Insert({Value("ZZ999"), Value("Probe1"),
                                    Value("kinase"), Value(int64_t{1}),
                                    Value("observed kinase")});
    ASSERT_FALSE(rid.ok());
  }
  EXPECT_EQ(table->num_rows(), rows_before);
  const auto rid = table->Insert({Value("ZZ999"), Value("Probe1"),
                                  Value("kinase"), Value(int64_t{1}),
                                  Value("observed kinase")});
  ASSERT_TRUE(rid.ok()) << rid.status().ToString();
  EXPECT_EQ(table->num_rows(), rows_before + 1);
}

TEST_F(EngineFaultTest, DurabilityFaultUnderPooledBatchSurfacesCleanly) {
  // A refused WAL append inside a pooled batch must fail the batch with
  // a clean error attributed to the fault point — no crash, no ACG
  // corruption — and the engine (journal included) must keep working
  // once the fault clears.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("nebula_engine_fault_dur_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  NebulaConfig config;
  config.num_threads = 3;
  config.durability_dir = dir;
  config.snapshot_every_n = 2;
  NebulaEngine engine(&universe_->catalog, &universe_->store,
                      &universe_->meta, config);
  engine.RebuildAcg();
  ASSERT_TRUE(engine.OpenDurability().ok());
  {
    FaultSpec spec;
    spec.skip_calls = 3;
    spec.max_fires = 1;
    ScopedFault fault(kFaultDurabilityWalAppend, spec);
    const auto reports = engine.InsertAnnotations(Requests());
    ASSERT_FALSE(reports.ok());
    EXPECT_NE(reports.status().message().find(kFaultDurabilityWalAppend),
              std::string::npos);
  }
  ExpectAcgConsistent(&engine);
  const auto reports = engine.InsertAnnotations(Requests());
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  EXPECT_EQ(reports->size(), workload_.annotations.size());
  ExpectAcgConsistent(&engine);
  std::filesystem::remove_all(dir);
}

TEST_F(EngineFaultTest, EventLogWriteFaultDropsEventsNotResults) {
  // A sink that cannot accept wide-event lines (disk full, peer gone)
  // must degrade to dropped-events-with-a-counter: engine results match
  // a clean run bit for bit, and logging resumes once the fault clears.
  auto clean_universe = check::BuildCheckUniverse(2026);
  ASSERT_TRUE(clean_universe.ok());
  NebulaConfig config;
  NebulaEngine clean_engine(&(*clean_universe)->catalog,
                            &(*clean_universe)->store,
                            &(*clean_universe)->meta, config);
  clean_engine.RebuildAcg();
  const auto expected = clean_engine.InsertAnnotations(Requests());
  ASSERT_TRUE(expected.ok());

  NebulaEngine engine(&universe_->catalog, &universe_->store,
                      &universe_->meta, config);
  engine.RebuildAcg();
  {
    ScopedFault fault("obs.eventlog.write");
    const auto reports = engine.InsertAnnotations(Requests());
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    ASSERT_EQ(reports->size(), expected->size());
    for (size_t i = 0; i < reports->size(); ++i) {
      ASSERT_EQ((*reports)[i].candidates.size(),
                (*expected)[i].candidates.size());
      for (size_t c = 0; c < (*reports)[i].candidates.size(); ++c) {
        EXPECT_EQ((*reports)[i].candidates[c].tuple,
                  (*expected)[i].candidates[c].tuple);
        EXPECT_DOUBLE_EQ((*reports)[i].candidates[c].confidence,
                         (*expected)[i].candidates[c].confidence);
      }
    }
    if (obs::kEnabled) {
      // Every attempted write was refused and counted; nothing landed.
      EXPECT_GT(FaultRegistry::Global().FireCount("obs.eventlog.write"), 0u);
      EXPECT_GT(engine.event_log().write_failures(), 0u);
      EXPECT_EQ(engine.event_log().recorded(), 0u);
      EXPECT_TRUE(engine.event_log().Snapshot().empty());
    }
  }
  ExpectAcgConsistent(&engine);
  // Fault cleared: events flow again.
  const check::CheckAnnotation& again = workload_.annotations.front();
  ASSERT_TRUE(engine.InsertAnnotation(again.text, again.focal, "r").ok());
  if (obs::kEnabled) {
    EXPECT_GT(engine.event_log().recorded(), 0u);
    EXPECT_NE(engine.DumpEvents().find("\"op\":\"insert\""),
              std::string::npos);
  }
}

}  // namespace
}  // namespace nebula
