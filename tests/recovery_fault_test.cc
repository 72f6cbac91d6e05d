// Recovery fault tests: every durability fault point must degrade
// cleanly — a refused WAL append fails the operation and nothing else, a
// torn write poisons the writer until reopen, a failed snapshot leaves
// the WAL authoritative — and after any of them, reopening the directory
// must recover exactly the state the engine held when it was killed.
// Labeled "fault", "tsan" (pooled durable ingest), and "durability".

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "annotation/annotation_store.h"
#include "common/fault.h"
#include "common/fault_points.h"
#include "common/status.h"
#include "core/engine.h"
#include "testing/check_workload.h"
#include "testing/crash.h"
#include "testing/differential.h"

namespace nebula {
namespace {

namespace fs = std::filesystem;

class RecoveryFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Global().Clear();
    dir_ = (fs::temp_directory_path() /
            ("nebula_recovery_fault_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
    auto universe = check::BuildCheckUniverse(31);
    ASSERT_TRUE(universe.ok()) << universe.status().ToString();
    universe_ = std::move(universe).value();
    workload_ = check::GenerateCheckWorkload(31, *universe_);
    ASSERT_GE(workload_.annotations.size(), 3u);
  }
  void TearDown() override {
    FaultRegistry::Global().Clear();
    fs::remove_all(dir_);
  }

  NebulaConfig DurableConfig(size_t snapshot_every = 2) const {
    NebulaConfig config;
    config.event_capacity = 0;
    config.durability_dir = dir_;
    config.snapshot_every_n = snapshot_every;
    return config;
  }

  /// Normalized end-state records of an engine: ACG rebuilt from the
  /// store so the fingerprint is a pure function of attachments.
  static std::vector<std::string> StateLines(check::CheckUniverse* universe,
                                             NebulaEngine* engine) {
    engine->RebuildAcg();
    std::vector<std::string> lines;
    check::AppendStateLines(universe->store, *engine, &lines);
    return lines;
  }

  /// Reopens `dir_` in a fresh engine and expects its recovered state to
  /// equal `expected` (what the killed engine held in memory).
  void ExpectReopenRecovers(const std::vector<std::string>& expected,
                            const NebulaConfig& config) {
    auto universe = check::BuildCheckUniverse(31);
    ASSERT_TRUE(universe.ok());
    NebulaEngine engine(&(*universe)->catalog, &(*universe)->store,
                        &(*universe)->meta, config);
    ASSERT_TRUE(engine.OpenDurability().ok());
    EXPECT_TRUE(engine.recovery_info().recovered);
    std::vector<std::string> lines;
    check::AppendStateLines((*universe)->store, engine, &lines);
    EXPECT_EQ(lines, expected);
  }

  std::unique_ptr<check::CheckUniverse> universe_;
  check::CheckWorkload workload_;
  std::string dir_;
};

TEST_F(RecoveryFaultTest, WalAppendFaultFailsOneOpAndEngineContinues) {
  const NebulaConfig config = DurableConfig();
  std::vector<std::string> killed_state;
  {
    NebulaEngine engine(&universe_->catalog, &universe_->store,
                        &universe_->meta, config);
    engine.RebuildAcg();
    ASSERT_TRUE(engine.OpenDurability().ok());
    size_t failures = 0;
    {
      // A clean append refusal: nothing reaches the log, nothing is
      // applied in memory, and the writer is NOT poisoned — the very
      // next operation must succeed.
      FaultSpec spec;
      spec.skip_calls = 2;
      spec.max_fires = 1;
      ScopedFault fault(kFaultDurabilityWalAppend, spec);
      for (const check::CheckAnnotation& a : workload_.annotations) {
        const auto report =
            engine.InsertAnnotation(a.text, a.focal, a.author);
        if (!report.ok()) ++failures;
      }
      EXPECT_EQ(FaultRegistry::Global().FireCount(kFaultDurabilityWalAppend),
                1u);
    }
    EXPECT_EQ(failures, 1u);
    // Fault cleared: the engine keeps accepting operations.
    const check::CheckAnnotation& again = workload_.annotations.front();
    ASSERT_TRUE(engine.InsertAnnotation(again.text, again.focal, "r").ok());
    killed_state = StateLines(universe_.get(), &engine);
  }
  ExpectReopenRecovers(killed_state, config);
}

TEST_F(RecoveryFaultTest, TornTailPoisonsWriterUntilReopenTruncates) {
  const NebulaConfig config = DurableConfig();
  std::vector<std::string> killed_state;
  {
    NebulaEngine engine(&universe_->catalog, &universe_->store,
                        &universe_->meta, config);
    engine.RebuildAcg();
    ASSERT_TRUE(engine.OpenDurability().ok());
    FaultSpec spec;
    spec.skip_calls = 3;
    spec.max_fires = 1;
    ScopedFault fault(kFaultDurabilityWalTornTail, spec);
    size_t failures = 0;
    for (const check::CheckAnnotation& a : workload_.annotations) {
      if (!engine.InsertAnnotation(a.text, a.focal, a.author).ok()) {
        ++failures;
      }
    }
    // The torn write fails its operation AND poisons the writer: every
    // subsequent operation fails too (the on-disk tail is garbage; more
    // appends would be lost to recovery's stop-at-first-invalid scan).
    EXPECT_GT(failures, 1u);
    const check::CheckAnnotation& again = workload_.annotations.front();
    EXPECT_FALSE(engine.InsertAnnotation(again.text, again.focal, "r").ok());
    killed_state = StateLines(universe_.get(), &engine);
  }
  // Reopen: the torn tail is truncated away and the recovered state is
  // exactly what the poisoned engine still held in memory.
  auto universe = check::BuildCheckUniverse(31);
  ASSERT_TRUE(universe.ok());
  NebulaEngine engine(&(*universe)->catalog, &(*universe)->store,
                      &(*universe)->meta, config);
  ASSERT_TRUE(engine.OpenDurability().ok());
  EXPECT_TRUE(engine.recovery_info().recovered);
  EXPECT_TRUE(engine.recovery_info().tail_truncated);
  std::vector<std::string> lines;
  check::AppendStateLines((*universe)->store, engine, &lines);
  EXPECT_EQ(lines, killed_state);
  // And the reopened log accepts appends again.
  const check::CheckAnnotation& again = workload_.annotations.front();
  EXPECT_TRUE(engine.InsertAnnotation(again.text, again.focal, "r").ok());
}

TEST_F(RecoveryFaultTest, SnapshotFaultDegradesWalStaysAuthoritative) {
  const NebulaConfig config = DurableConfig(/*snapshot_every=*/1);
  std::vector<std::string> killed_state;
  {
    NebulaEngine engine(&universe_->catalog, &universe_->store,
                        &universe_->meta, config);
    engine.RebuildAcg();
    ASSERT_TRUE(engine.OpenDurability().ok());
    ScopedFault fault(kFaultDurabilitySnapshotWrite);
    for (const check::CheckAnnotation& a : workload_.annotations) {
      // Snapshot failure must never fail the triggering operation.
      const auto report = engine.InsertAnnotation(a.text, a.focal, a.author);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    }
    EXPECT_GT(
        FaultRegistry::Global().FireCount(kFaultDurabilitySnapshotWrite), 0u);
    ASSERT_NE(engine.durability(), nullptr);
    EXPECT_FALSE(engine.durability()->last_snapshot_status().ok());
    // Every cadence snapshot was refused: only the baseline (written at
    // open, before the fault armed) exists.
    EXPECT_EQ(engine.durability()->snapshots_written(), 1u);
    killed_state = StateLines(universe_.get(), &engine);
  }
  // The baseline snapshot plus the full (never truncated) WAL carry
  // everything.
  ExpectReopenRecovers(killed_state, config);
}

TEST_F(RecoveryFaultTest, PooledDurableBatchIngestRecoversExactly) {
  // Pool workers drive Stage 1/2 while the journaling chokepoint runs
  // stages 0/3 on the caller's thread — the interleaving a sanitizer
  // build race-checks. Results and recovery must match the sequential
  // contract exactly.
  NebulaConfig config = DurableConfig();
  config.num_threads = 3;
  std::vector<std::string> killed_state;
  {
    NebulaEngine engine(&universe_->catalog, &universe_->store,
                        &universe_->meta, config);
    engine.RebuildAcg();
    ASSERT_TRUE(engine.OpenDurability().ok());
    std::vector<AnnotationRequest> requests;
    for (const check::CheckAnnotation& a : workload_.annotations) {
      requests.push_back({a.text, a.focal, a.author});
    }
    const auto reports = engine.InsertAnnotations(requests);
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    killed_state = StateLines(universe_.get(), &engine);
  }
  ExpectReopenRecovers(killed_state, config);
}

/// Harness-level closure: for every crash mode, RunCrashCase's
/// recovered-equals-committed-prefix oracle holds at several sampled
/// skips (and over both snapshot cadences for the fault-free modes).
TEST_F(RecoveryFaultTest, CrashCasesRecoverAtEveryFaultPoint) {
  check::CrashOptions options;
  options.snapshot_every = 2;
  for (const check::CrashMode mode :
       {check::CrashMode::kCleanShutdown, check::CrashMode::kWalAppend,
        check::CrashMode::kWalTornTail, check::CrashMode::kSnapshotWrite}) {
    for (const uint64_t skip : {uint64_t{0}, uint64_t{7}}) {
      check::CrashSpec spec;
      spec.mode = mode;
      spec.skip = skip;
      const auto verdict = check::RunCrashCase(workload_, spec, options);
      ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
      EXPECT_FALSE(verdict->diverged)
          << check::CrashModeName(mode) << " skip=" << skip << ": "
          << verdict->detail;
    }
  }
}

}  // namespace
}  // namespace nebula
