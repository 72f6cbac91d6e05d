// NebulaCheck harness tests: the generator is deterministic, a sweep over
// all config pairs is divergence-free, and the harness catches,
// shrinks, and replays a deliberately injected bug. Labeled "check".

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "common/status.h"
#include "core/engine.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "testing/check_runner.h"
#include "testing/check_workload.h"
#include "testing/crash.h"
#include "testing/differential.h"
#include "testing/shrink.h"

namespace nebula {
namespace {

using check::CheckAnnotation;
using check::CheckOptions;
using check::CheckUniverse;
using check::CheckWorkload;
using check::ConfigPair;
using check::DifferentialRunner;
using check::DiffOptions;
using check::Divergence;
using check::ReproCase;
using check::RunOutcome;

TEST(CheckWorkloadTest, UniverseIsDeterministic) {
  auto a = check::BuildCheckUniverse(11);
  auto b = check::BuildCheckUniverse(11);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ((*a)->catalog.num_tables(), (*b)->catalog.num_tables());
  for (size_t t = 0; t < (*a)->catalog.num_tables(); ++t) {
    const Table* ta = (*a)->catalog.GetTableById(static_cast<uint32_t>(t));
    const Table* tb = (*b)->catalog.GetTableById(static_cast<uint32_t>(t));
    ASSERT_EQ(ta->num_rows(), tb->num_rows());
    for (uint64_t r = 0; r < ta->num_rows(); ++r) {
      for (size_t c = 0; c < ta->schema().num_columns(); ++c) {
        ASSERT_EQ(ta->GetCell(r, c), tb->GetCell(r, c));
      }
    }
  }
  EXPECT_EQ((*a)->store.num_annotations(), (*b)->store.num_annotations());
  EXPECT_EQ((*a)->store.num_attachments(), (*b)->store.num_attachments());
  EXPECT_EQ((*a)->corpus_tuples, (*b)->corpus_tuples);

  const CheckWorkload wa = check::GenerateCheckWorkload(11, **a);
  const CheckWorkload wb = check::GenerateCheckWorkload(11, **b);
  ASSERT_EQ(wa.annotations.size(), wb.annotations.size());
  for (size_t i = 0; i < wa.annotations.size(); ++i) {
    EXPECT_EQ(wa.annotations[i].text, wb.annotations[i].text);
    EXPECT_EQ(wa.annotations[i].focal, wb.annotations[i].focal);
  }
  // Different seeds give different universes (sanity, not certainty —
  // but these two do differ).
  auto c = check::BuildCheckUniverse(12);
  ASSERT_TRUE(c.ok());
  const CheckWorkload wc = check::GenerateCheckWorkload(12, **c);
  EXPECT_NE(wa.annotations.front().text, wc.annotations.front().text);
}

TEST(CheckWorkloadTest, StreamReferencesRealTuplesWithFocal) {
  auto universe = check::BuildCheckUniverse(3);
  ASSERT_TRUE(universe.ok());
  const CheckWorkload workload = check::GenerateCheckWorkload(3, **universe);
  ASSERT_FALSE(workload.annotations.empty());
  for (const CheckAnnotation& a : workload.annotations) {
    EXPECT_FALSE(a.text.empty());
    ASSERT_FALSE(a.focal.empty());
    for (const TupleId& t : a.focal) {
      const Table* table = (*universe)->catalog.GetTableById(t.table_id);
      ASSERT_NE(table, nullptr);
      EXPECT_LT(t.row, table->num_rows());
    }
  }
}

TEST(DifferentialTest, RunIsReproducible) {
  const DifferentialRunner runner;
  auto universe = check::BuildCheckUniverse(5);
  ASSERT_TRUE(universe.ok());
  const CheckWorkload workload = check::GenerateCheckWorkload(5, **universe);
  const NebulaConfig config = runner.BaseConfig(5);
  auto a = runner.Run(workload, config, /*batch_mode=*/false,
                      /*exercise_obs=*/false);
  auto b = runner.Run(workload, config, /*batch_mode=*/false,
                      /*exercise_obs=*/false);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->lines, b->lines);
  EXPECT_EQ(a->Digest(), b->Digest());
  // The transcript ends with the engine's ExecStats totals.
  EXPECT_EQ(a->lines.back().rfind("stats rows=", 0), 0u) << a->lines.back();
}

TEST(DifferentialTest, SweepAllPairsDivergenceFree) {
  CheckOptions options;
  options.start_seed = 1;
  options.num_seeds = 8;
  options.shrink = false;
  std::ostringstream log;
  const auto summary = check::RunCheckSweep(options, log);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->pair_runs, 8u * std::size(check::kAllConfigPairs));
  EXPECT_EQ(summary->divergences, 0u) << log.str();
  EXPECT_EQ(summary->run_errors, 0u) << log.str();
}

/// End-to-end harness self-test: an injected config bug must be caught,
/// shrunk to a smaller stream that still reproduces, saved to a repro
/// file, loaded back, and replayed to the same verdict.
TEST(DifferentialTest, InjectedBugIsCaughtShrunkAndReplayable) {
  DiffOptions options;
  options.inject_bug = true;
  const DifferentialRunner runner(options);

  uint64_t bug_seed = 0;
  CheckWorkload failing;
  for (uint64_t seed = 1; seed <= 10 && bug_seed == 0; ++seed) {
    auto universe = check::BuildCheckUniverse(seed);
    ASSERT_TRUE(universe.ok());
    CheckWorkload workload = check::GenerateCheckWorkload(seed, **universe);
    const auto verdict = runner.RunPair(ConfigPair::kThreads, workload);
    ASSERT_TRUE(verdict.ok());
    if (verdict->diverged) {
      bug_seed = seed;
      failing = std::move(workload);
    }
  }
  ASSERT_NE(bug_seed, 0u)
      << "the injected bug diverged on none of 10 seeds";

  auto still_fails = [&](const std::vector<CheckAnnotation>& stream) {
    CheckWorkload candidate;
    candidate.seed = bug_seed;
    candidate.annotations = stream;
    const auto verdict = runner.RunPair(ConfigPair::kThreads, candidate);
    return verdict.ok() && verdict->diverged;
  };
  check::ShrinkStats stats;
  const std::vector<CheckAnnotation> shrunk = check::ShrinkAnnotations(
      failing.annotations, still_fails, /*max_evaluations=*/150, &stats);
  ASSERT_FALSE(shrunk.empty());
  EXPECT_LE(shrunk.size(), failing.annotations.size());
  EXPECT_TRUE(still_fails(shrunk));
  EXPECT_GT(stats.evaluations, 0u);

  ReproCase repro;
  repro.seed = bug_seed;
  repro.pair = ConfigPair::kThreads;
  repro.inject_bug = true;
  repro.annotations = shrunk;
  const std::string path =
      (std::filesystem::temp_directory_path() / "nebula_check_repro_ut.txt")
          .string();
  ASSERT_TRUE(check::SaveRepro(path, repro).ok());
  auto loaded = check::LoadRepro(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->seed, repro.seed);
  EXPECT_EQ(loaded->pair, repro.pair);
  EXPECT_EQ(loaded->inject_bug, true);
  ASSERT_EQ(loaded->annotations.size(), shrunk.size());
  for (size_t i = 0; i < shrunk.size(); ++i) {
    EXPECT_EQ(loaded->annotations[i].text, shrunk[i].text);
    EXPECT_EQ(loaded->annotations[i].focal, shrunk[i].focal);
    EXPECT_EQ(loaded->annotations[i].author, shrunk[i].author);
  }
  const auto replay = check::ReplayRepro(*loaded);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->diverged);
  std::remove(path.c_str());

  // Without the bug the same workload is clean — the divergence really
  // came from the injected mis-configuration.
  const DifferentialRunner clean;
  const auto verdict = clean.RunPair(ConfigPair::kThreads, failing);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict->diverged) << verdict->detail;
}

TEST(CrashSweepTest, SweepIsDivergenceFreeOverSeeds) {
  check::CrashOptions options;
  options.start_seed = 1;
  options.num_seeds = 3;
  options.shrink = false;
  const auto summary = check::RunCrashSweep(options);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->seeds_run, 3u);
  // Each seed runs one clean-shutdown case plus one sampled-fault case.
  EXPECT_EQ(summary->cases_run, 6u);
  EXPECT_EQ(summary->divergences, 0u) << summary->first_detail;
}

/// End-to-end crash-harness self-test: the planted replay bug (a 1e-9
/// confidence perturbation applied while replaying WAL task records) must
/// be caught by the sweep, shrunk, saved as a crash repro, loaded back,
/// and replayed to the same verdict — and must vanish when the bug is
/// disarmed.
TEST(CrashSweepTest, PlantedReplayBugIsCaughtShrunkAndReplayable) {
  const std::string repro_dir =
      (std::filesystem::temp_directory_path() / "nebula_crash_repro_ut")
          .string();
  std::filesystem::remove_all(repro_dir);
  std::filesystem::create_directories(repro_dir);

  check::CrashOptions options;
  options.start_seed = 1;
  options.num_seeds = 4;
  // The bug only perturbs records replayed from the WAL, so keep the
  // whole history there: no cadence snapshots.
  options.snapshot_every = 0;
  options.inject_replay_bug = true;
  options.repro_dir = repro_dir;
  const auto summary = check::RunCrashSweep(options);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  ASSERT_GT(summary->divergences, 0u)
      << "the planted replay bug diverged on none of 4 seeds";
  ASSERT_FALSE(summary->repro_paths.empty());
  EXPECT_NE(summary->first_detail.find("task"), std::string::npos)
      << summary->first_detail;

  auto loaded = check::LoadRepro(summary->repro_paths.front());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->crash);
  EXPECT_EQ(loaded->snapshot_every, 0u);
  EXPECT_TRUE(loaded->replay_bug);
  ASSERT_FALSE(loaded->annotations.empty());

  const auto replay = check::ReplayRepro(*loaded);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->diverged);

  // Disarm the bug: the very same crash case must be clean — the
  // divergence really came from the perturbed replay, not the harness.
  check::ReproCase fixed = *loaded;
  fixed.replay_bug = false;
  const auto clean = check::ReplayRepro(fixed);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_FALSE(clean->diverged) << clean->detail;

  std::filesystem::remove_all(repro_dir);
}

TEST(CrashSweepTest, CrashReproSurvivesSaveLoadRoundTrip) {
  ReproCase repro;
  repro.seed = 77;
  repro.crash = true;
  repro.crash_mode = check::CrashMode::kWalTornTail;
  repro.crash_skip = 13;
  repro.snapshot_every = 3;
  repro.replay_bug = true;
  CheckAnnotation a;
  a.author = "reviewer";
  a.text = "kinase observed in assay";
  repro.annotations.push_back(a);
  const std::string path =
      (std::filesystem::temp_directory_path() / "nebula_crash_repro_rt.txt")
          .string();
  ASSERT_TRUE(check::SaveRepro(path, repro).ok());
  auto loaded = check::LoadRepro(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->seed, 77u);
  EXPECT_TRUE(loaded->crash);
  EXPECT_EQ(loaded->crash_mode, check::CrashMode::kWalTornTail);
  EXPECT_EQ(loaded->crash_skip, 13u);
  EXPECT_EQ(loaded->snapshot_every, 3u);
  EXPECT_TRUE(loaded->replay_bug);
  ASSERT_EQ(loaded->annotations.size(), 1u);
  EXPECT_EQ(loaded->annotations[0].text, a.text);
  std::remove(path.c_str());
}

// Every number a repro file carries is read whole and in range: an
// overflowing or trailing-garbage field is InvalidArgument, never clamped
// or truncated (a focal table id of 2^32 + 1 used to become table 1).
TEST(ReproFileTest, MalformedNumericFieldsAreInvalidArgument) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "nebula_repro_fields.txt")
          .string();
  const auto load = [&path](const std::string& body) {
    std::ofstream(path) << "pair threads\n" << body;
    return check::LoadRepro(path);
  };
  const char* const bad[] = {
      "seed 18446744073709551616\n",
      "seed 12x\n",
      "seed -1\n",
      "threads 65\n",
      "threads abc\n",
      "crash clean 18446744073709551616\n",
      "crash clean 1x\n",
      "snapshot_every 99999999999999999999\n",
      "annotation a|4294967297:0|text\n",
      "annotation a|0:18446744073709551616|text\n",
      "annotation a|0:1:2|text\n",
      "annotation a|0:|text\n",
  };
  for (const char* body : bad) {
    const auto loaded = load(body);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << body;
  }

  // The largest accepted values load exactly.
  const auto loaded = load(
      "seed 18446744073709551615\nthreads 64\n"
      "annotation a|4294967295:18446744073709551615|text\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->seed, UINT64_MAX);
  EXPECT_EQ(loaded->num_threads, check::kMaxCheckThreads);
  ASSERT_EQ(loaded->annotations.size(), 1u);
  ASSERT_EQ(loaded->annotations[0].focal.size(), 1u);
  EXPECT_EQ(loaded->annotations[0].focal[0],
            (TupleId{UINT32_MAX, UINT64_MAX}));
  std::remove(path.c_str());
}

TEST(CrashSweepTest, ParseCrashModeRoundTrips) {
  for (const check::CrashMode mode :
       {check::CrashMode::kCleanShutdown, check::CrashMode::kWalAppend,
        check::CrashMode::kWalTornTail, check::CrashMode::kSnapshotWrite}) {
    const auto parsed = check::ParseCrashMode(check::CrashModeName(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), mode);
  }
  EXPECT_FALSE(check::ParseCrashMode("bogus").ok());
}

TEST(DifferentialTest, ParseConfigPairRoundTrips) {
  for (ConfigPair pair : check::kAllConfigPairs) {
    const auto parsed = check::ParseConfigPair(check::ConfigPairName(pair));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), pair);
  }
  EXPECT_FALSE(check::ParseConfigPair("bogus").ok());
}

}  // namespace
}  // namespace nebula
