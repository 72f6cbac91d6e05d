// Durability subsystem tests: WAL framing and torn-tail semantics,
// commit-unit encode/decode, meta serialization, snapshot protocol, and
// the snapshot+replay equivalence property — a durable engine killed
// without a final snapshot and reopened must reproduce its pre-kill
// state exactly, over random insert/verify/reject interleavings.
// Labeled "durability".

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "annotation/annotation_store.h"
#include "common/random.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/verification.h"
#include "durability/journal.h"
#include "durability/meta_serialize.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "meta/nebula_meta.h"
#include "testing/check_workload.h"
#include "testing/differential.h"

namespace nebula {
namespace {

namespace fs = std::filesystem;
using durability::CommitUnit;
using durability::JournalRecord;
using durability::MetaSerializer;
using durability::SnapshotInfo;
using durability::SyncMode;
using durability::TaskRecord;
using durability::WalReadResult;
using durability::WalWriter;

/// Fresh scratch directory per test, removed on teardown.
class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("nebula_durability_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string WalPath() const { return dir_ + "/wal.log"; }

  std::string dir_;
};

TEST_F(DurabilityTest, WalRoundTripsPayloads) {
  const std::vector<std::string> payloads = {
      "first", std::string(1, '\0') + "binary\tbytes\n", "", "last"};
  {
    auto writer = WalWriter::Open(WalPath(), SyncMode::kFlush);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const std::string& p : payloads) {
      ASSERT_TRUE((*writer)->Append(p).ok());
    }
    EXPECT_EQ((*writer)->appends(), payloads.size());
  }
  auto read = durability::ReadWal(WalPath());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->payloads, payloads);
  EXPECT_FALSE(read->tail_truncated);
  uint64_t expected_bytes = 0;
  for (const std::string& p : payloads) {
    expected_bytes += durability::kWalHeaderBytes + p.size();
  }
  EXPECT_EQ(read->valid_bytes, expected_bytes);
  EXPECT_EQ(fs::file_size(WalPath()), expected_bytes);
}

TEST_F(DurabilityTest, WalMissingFileIsNotFound) {
  const auto read = durability::ReadWal(dir_ + "/absent.log");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST_F(DurabilityTest, WalChecksumMismatchEndsReplayAtTheFlippedRecord) {
  const std::vector<std::string> payloads = {"alpha", "bravo", "charlie"};
  {
    auto writer = WalWriter::Open(WalPath(), SyncMode::kFlush);
    ASSERT_TRUE(writer.ok());
    for (const std::string& p : payloads) {
      ASSERT_TRUE((*writer)->Append(p).ok());
    }
  }
  // Flip one payload byte of the SECOND record: everything from that
  // record on is rejected, the first record survives.
  const uint64_t second_payload_off =
      durability::kWalHeaderBytes + payloads[0].size() +
      durability::kWalHeaderBytes;
  {
    std::fstream f(WalPath(), std::ios::in | std::ios::out |
                                  std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(second_payload_off));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(second_payload_off));
    f.put(static_cast<char>(c ^ 0x40));
  }
  auto read = durability::ReadWal(WalPath());
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->payloads.size(), 1u);
  EXPECT_EQ(read->payloads[0], "alpha");
  EXPECT_TRUE(read->tail_truncated);
  EXPECT_EQ(read->valid_bytes,
            durability::kWalHeaderBytes + payloads[0].size());
}

TEST_F(DurabilityTest, WalTornFinalFrameIsDroppedNotFatal) {
  {
    auto writer = WalWriter::Open(WalPath(), SyncMode::kFlush);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("committed-one").ok());
    ASSERT_TRUE((*writer)->Append("committed-two").ok());
  }
  const uint64_t intact_bytes = fs::file_size(WalPath());
  // Simulate a crash mid-write: a frame header promising more bytes than
  // the file holds.
  {
    std::ofstream f(WalPath(), std::ios::binary | std::ios::app);
    const char torn[] = {char(0x40), 0, 0, 0, char(0xde), char(0xad)};
    f.write(torn, sizeof(torn));
  }
  auto read = durability::ReadWal(WalPath());
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->payloads.size(), 2u);
  EXPECT_EQ(read->payloads[1], "committed-two");
  EXPECT_TRUE(read->tail_truncated);
  EXPECT_EQ(read->valid_bytes, intact_bytes);
}

TEST_F(DurabilityTest, WalTruncateEmptiesTheLog) {
  auto writer = WalWriter::Open(WalPath(), SyncMode::kFlush);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("soon superseded").ok());
  ASSERT_TRUE((*writer)->Truncate().ok());
  ASSERT_TRUE((*writer)->Append("after truncate").ok());
  auto read = durability::ReadWal(WalPath());
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->payloads.size(), 1u);
  EXPECT_EQ(read->payloads[0], "after truncate");
}

TEST_F(DurabilityTest, CommitUnitEncodeDecodeRoundTripsEveryKind) {
  CommitUnit unit;
  unit.seq = 42;
  unit.flags = durability::kOpStart | durability::kOpEnd;
  {
    JournalRecord r;
    r.kind = JournalRecord::Kind::kAnnotation;
    r.id = 7;
    r.author = "dr\tstrange\nlove";
    r.text = "binds\tGRB2 with\nhigh affinity";
    unit.records.push_back(r);
  }
  {
    JournalRecord r;
    r.kind = JournalRecord::Kind::kAttach;
    r.annotation = 7;
    r.table_id = 3;
    r.row = 91;
    r.is_true = false;
    r.weight = 0.1;  // not exactly representable: %.17g must round-trip
    unit.records.push_back(r);
  }
  {
    JournalRecord r;
    r.kind = JournalRecord::Kind::kDetach;
    r.annotation = 7;
    r.table_id = 1;
    r.row = 2;
    unit.records.push_back(r);
  }
  {
    JournalRecord r;
    r.kind = JournalRecord::Kind::kPromote;
    r.annotation = 7;
    r.table_id = 0;
    r.row = 15;
    unit.records.push_back(r);
  }
  {
    JournalRecord r;
    r.kind = JournalRecord::Kind::kTask;
    r.id = 5;
    r.annotation = 7;
    r.table_id = 2;
    r.row = 30;
    r.weight = 1e-300;
    r.text = "AUTO_ACCEPTED";
    r.evidence = {"name match", "pattern\tmatch", ""};
    unit.records.push_back(r);
  }
  {
    JournalRecord r;
    r.kind = JournalRecord::Kind::kDecision;
    r.id = 5;
    r.is_true = true;
    unit.records.push_back(r);
  }
  {
    JournalRecord r;
    r.kind = JournalRecord::Kind::kMetaBlob;
    r.text = "nebula-meta\t1\t9\nconcept fake\n";
    unit.records.push_back(r);
  }

  const std::string payload = durability::EncodeUnit(unit);
  auto decoded = durability::DecodeUnit(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->seq, unit.seq);
  EXPECT_EQ(decoded->flags, unit.flags);
  ASSERT_EQ(decoded->records.size(), unit.records.size());
  for (size_t i = 0; i < unit.records.size(); ++i) {
    const JournalRecord& a = unit.records[i];
    const JournalRecord& b = decoded->records[i];
    EXPECT_EQ(b.kind, a.kind) << "record " << i;
    EXPECT_EQ(b.id, a.id);
    EXPECT_EQ(b.annotation, a.annotation);
    EXPECT_EQ(b.table_id, a.table_id);
    EXPECT_EQ(b.row, a.row);
    EXPECT_EQ(b.is_true, a.is_true);
    EXPECT_EQ(b.weight, a.weight);
    EXPECT_EQ(b.text, a.text);
    EXPECT_EQ(b.author, a.author);
    EXPECT_EQ(b.evidence, a.evidence);
  }
}

TEST_F(DurabilityTest, DecodeUnitRejectsMalformedPayloads) {
  EXPECT_FALSE(durability::DecodeUnit("").ok());
  EXPECT_FALSE(durability::DecodeUnit("not-a-unit").ok());
  EXPECT_FALSE(durability::DecodeUnit("u\tnotanumber\t3").ok());
  EXPECT_FALSE(durability::DecodeUnit("u\t1\t99").ok());  // bad flags
  // Unknown record tag.
  EXPECT_FALSE(durability::DecodeUnit("u\t1\t1\nz\t1").ok());
  // kAttach with wrong arity.
  EXPECT_FALSE(durability::DecodeUnit("u\t1\t1\nt\t1\t2").ok());
  // A valid encode must survive its own decode (baseline sanity).
  CommitUnit unit;
  unit.seq = 1;
  unit.flags = durability::kOpEnd;
  EXPECT_TRUE(durability::DecodeUnit(durability::EncodeUnit(unit)).ok());
}

TEST_F(DurabilityTest, MetaSerializerRoundTripsACheckUniverseMeta) {
  auto universe = check::BuildCheckUniverse(17);
  ASSERT_TRUE(universe.ok());
  const NebulaMeta& meta = (*universe)->meta;
  const std::string blob = MetaSerializer::SaveToString(meta);
  ASSERT_FALSE(blob.empty());

  NebulaMeta loaded(meta.lexicon());
  ASSERT_TRUE(MetaSerializer::LoadFromString(blob, &loaded).ok());
  EXPECT_EQ(loaded.version(), meta.version());
  // Canonical encoding: identical metadata must re-serialize to the
  // identical blob (this is what snapshot/WAL equality tests key on).
  EXPECT_EQ(MetaSerializer::SaveToString(loaded), blob);

  // A non-fresh target is a programming error, reported not asserted.
  EXPECT_FALSE(MetaSerializer::LoadFromString(blob, &loaded).ok());
}

TEST_F(DurabilityTest, SnapshotWriteLoadRoundTrip) {
  auto universe = check::BuildCheckUniverse(9);
  ASSERT_TRUE(universe.ok());
  SnapshotInfo info;
  info.seq = 12;
  info.committed_ops = 5;
  TaskRecord task;
  task.vid = 0;
  task.annotation = 3;
  task.table_id = 1;
  task.row = 8;
  task.confidence = 0.625;
  task.state = "PENDING";
  task.evidence = {"exact name", "sample"};
  info.tasks.push_back(task);
  ASSERT_TRUE(durability::WriteSnapshot(dir_, info, (*universe)->store,
                                        (*universe)->meta)
                  .ok());

  AnnotationStore store;
  NebulaMeta meta((*universe)->meta.lexicon());
  auto loaded = durability::LoadCurrentSnapshot(dir_, &store, &meta);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->seq, info.seq);
  EXPECT_EQ(loaded->committed_ops, info.committed_ops);
  EXPECT_FALSE(loaded->partial_op);
  ASSERT_EQ(loaded->tasks.size(), 1u);
  EXPECT_EQ(loaded->tasks[0].vid, task.vid);
  EXPECT_EQ(loaded->tasks[0].confidence, task.confidence);
  EXPECT_EQ(loaded->tasks[0].state, task.state);
  EXPECT_EQ(loaded->tasks[0].evidence, task.evidence);

  ASSERT_EQ(store.num_annotations(), (*universe)->store.num_annotations());
  const auto original = (*universe)->store.AllAttachments();
  const auto recovered = store.AllAttachments();
  ASSERT_EQ(recovered.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(recovered[i].annotation, original[i].annotation);
    EXPECT_EQ(recovered[i].tuple, original[i].tuple);
    EXPECT_EQ(recovered[i].type, original[i].type);
    EXPECT_EQ(recovered[i].weight, original[i].weight);
  }
  EXPECT_EQ(MetaSerializer::SaveToString(meta),
            MetaSerializer::SaveToString((*universe)->meta));
}

TEST_F(DurabilityTest, SnapshotSupersedesAndGarbageCollects) {
  auto universe = check::BuildCheckUniverse(9);
  ASSERT_TRUE(universe.ok());
  SnapshotInfo info;
  info.seq = 1;
  ASSERT_TRUE(durability::WriteSnapshot(dir_, info, (*universe)->store,
                                        (*universe)->meta)
                  .ok());
  info.seq = 2;
  info.committed_ops = 1;
  ASSERT_TRUE(durability::WriteSnapshot(dir_, info, (*universe)->store,
                                        (*universe)->meta)
                  .ok());
  EXPECT_TRUE(fs::exists(dir_ + "/snapshot-2"));
  EXPECT_FALSE(fs::exists(dir_ + "/snapshot-1"));
  AnnotationStore store;
  NebulaMeta meta((*universe)->meta.lexicon());
  auto loaded = durability::LoadCurrentSnapshot(dir_, &store, &meta);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->seq, 2u);
  EXPECT_EQ(loaded->committed_ops, 1u);
}

TEST_F(DurabilityTest, LoadFromEmptyDirIsNotFound) {
  AnnotationStore store;
  NebulaMeta meta;
  const auto loaded = durability::LoadCurrentSnapshot(dir_, &store, &meta);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(DurabilityTest, EngineFreshOpenThenIdleReopenRecoversBaseline) {
  NebulaConfig config;
  config.event_capacity = 0;
  config.durability_dir = dir_;
  std::vector<std::string> before;
  {
    auto universe = check::BuildCheckUniverse(4);
    ASSERT_TRUE(universe.ok());
    NebulaEngine engine(&(*universe)->catalog, &(*universe)->store,
                        &(*universe)->meta, config);
    engine.RebuildAcg();
    ASSERT_TRUE(engine.OpenDurability().ok());
    EXPECT_FALSE(engine.recovery_info().recovered);
    EXPECT_TRUE(fs::exists(dir_ + "/CURRENT"));
    check::AppendStateLines((*universe)->store, engine, &before);
  }
  auto universe = check::BuildCheckUniverse(4);
  ASSERT_TRUE(universe.ok());
  NebulaEngine engine(&(*universe)->catalog, &(*universe)->store,
                      &(*universe)->meta, config);
  ASSERT_TRUE(engine.OpenDurability().ok());
  EXPECT_TRUE(engine.recovery_info().recovered);
  EXPECT_EQ(engine.recovery_info().committed_ops, 0u);
  EXPECT_FALSE(engine.recovery_info().partial_op);
  std::vector<std::string> after;
  check::AppendStateLines((*universe)->store, engine, &after);
  EXPECT_EQ(after, before);
}

TEST_F(DurabilityTest, EngineOpenRejectsWalWithoutSnapshot) {
  {
    auto writer = WalWriter::Open(WalPath(), SyncMode::kFlush);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("orphan").ok());
  }
  auto universe = check::BuildCheckUniverse(4);
  ASSERT_TRUE(universe.ok());
  NebulaConfig config;
  config.durability_dir = dir_;
  NebulaEngine engine(&(*universe)->catalog, &(*universe)->store,
                      &(*universe)->meta, config);
  engine.RebuildAcg();
  const Status status = engine.OpenDurability();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

/// The tentpole property: over random interleavings of inserts and
/// expert verify/reject decisions, at every snapshot cadence (every op,
/// every third op, WAL-only), killing the engine without a final
/// snapshot and reopening must reproduce the exact pre-kill state —
/// attachments, tasks (vids, confidences, states), and ACG fingerprint.
TEST_F(DurabilityTest, SnapshotPlusReplayEquivalenceOverInterleavings) {
  for (const uint64_t seed : {21u, 22u, 23u}) {
    for (const size_t snapshot_every : {size_t{1}, size_t{3}, size_t{0}}) {
      const std::string case_dir =
          dir_ + "/case_" + std::to_string(seed) + "_" +
          std::to_string(snapshot_every);
      NebulaConfig config;
      config.event_capacity = 0;
      config.durability_dir = case_dir;
      config.snapshot_every_n = snapshot_every;

      std::vector<std::string> before;
      {
        auto universe = check::BuildCheckUniverse(seed);
        ASSERT_TRUE(universe.ok());
        const check::CheckWorkload workload =
            check::GenerateCheckWorkload(seed, **universe);
        NebulaEngine engine(&(*universe)->catalog, &(*universe)->store,
                            &(*universe)->meta, config);
        engine.RebuildAcg();
        ASSERT_TRUE(engine.OpenDurability().ok());
        Rng rng(seed * 977);
        for (const check::CheckAnnotation& a : workload.annotations) {
          auto report = engine.InsertAnnotation(a.text, a.focal, a.author);
          ASSERT_TRUE(report.ok()) << report.status().ToString();
          // Randomly interleave expert decisions over pending tasks.
          for (const VerificationTask& task :
               engine.verification().tasks()) {
            if (task.state != TaskState::kPending) continue;
            const uint64_t draw = rng.Uniform(4);
            if (draw == 0) {
              ASSERT_TRUE(engine.verification().Verify(task.vid).ok());
            } else if (draw == 1) {
              ASSERT_TRUE(engine.verification().Reject(task.vid).ok());
            }
          }
        }
        engine.RebuildAcg();
        check::AppendStateLines((*universe)->store, engine, &before);
        // Engine destroyed here WITHOUT a final snapshot: whatever the
        // cadence left in the WAL must carry the rest.
      }

      auto universe = check::BuildCheckUniverse(seed);
      ASSERT_TRUE(universe.ok());
      NebulaEngine engine(&(*universe)->catalog, &(*universe)->store,
                          &(*universe)->meta, config);
      ASSERT_TRUE(engine.OpenDurability().ok());
      EXPECT_TRUE(engine.recovery_info().recovered);
      EXPECT_FALSE(engine.recovery_info().partial_op);
      std::vector<std::string> after;
      check::AppendStateLines((*universe)->store, engine, &after);
      EXPECT_EQ(after, before)
          << "seed=" << seed << " snapshot_every=" << snapshot_every;
      if (snapshot_every == 0) {
        // WAL-only: nothing beyond the baseline snapshot was written.
        EXPECT_EQ(engine.recovery_info().snapshot_seq, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace nebula
