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
#include "annotation/verification_task.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/verification.h"
#include "durability/journal.h"
#include "durability/manager.h"
#include "durability/meta_serialize.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "meta/nebula_meta.h"
#include "storage/schema.h"
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

  /// Hand-builds a durability directory `name` under dir_: a snapshot of
  /// check universe 9 carrying `image`, then a WAL of `units` (sequence
  /// numbers assigned from 1). Returns the directory.
  std::string WriteHandBuiltDir(const std::string& name,
                                const TaskImage& image,
                                std::vector<CommitUnit> units = {}) {
    const std::string dir = dir_ + "/" + name;
    auto universe = check::BuildCheckUniverse(9);
    EXPECT_TRUE(universe.ok());
    EXPECT_TRUE(durability::WriteSnapshot(dir, SnapshotInfo{},
                                          (*universe)->store,
                                          (*universe)->meta, image)
                    .ok());
    if (!units.empty()) {
      auto writer = WalWriter::Open(dir + "/wal.log", SyncMode::kFlush);
      EXPECT_TRUE(writer.ok());
      for (size_t i = 0; i < units.size(); ++i) {
        units[i].seq = i + 1;
        EXPECT_TRUE((*writer)->Append(durability::EncodeUnit(units[i])).ok());
      }
    }
    return dir;
  }

  /// Recovers `dir` through Manager::Open; the replayed image lands in
  /// `*recovered`.
  static Status Replay(const std::string& dir, TaskImage* recovered) {
    auto universe = check::BuildCheckUniverse(9);
    if (!universe.ok()) return universe.status();
    AnnotationStore store;
    NebulaMeta meta((*universe)->meta.lexicon());
    const TaskImage live;
    durability::Manager::Options options;
    options.dir = dir;
    auto manager =
        durability::Manager::Open(options, &store, &meta, &live, recovered);
    return manager.status();
  }

  std::string dir_;
};

VerificationTask Task(uint64_t vid, TaskState state) {
  VerificationTask t;
  t.vid = vid;
  t.tuple = TupleId{0, vid + 1};
  t.confidence = 0.5;
  t.state = state;
  return t;
}

/// One kOpEnd commit unit of `records`.
CommitUnit Unit(std::vector<JournalRecord> records) {
  CommitUnit unit;
  unit.flags = durability::kOpEnd;
  unit.records = std::move(records);
  return unit;
}

JournalRecord TaskRec(uint64_t vid, TaskState state) {
  JournalRecord r;
  r.kind = JournalRecord::Kind::kTask;
  r.task = Task(vid, state);
  return r;
}

JournalRecord RejectedRec(uint64_t next_vid, uint64_t count) {
  JournalRecord r;
  r.kind = JournalRecord::Kind::kRejected;
  r.id = next_vid;
  r.count = count;
  return r;
}

JournalRecord DecisionRec(uint64_t vid, bool accepted) {
  JournalRecord r;
  r.kind = JournalRecord::Kind::kDecision;
  r.id = vid;
  r.is_true = accepted;
  return r;
}

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
    r.tuple = TupleId{3, 91};
    r.is_true = false;
    r.weight = 0.1;  // not exactly representable: %.17g must round-trip
    unit.records.push_back(r);
  }
  {
    JournalRecord r;
    r.kind = JournalRecord::Kind::kDetach;
    r.annotation = 7;
    r.tuple = TupleId{1, 2};
    unit.records.push_back(r);
  }
  {
    JournalRecord r;
    r.kind = JournalRecord::Kind::kPromote;
    r.annotation = 7;
    r.tuple = TupleId{0, 15};
    unit.records.push_back(r);
  }
  {
    JournalRecord r;
    r.kind = JournalRecord::Kind::kTask;
    r.task.vid = 5;
    r.task.annotation = 7;
    r.task.tuple = TupleId{2, 30};
    r.task.confidence = 1e-300;
    r.task.state = TaskState::kAutoAccepted;
    r.task.evidence = {"name match", "pattern\tmatch", ""};
    unit.records.push_back(r);
  }
  {
    JournalRecord r;
    r.kind = JournalRecord::Kind::kRejected;
    r.id = 9;
    r.count = 3;
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
    EXPECT_EQ(b.tuple, a.tuple);
    EXPECT_EQ(b.count, a.count);
    EXPECT_EQ(b.is_true, a.is_true);
    EXPECT_EQ(b.weight, a.weight);
    EXPECT_EQ(b.text, a.text);
    EXPECT_EQ(b.author, a.author);
    EXPECT_EQ(b.task.vid, a.task.vid);
    EXPECT_EQ(b.task.annotation, a.task.annotation);
    EXPECT_EQ(b.task.tuple, a.task.tuple);
    EXPECT_EQ(b.task.confidence, a.task.confidence);
    EXPECT_EQ(b.task.state, a.task.state);
    EXPECT_EQ(b.task.evidence, a.task.evidence);
  }
}

/// One unit holding every record kind, with escapes, "%.17g" edge values
/// and evidence with a tab and an empty term.
CommitUnit GoldenUnit() {
  CommitUnit unit;
  unit.seq = 42;
  unit.flags = durability::kOpStart | durability::kOpEnd;
  JournalRecord a;
  a.kind = JournalRecord::Kind::kAnnotation;
  a.id = 7;
  a.author = "dr\tstrange\nlove";
  a.text = "binds\tGRB2\\SH2 with\r\nhigh affinity";
  JournalRecord predicted;
  predicted.kind = JournalRecord::Kind::kAttach;
  predicted.annotation = 7;
  predicted.tuple = TupleId{3, 91};
  predicted.is_true = false;
  predicted.weight = 0.1;
  JournalRecord focal;
  focal.kind = JournalRecord::Kind::kAttach;
  focal.annotation = 7;
  focal.tuple = TupleId{4294967295u, 18446744073709551615u};
  JournalRecord detach;
  detach.kind = JournalRecord::Kind::kDetach;
  detach.annotation = 7;
  detach.tuple = TupleId{1, 2};
  JournalRecord promote;
  promote.kind = JournalRecord::Kind::kPromote;
  promote.annotation = 7;
  promote.tuple = TupleId{0, 15};
  JournalRecord accepted;
  accepted.kind = JournalRecord::Kind::kTask;
  accepted.task.vid = 5;
  accepted.task.annotation = 7;
  accepted.task.tuple = TupleId{2, 30};
  accepted.task.confidence = 1.0 / 3.0;
  accepted.task.state = TaskState::kAutoAccepted;
  accepted.task.evidence = {"name match", "pattern\tmatch", ""};
  JournalRecord pending;
  pending.kind = JournalRecord::Kind::kTask;
  pending.task.vid = 8;
  pending.task.annotation = 7;
  pending.task.tuple = TupleId{0, 0};
  pending.task.confidence = 4.9e-324;
  JournalRecord rejected;
  rejected.kind = JournalRecord::Kind::kRejected;
  rejected.id = 9;
  rejected.count = 3;
  JournalRecord verified;
  verified.kind = JournalRecord::Kind::kDecision;
  verified.id = 5;
  JournalRecord refused;
  refused.kind = JournalRecord::Kind::kDecision;
  refused.id = 8;
  refused.is_true = false;
  JournalRecord blob;
  blob.kind = JournalRecord::Kind::kMetaBlob;
  blob.text = "nebula-meta\t1\t9\nconcept fake\n";
  unit.records = {a,        predicted, focal,   detach,  promote, accepted,
                  pending,  rejected,  verified, refused, blob};
  return unit;
}

TEST_F(DurabilityTest, EncodeUnitBytesAreGolden) {
  const std::string golden =
      "u\t42\t3\n"
      "a\t7\tdr\\tstrange\\nlove\tbinds\\tGRB2\\\\SH2 with\\r\\nhigh affinity\n"
      "t\t7\t3\t91\tP\t0.10000000000000001\n"
      "t\t7\t4294967295\t18446744073709551615\tT\t1\n"
      "d\t7\t1\t2\n"
      "p\t7\t0\t15\n"
      "v\t5\t7\t2\t30\t0.33333333333333331\tAUTO_ACCEPTED\tname match\t"
      "pattern\\tmatch\t\n"
      "v\t8\t7\t0\t0\t4.9406564584124654e-324\tPENDING\n"
      "r\t9\t3\n"
      "x\t5\t1\n"
      "x\t8\t0\n"
      "m\tnebula-meta\\t1\\t9\\nconcept fake\\n\n";
  EXPECT_EQ(durability::EncodeUnit(GoldenUnit()), golden);
  const auto decoded = durability::DecodeUnit(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(durability::EncodeUnit(*decoded), golden);
}

TEST_F(DurabilityTest, SnapshotTaskFileBytesAreGolden) {
  auto universe = check::BuildCheckUniverse(9);
  ASSERT_TRUE(universe.ok());
  TaskImage image;
  image.next_vid = 9;
  image.auto_rejected = 6;
  VerificationTask pending = Task(1, TaskState::kPending);
  pending.annotation = 4;
  pending.evidence = {"a\tb", ""};
  VerificationTask rejected = Task(4, TaskState::kExpertRejected);
  rejected.confidence = 1.0 / 3.0;
  VerificationTask accepted = Task(6, TaskState::kAutoAccepted);
  accepted.tuple = TupleId{2, 70};
  accepted.confidence = 0.9;
  accepted.evidence = {"x\\y"};
  image.tasks = {pending, rejected, accepted};
  SnapshotInfo info;
  info.seq = 5;
  ASSERT_TRUE(durability::WriteSnapshot(dir_, info, (*universe)->store,
                                        (*universe)->meta, image)
                  .ok());
  std::ifstream in(dir_ + "/snapshot-5/tasks", std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes,
            "n\t9\t6\n"
            "1\t4\t0\t2\t0.5\tPENDING\ta\\tb\t\n"
            "4\t0\t0\t5\t0.33333333333333331\tEXPERT_REJECTED\n"
            "6\t0\t2\t70\t0.90000000000000002\tAUTO_ACCEPTED\tx\\\\y\n");
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
  // kRejected: wrong arity, a non-integer or an empty field.
  EXPECT_FALSE(durability::DecodeUnit("u\t1\t1\nr\t4").ok());
  EXPECT_FALSE(durability::DecodeUnit("u\t1\t1\nr\t4\t2\t1").ok());
  EXPECT_FALSE(durability::DecodeUnit("u\t1\t1\nr\tfour\t2").ok());
  EXPECT_FALSE(durability::DecodeUnit("u\t1\t1\nr\t4\t").ok());
  // Integer fields are digits only: no sign, no space, no overflow.
  EXPECT_FALSE(durability::DecodeUnit("u\t1\t1\nr\t-1\t2").ok());
  EXPECT_FALSE(durability::DecodeUnit("u\t1\t1\nx\t+3\t1").ok());
  EXPECT_FALSE(durability::DecodeUnit("u\t1\t1\nx\t 3\t1").ok());
  EXPECT_FALSE(
      durability::DecodeUnit("u\t1\t1\nr\t99999999999999999999\t2").ok());
  // A table id must fit TupleId's 32 bits; a task state must be a name.
  for (const char* payload : {
           "u\t1\t2\nt\t0\t4294967297\t1\tT\t1\n",
           "u\t1\t2\nv\t0\t1\t4294967296\t2\t0.5\tPENDING\n",
           "u\t1\t2\nv\t0\t1\t0\t2\t0.5\tMAYBE\n",
       }) {
    EXPECT_EQ(durability::DecodeUnit(payload).status().code(),
              StatusCode::kCorruption)
        << payload;
  }
  // A valid encode must survive its own decode (baseline sanity).
  CommitUnit unit;
  unit.seq = 1;
  unit.flags = durability::kOpEnd;
  EXPECT_TRUE(durability::DecodeUnit(durability::EncodeUnit(unit)).ok());
}

/// Malformed and non-finite spellings a number field must refuse; every
/// writer prints "%.17g", which parses back exactly.
std::vector<std::string> BadNumbers() {
  return {"nan", "nan?", "inf", "-inf", "1e999", "0.5x", " 0.5", ""};
}

/// BadNumbers plus what only an unsigned field refuses.
std::vector<std::string> BadUnsigneds() {
  std::vector<std::string> bad = BadNumbers();
  for (const char* s : {"-1", "+1", "2x", "0.5", "1e3",
                        "18446744073709551616"}) {
    bad.emplace_back(s);
  }
  return bad;
}

/// `text` with tab-separated field `field` of its first line tagged `tag`
/// replaced by `value`.
std::string WithField(const std::string& text, const std::string& tag,
                      size_t field, const std::string& value) {
  std::vector<std::string> lines = Split(text, '\n');
  for (std::string& line : lines) {
    std::vector<std::string> fields = Split(line, '\t');
    if (fields.empty() || fields[0] != tag) continue;
    EXPECT_LT(field, fields.size()) << tag;
    fields[field] = value;
    line = Join(fields, "\t");
    break;
  }
  return Join(lines, "\n");
}

TEST_F(DurabilityTest, DecodeUnitRejectsMalformedAndNonFiniteWeights) {
  const std::string attach = "u\t1\t1\nt\t1\t0\t2\tP\t0.5";
  const std::string task = "u\t1\t1\nv\t0\t1\t0\t2\t0.5\tPENDING\tev";
  auto decoded = durability::DecodeUnit(attach);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->records[0].weight, 0.5);
  decoded = durability::DecodeUnit(task);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->records[0].task.confidence, 0.5);
  for (const std::string& bad : BadNumbers()) {
    EXPECT_EQ(durability::DecodeUnit(WithField(attach, "t", 5, bad))
                  .status()
                  .code(),
              StatusCode::kCorruption)
        << "attach weight '" << bad << "'";
    EXPECT_EQ(
        durability::DecodeUnit(WithField(task, "v", 5, bad)).status().code(),
        StatusCode::kCorruption)
        << "task weight '" << bad << "'";
  }
  // Every weight a writer can print decodes to itself.
  for (double w : {0.0, -0.0, 1.0, 0.1, 1.0 / 3.0, 4.9e-324, 1e300}) {
    JournalRecord r;
    r.kind = JournalRecord::Kind::kAttach;
    r.weight = w;
    decoded = durability::DecodeUnit(durability::EncodeUnit(Unit({r})));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->records[0].weight, w);
  }
}

TEST_F(DurabilityTest, MetaSerializerRejectsMalformedNumberFields) {
  auto universe = check::BuildCheckUniverse(9);
  ASSERT_TRUE(universe.ok());
  const std::string blob = MetaSerializer::SaveToString((*universe)->meta);
  ASSERT_NE(blob.find("\nsamples\t"), std::string::npos);
  auto load = [&](const std::string& text) {
    NebulaMeta meta((*universe)->meta.lexicon());
    return MetaSerializer::LoadFromString(text, &meta).code();
  };
  ASSERT_EQ(load(blob), StatusCode::kOk);
  // A NaN weight would poison every p(w,c) and d(w,c).
  for (size_t slot = 1; slot <= 12; ++slot) {
    for (const std::string& bad : BadNumbers()) {
      EXPECT_EQ(load(WithField(blob, "scoring", slot, bad)),
                StatusCode::kCorruption)
          << "scoring weight " << slot << " '" << bad << "'";
    }
  }
  for (const std::string& bad : BadUnsigneds()) {
    EXPECT_EQ(load(WithField(blob, "nebula-meta", 1, bad)),
              StatusCode::kCorruption)
        << "format '" << bad << "'";
    EXPECT_EQ(load(WithField(blob, "nebula-meta", 2, bad)),
              StatusCode::kCorruption)
        << "version '" << bad << "'";
    EXPECT_EQ(load(WithField(blob, "concept", 3, bad)),
              StatusCode::kCorruption)
        << "combo count '" << bad << "'";
    EXPECT_EQ(load(WithField(blob, "samples", 1, bad)),
              StatusCode::kCorruption)
        << "sample count '" << bad << "'";
  }
  // A well-formed but unknown format is NotSupported.
  EXPECT_EQ(load(WithField(blob, "nebula-meta", 1, "2")),
            StatusCode::kNotSupported);
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
  VerificationTask task;
  task.vid = 0;
  task.annotation = 3;
  task.tuple = TupleId{1, 8};
  task.confidence = 0.625;
  task.state = TaskState::kPending;
  task.evidence = {"exact name", "sample"};
  TaskImage image;
  image.tasks.push_back(task);
  image.next_vid = 4;
  image.auto_rejected = 3;
  ASSERT_TRUE(durability::WriteSnapshot(dir_, info, (*universe)->store,
                                        (*universe)->meta, image)
                  .ok());

  AnnotationStore store;
  NebulaMeta meta((*universe)->meta.lexicon());
  TaskImage tasks;
  auto loaded = durability::LoadCurrentSnapshot(dir_, &store, &meta, &tasks);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->seq, info.seq);
  EXPECT_EQ(loaded->committed_ops, info.committed_ops);
  EXPECT_FALSE(loaded->partial_op);
  EXPECT_EQ(tasks.next_vid, 4u);
  EXPECT_EQ(tasks.auto_rejected, 3u);
  ASSERT_EQ(tasks.tasks.size(), 1u);
  const VerificationTask& restored = tasks.tasks[0];
  EXPECT_EQ(restored.vid, task.vid);
  EXPECT_EQ(restored.annotation, task.annotation);
  EXPECT_EQ(restored.tuple, task.tuple);
  EXPECT_EQ(restored.confidence, task.confidence);
  EXPECT_EQ(restored.state, task.state);
  EXPECT_EQ(restored.evidence, task.evidence);

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

TEST_F(DurabilityTest, FormatOneSnapshotIsNotSupported) {
  auto universe = check::BuildCheckUniverse(9);
  ASSERT_TRUE(universe.ok());
  SnapshotInfo info;
  info.seq = 3;
  ASSERT_TRUE(durability::WriteSnapshot(dir_, info, (*universe)->store,
                                        (*universe)->meta, TaskImage{})
                  .ok());
  // Format 1 stored every task, auto-rejected ones included, and no
  // counters; its header differs only in the version field.
  {
    std::ofstream header(dir_ + "/snapshot-3/SNAPSHOT", std::ios::trunc);
    header << "nebula-snapshot\t1\t3\t0\t0\n";
  }
  AnnotationStore store;
  NebulaMeta meta((*universe)->meta.lexicon());
  TaskImage tasks;
  const auto loaded =
      durability::LoadCurrentSnapshot(dir_, &store, &meta, &tasks);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotSupported);
}

TEST_F(DurabilityTest, SnapshotTaskFileRejectsMalformedFields) {
  auto universe = check::BuildCheckUniverse(9);
  ASSERT_TRUE(universe.ok());
  SnapshotInfo info;
  info.seq = 4;
  ASSERT_TRUE(durability::WriteSnapshot(dir_, info, (*universe)->store,
                                        (*universe)->meta, TaskImage{})
                  .ok());
  for (const char* text : {
           "",                                  // no counter line
           "0\t3\t0\t7\t0.5\tPENDING\n",       // a task line instead
           "n\tabc\t3\n",                       // non-integer counter
           "n\t4\t-3\n",                        // signed counter
           "n\t4\t3\nseven\t3\t0\t7\t0.5\tPENDING\n",  // bad vid
           "n\t1\t0\n0\t3\t4294967296\t7\t0.5\tPENDING\n",  // table id
           "n\t1\t0\n0\t3\t0\t7\t0.5\tMAYBE\n",       // unknown state
       }) {
    {
      std::ofstream out(dir_ + "/snapshot-4/tasks", std::ios::trunc);
      out << text;
    }
    AnnotationStore store;
    NebulaMeta meta((*universe)->meta.lexicon());
    TaskImage tasks;
    const auto loaded =
        durability::LoadCurrentSnapshot(dir_, &store, &meta, &tasks);
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << text;
  }
}

TEST_F(DurabilityTest, SnapshotRejectsMalformedNumberFields) {
  auto universe = check::BuildCheckUniverse(9);
  ASSERT_TRUE(universe.ok());
  SnapshotInfo info;
  info.seq = 4;
  info.committed_ops = 2;
  ASSERT_TRUE(durability::WriteSnapshot(dir_, info, (*universe)->store,
                                        (*universe)->meta, TaskImage{})
                  .ok());
  const std::string header = "nebula-snapshot\t2\t4\t2\t0\n";
  const std::string tasks = "n\t1\t0\n0\t3\t0\t7\t0.5\tPENDING\n";
  TaskImage loaded_tasks;
  auto load = [&](const std::string& header_text,
                  const std::string& tasks_text) {
    {
      std::ofstream out(dir_ + "/snapshot-4/SNAPSHOT", std::ios::trunc);
      out << header_text;
    }
    {
      std::ofstream out(dir_ + "/snapshot-4/tasks", std::ios::trunc);
      out << tasks_text;
    }
    AnnotationStore store;
    NebulaMeta meta((*universe)->meta.lexicon());
    loaded_tasks = TaskImage();
    return durability::LoadCurrentSnapshot(dir_, &store, &meta,
                                           &loaded_tasks);
  };
  const auto good = load(header, tasks);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->seq, 4u);
  EXPECT_EQ(good->committed_ops, 2u);
  ASSERT_EQ(loaded_tasks.tasks.size(), 1u);
  EXPECT_EQ(loaded_tasks.tasks[0].confidence, 0.5);

  // The hand-edited task line that once restored a NaN confidence.
  EXPECT_EQ(load(header, "n\t1\t0\n0\t3\t0\t7\tnan?\tPENDING\n")
                .status()
                .code(),
            StatusCode::kCorruption);
  for (const std::string& bad : BadNumbers()) {
    EXPECT_EQ(load(header, WithField(tasks, "0", 4, bad)).status().code(),
              StatusCode::kCorruption)
        << "confidence '" << bad << "'";
  }
  for (const std::string& bad : BadUnsigneds()) {
    for (size_t field : {1, 2, 3}) {
      EXPECT_EQ(load(WithField(header, "nebula-snapshot", field, bad), tasks)
                    .status()
                    .code(),
                StatusCode::kCorruption)
          << "header field " << field << " '" << bad << "'";
    }
  }
  // The partial-operation flag is 0 or 1.
  for (const char* bad : {"2", "", "10"}) {
    EXPECT_EQ(load(WithField(header, "nebula-snapshot", 4, bad), tasks)
                  .status()
                  .code(),
              StatusCode::kCorruption)
        << "partial flag '" << bad << "'";
  }
  // A well-formed but unknown format is NotSupported.
  EXPECT_EQ(load(WithField(header, "nebula-snapshot", 1, "3"), tasks)
                .status()
                .code(),
            StatusCode::kNotSupported);
}

TEST_F(DurabilityTest, ReplayRebuildsTheCountersFromTaskAndCountRecords) {
  // Vid 3 and 5 were auto-rejected in the round that created task 4.
  const std::string dir = WriteHandBuiltDir(
      "ok", {{Task(1, TaskState::kPending)}, 3, 2},
      {Unit({TaskRec(4, TaskState::kPending), RejectedRec(6, 2)}),
       Unit({DecisionRec(4, true)}), Unit({DecisionRec(1, false)}),
       Unit({RejectedRec(9, 3)})});
  TaskImage recovered;
  ASSERT_TRUE(Replay(dir, &recovered).ok());
  EXPECT_EQ(recovered.next_vid, 9u);
  EXPECT_EQ(recovered.auto_rejected, 7u);
  ASSERT_EQ(recovered.tasks.size(), 2u);
  EXPECT_EQ(recovered.tasks[0].vid, 1u);
  EXPECT_EQ(recovered.tasks[0].state, TaskState::kExpertRejected);
  EXPECT_EQ(recovered.tasks[1].vid, 4u);
  EXPECT_EQ(recovered.tasks[1].state, TaskState::kExpertAccepted);
}

TEST_F(DurabilityTest, ReplayRefusesRecordsTheStateContradicts) {
  struct Case {
    const char* name;
    TaskImage image;
    std::vector<CommitUnit> units;
  };
  // Each case: a name, the snapshot's {tasks, next_vid, auto_rejected},
  // and the WAL replayed on top of it.
  const std::vector<Case> cases = {
      {"decision_for_absent_task", {{}, 0, 0},
       {Unit({DecisionRec(0, true)})}},
      {"decision_for_rejected_vid", {{}, 2, 2},
       {Unit({DecisionRec(1, true)})}},
      {"decision_for_auto_accepted",
       {{Task(0, TaskState::kAutoAccepted)}, 1, 0},
       {Unit({DecisionRec(0, false)})}},
      {"decision_twice", {{Task(0, TaskState::kPending)}, 1, 0},
       {Unit({DecisionRec(0, true)}), Unit({DecisionRec(0, false)})}},
      {"task_below_counter", {{}, 3, 3},
       {Unit({TaskRec(1, TaskState::kPending)})}},
      {"count_moves_counter_back", {{Task(2, TaskState::kPending)}, 3, 2},
       {Unit({RejectedRec(2, 1)})}},
      // Stage 3 journals only PENDING and AUTO_ACCEPTED tasks.
      {"task_already_decided", {{}, 0, 0},
       {Unit({TaskRec(0, TaskState::kExpertAccepted)})}},
  };
  for (const Case& c : cases) {
    const std::string dir = WriteHandBuiltDir(c.name, c.image, c.units);
    TaskImage recovered;
    EXPECT_EQ(Replay(dir, &recovered).code(), StatusCode::kCorruption)
        << c.name;
  }
}

TEST_F(DurabilityTest, RestoreRefusesImagesThatBreakTheTaskInvariants) {
  struct Case {
    const char* name;
    TaskImage image;
  };
  const std::vector<Case> cases = {
      {"descending_vids",
       {{Task(1, TaskState::kPending), Task(0, TaskState::kPending)}, 2, 0}},
      {"repeated_vid",
       {{Task(0, TaskState::kPending), Task(0, TaskState::kPending)}, 2, 0}},
      {"vid_at_counter", {{Task(2, TaskState::kPending)}, 2, 1}},
      {"auto_rejected_task", {{Task(0, TaskState::kAutoRejected)}, 1, 0}},
      {"counts_miss_a_vid", {{Task(0, TaskState::kPending)}, 3, 1}},
  };
  NebulaConfig config;
  config.event_capacity = 0;
  for (const Case& c : cases) {
    config.durability_dir = WriteHandBuiltDir(c.name, c.image);
    auto universe = check::BuildCheckUniverse(9);
    ASSERT_TRUE(universe.ok());
    NebulaEngine engine(&(*universe)->catalog, &(*universe)->store,
                        &(*universe)->meta, config);
    EXPECT_EQ(engine.OpenDurability().code(), StatusCode::kCorruption)
        << c.name;
  }

  // A consistent image restores both counters, and the gaps below
  // next_vid answer as auto-rejected tasks.
  config.durability_dir =
      WriteHandBuiltDir("consistent", {{Task(1, TaskState::kPending)}, 3, 2});
  auto universe = check::BuildCheckUniverse(9);
  ASSERT_TRUE(universe.ok());
  NebulaEngine engine(&(*universe)->catalog, &(*universe)->store,
                      &(*universe)->meta, config);
  ASSERT_TRUE(engine.OpenDurability().ok());
  EXPECT_EQ(engine.verification().next_vid(), 3u);
  EXPECT_EQ(engine.verification().auto_rejected(), 2u);
  ASSERT_EQ(engine.verification().tasks().size(), 1u);
  EXPECT_EQ(engine.verification().tasks()[0].vid, 1u);
  EXPECT_EQ(engine.verification().Verify(0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.verification().Reject(2).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.verification().Verify(3).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.verification().GetTask(0).status().code(),
            StatusCode::kNotFound);
}

TEST_F(DurabilityTest, SnapshotSupersedesAndGarbageCollects) {
  auto universe = check::BuildCheckUniverse(9);
  ASSERT_TRUE(universe.ok());
  SnapshotInfo info;
  info.seq = 1;
  ASSERT_TRUE(durability::WriteSnapshot(dir_, info, (*universe)->store,
                                        (*universe)->meta, TaskImage{})
                  .ok());
  info.seq = 2;
  info.committed_ops = 1;
  ASSERT_TRUE(durability::WriteSnapshot(dir_, info, (*universe)->store,
                                        (*universe)->meta, TaskImage{})
                  .ok());
  EXPECT_TRUE(fs::exists(dir_ + "/snapshot-2"));
  EXPECT_FALSE(fs::exists(dir_ + "/snapshot-1"));
  AnnotationStore store;
  NebulaMeta meta((*universe)->meta.lexicon());
  TaskImage tasks;
  auto loaded = durability::LoadCurrentSnapshot(dir_, &store, &meta, &tasks);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->seq, 2u);
  EXPECT_EQ(loaded->committed_ops, 1u);
}

TEST_F(DurabilityTest, LoadFromEmptyDirIsNotFound) {
  AnnotationStore store;
  NebulaMeta meta;
  TaskImage tasks;
  const auto loaded =
      durability::LoadCurrentSnapshot(dir_, &store, &meta, &tasks);
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
/// attachments, retained tasks (vids, confidences, states), the vid and
/// rejection counters, and ACG fingerprint. In the reject-tail cases
/// the last rounds auto-reject every candidate, so only the snapshot's
/// counters or the WAL's count records carry the vid counter past the
/// last retained task.
TEST_F(DurabilityTest, SnapshotPlusReplayEquivalenceOverInterleavings) {
  struct Case {
    uint64_t seed;
    size_t snapshot_every;
    bool reject_tail;
  };
  std::vector<Case> cases;
  for (const uint64_t seed : {21u, 22u, 23u}) {
    for (const size_t snapshot_every : {size_t{1}, size_t{3}, size_t{0}}) {
      cases.push_back({seed, snapshot_every, false});
    }
  }
  for (const size_t snapshot_every : {size_t{1}, size_t{3}, size_t{0}}) {
    cases.push_back({21u, snapshot_every, true});
  }
  constexpr size_t kRejectTail = 2;

  for (const Case& c : cases) {
    const std::string label = "seed=" + std::to_string(c.seed) +
                              " snapshot_every=" +
                              std::to_string(c.snapshot_every) +
                              (c.reject_tail ? " reject_tail" : "");
    const std::string case_dir =
        dir_ + "/case_" + std::to_string(c.seed) + "_" +
        std::to_string(c.snapshot_every) + (c.reject_tail ? "_tail" : "");
    NebulaConfig config;
    config.event_capacity = 0;
    config.durability_dir = case_dir;
    config.snapshot_every_n = c.snapshot_every;

    std::vector<std::string> before;
    uint64_t next_vid = 0;
    uint64_t auto_rejected = 0;
    {
      auto universe = check::BuildCheckUniverse(c.seed);
      ASSERT_TRUE(universe.ok());
      const check::CheckWorkload workload =
          check::GenerateCheckWorkload(c.seed, **universe);
      ASSERT_GT(workload.annotations.size(), kRejectTail);
      NebulaEngine engine(&(*universe)->catalog, &(*universe)->store,
                          &(*universe)->meta, config);
      engine.RebuildAcg();
      ASSERT_TRUE(engine.OpenDurability().ok());
      Rng rng(c.seed * 977);
      const size_t tail_from = workload.annotations.size() - kRejectTail;
      size_t tasks_before_tail = 0;
      uint64_t rejected_before_tail = 0;
      for (size_t i = 0; i < workload.annotations.size(); ++i) {
        if (c.reject_tail && i == tail_from) {
          // Every candidate falls below the lower bound from here on.
          engine.config().bounds = {2.0, 2.0};
          tasks_before_tail = engine.verification().tasks().size();
          rejected_before_tail = engine.verification().auto_rejected();
        }
        const check::CheckAnnotation& a = workload.annotations[i];
        auto report = engine.InsertAnnotation(a.text, a.focal, a.author);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        // Randomly interleave expert decisions over pending tasks.
        for (const VerificationTask& task : engine.verification().tasks()) {
          if (task.state != TaskState::kPending) continue;
          const uint64_t draw = rng.Uniform(4);
          if (draw == 0) {
            ASSERT_TRUE(engine.verification().Verify(task.vid).ok());
          } else if (draw == 1) {
            ASSERT_TRUE(engine.verification().Reject(task.vid).ok());
          }
        }
      }
      if (c.reject_tail) {
        EXPECT_EQ(engine.verification().tasks().size(), tasks_before_tail)
            << label;
        EXPECT_GT(engine.verification().auto_rejected(),
                  rejected_before_tail)
            << label;
      }
      next_vid = engine.verification().next_vid();
      auto_rejected = engine.verification().auto_rejected();
      engine.RebuildAcg();
      check::AppendStateLines((*universe)->store, engine, &before);
      // Engine destroyed here WITHOUT a final snapshot: whatever the
      // cadence left in the WAL must carry the rest.
    }

    auto universe = check::BuildCheckUniverse(c.seed);
    ASSERT_TRUE(universe.ok());
    NebulaEngine engine(&(*universe)->catalog, &(*universe)->store,
                        &(*universe)->meta, config);
    ASSERT_TRUE(engine.OpenDurability().ok());
    EXPECT_TRUE(engine.recovery_info().recovered);
    EXPECT_FALSE(engine.recovery_info().partial_op);
    EXPECT_EQ(engine.verification().next_vid(), next_vid) << label;
    EXPECT_EQ(engine.verification().auto_rejected(), auto_rejected) << label;
    std::vector<std::string> after;
    check::AppendStateLines((*universe)->store, engine, &after);
    EXPECT_EQ(after, before) << label;
    if (c.snapshot_every == 0) {
      // WAL-only: nothing beyond the baseline snapshot was written.
      EXPECT_EQ(engine.recovery_info().snapshot_seq, 0u);
    }
  }
}

}  // namespace
}  // namespace nebula
