#include "durability/manager.h"

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>

#include "annotation/annotation_store.h"
#include "annotation/verification_task.h"
#include "common/status.h"
#include "common/sync.h"
#include "durability/journal.h"
#include "durability/meta_serialize.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "meta/nebula_meta.h"
#include "obs/metrics.h"

namespace nebula::durability {

namespace fs = std::filesystem;

namespace {

obs::Counter* ReplayedRecordsCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "nebula_recovery_replayed_records", {},
      "Commit units replayed from the WAL during recovery");
  return counter;
}

}  // namespace

Result<std::unique_ptr<Manager>> Manager::Open(const Options& options,
                                               AnnotationStore* store,
                                               NebulaMeta* meta,
                                               const TaskImage* tasks,
                                               TaskImage* recovered,
                                               const OpenHooks& hooks) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("durability dir must be non-empty");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::Internal("cannot create durability dir " + options.dir +
                            ": " + ec.message());
  }

  auto manager =
      std::unique_ptr<Manager>(new Manager(options, store, meta, tasks));
  const bool have_current = fs::exists(fs::path(options.dir) / "CURRENT", ec);
  const std::string wal_path = manager->WalPath();

  if (!have_current) {
    if (fs::exists(wal_path, ec)) {
      return Status::Corruption("durability dir " + options.dir +
                                " has a WAL but no snapshot");
    }
    // Fresh directory: the baseline snapshot captures the caller's seeded
    // state, which WAL replay alone could never rebuild.
    NEBULA_RETURN_NOT_OK(
        WriteSnapshot(options.dir, SnapshotInfo{}, *store, *meta, *tasks));
    {
      MutexLock lock(manager->mutex_);
      ++manager->snapshots_written_;
    }
    NEBULA_ASSIGN_OR_RETURN(manager->wal_,
                            WalWriter::Open(wal_path, options.sync));
    return manager;
  }

  // Existing directory: snapshot + WAL tail is the authoritative state.
  if (store->num_annotations() != 0 || recovered->next_vid != 0 ||
      !recovered->tasks.empty()) {
    return Status::InvalidArgument(
        "store and tasks must be fresh before recovery");
  }
  NEBULA_ASSIGN_OR_RETURN(
      const SnapshotInfo snapshot,
      LoadCurrentSnapshot(options.dir, store, meta, recovered));

  RecoveryInfo& info = manager->recovery_info_;
  info.recovered = true;
  info.snapshot_seq = snapshot.seq;
  info.committed_ops = snapshot.committed_ops;
  info.partial_op = snapshot.partial_op;
  {
    MutexLock lock(manager->mutex_);
    manager->seq_ = snapshot.seq;
  }

  auto read = ReadWal(wal_path);
  if (read.ok()) {
    for (const std::string& payload : read->payloads) {
      NEBULA_ASSIGN_OR_RETURN(const CommitUnit unit, DecodeUnit(payload));
      if (unit.seq <= snapshot.seq) continue;  // already folded in
      for (const JournalRecord& record : unit.records) {
        NEBULA_RETURN_NOT_OK(manager->ApplyRecord(record, recovered, hooks));
      }
      if (unit.flags & kOpStart) info.partial_op = true;
      if (unit.flags & kOpEnd) {
        info.partial_op = false;
        ++info.committed_ops;
      }
      {
        MutexLock lock(manager->mutex_);
        manager->seq_ = unit.seq;
      }
      ++info.replayed_units;
    }
    if (read->tail_truncated) {
      info.tail_truncated = true;
      fs::resize_file(wal_path, read->valid_bytes, ec);
      if (ec) {
        return Status::Internal("cannot truncate torn WAL tail: " +
                                ec.message());
      }
    }
    if constexpr (obs::kEnabled) {
      if (info.replayed_units > 0) {
        ReplayedRecordsCounter()->Increment(info.replayed_units);
      }
    }
  } else if (read.status().code() != StatusCode::kNotFound) {
    return read.status();
  }

  {
    MutexLock lock(manager->mutex_);
    manager->committed_ops_ = info.committed_ops;
  }
  NEBULA_ASSIGN_OR_RETURN(manager->wal_,
                          WalWriter::Open(wal_path, options.sync));
  return manager;
}

Status Manager::ApplyRecord(const JournalRecord& record, TaskImage* tasks,
                            const OpenHooks& hooks) {
  switch (record.kind) {
    case JournalRecord::Kind::kAnnotation: {
      const AnnotationId id = store_->AddAnnotation(record.text,
                                                    record.author);
      if (id != record.id) {
        return Status::Corruption("replayed annotation ids out of order");
      }
      return Status::OK();
    }
    case JournalRecord::Kind::kAttach:
      return store_->Attach(record.annotation, record.tuple,
                            record.is_true ? AttachmentType::kTrue
                                           : AttachmentType::kPredicted,
                            record.weight);
    case JournalRecord::Kind::kDetach:
      return store_->Detach(record.annotation, record.tuple);
    case JournalRecord::Kind::kPromote:
      return store_->PromoteToTrue(record.annotation, record.tuple);
    case JournalRecord::Kind::kTask: {
      // A Stage-3 round creates only these two states; an expert
      // decision arrives as its own `x` record.
      if (record.task.state != TaskState::kPending &&
          record.task.state != TaskState::kAutoAccepted) {
        return Status::Corruption(std::string("replayed task is ") +
                                  TaskStateName(record.task.state));
      }
      // A gap between the counter and this vid went to auto-rejections,
      // which the unit's `r` record counts.
      if (record.task.vid < tasks->next_vid) {
        return Status::Corruption("replayed task vids out of order");
      }
      tasks->tasks.push_back(record.task);
      if (hooks.inject_replay_bug) tasks->tasks.back().confidence += 1e-9;
      tasks->next_vid = record.task.vid + 1;
      return Status::OK();
    }
    case JournalRecord::Kind::kRejected: {
      if (record.id < tasks->next_vid) {
        return Status::Corruption("replayed vid counter moves backwards");
      }
      tasks->next_vid = record.id;
      tasks->auto_rejected += record.count;
      return Status::OK();
    }
    case JournalRecord::Kind::kDecision: {
      const auto it = std::lower_bound(
          tasks->tasks.begin(), tasks->tasks.end(), record.id,
          [](const VerificationTask& t, uint64_t vid) { return t.vid < vid; });
      if (it == tasks->tasks.end() || it->vid != record.id ||
          it->state != TaskState::kPending) {
        return Status::Corruption("replayed decision for a task that is "
                                  "not pending");
      }
      it->state = record.is_true ? TaskState::kExpertAccepted
                                 : TaskState::kExpertRejected;
      return Status::OK();
    }
    case JournalRecord::Kind::kMetaBlob: {
      NebulaMeta fresh(meta_->lexicon());
      NEBULA_RETURN_NOT_OK(MetaSerializer::LoadFromString(record.text,
                                                          &fresh));
      *meta_ = std::move(fresh);
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

Status Manager::Append(CommitUnit* unit) {
  MutexLock lock(mutex_);
  unit->seq = seq_ + 1;
  NEBULA_RETURN_NOT_OK(wal_->Append(EncodeUnit(*unit)));
  seq_ = unit->seq;
  return Status::OK();
}

void Manager::OnApplied(const CommitUnit& unit) {
  if ((unit.flags & kOpEnd) == 0) return;
  MutexLock lock(mutex_);
  ++committed_ops_;
  ++ops_since_snapshot_;
  if (options_.snapshot_every_n > 0 &&
      ops_since_snapshot_ >= options_.snapshot_every_n) {
    // Degrade on failure: the previous snapshot plus the intact WAL stay
    // authoritative, so the committed operation is not at risk.
    last_snapshot_status_ = SnapshotLocked();
  }
}

Status Manager::SnapshotNow() {
  MutexLock lock(mutex_);
  return SnapshotLocked();
}

Status Manager::SnapshotLocked() {
  SnapshotInfo info;
  info.seq = seq_;
  info.committed_ops = committed_ops_;
  info.partial_op = false;
  NEBULA_RETURN_NOT_OK(
      WriteSnapshot(options_.dir, info, *store_, *meta_, *tasks_));
  NEBULA_RETURN_NOT_OK(wal_->Truncate());
  ops_since_snapshot_ = 0;
  ++snapshots_written_;
  return Status::OK();
}

}  // namespace nebula::durability
