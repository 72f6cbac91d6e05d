#ifndef NEBULA_DURABILITY_MANAGER_H_
#define NEBULA_DURABILITY_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "annotation/annotation_store.h"
#include "annotation/verification_task.h"
#include "common/lock_rank.h"
#include "common/status.h"
#include "common/sync.h"
#include "durability/journal.h"
#include "durability/wal.h"
#include "meta/nebula_meta.h"

namespace nebula::durability {

/// What Manager::Open found on disk.
struct RecoveryInfo {
  /// True when an existing durability directory was recovered (snapshot
  /// loaded and WAL replayed); false for a fresh directory.
  bool recovered = false;
  uint64_t snapshot_seq = 0;
  uint64_t replayed_units = 0;
  /// Operations (kOpEnd units) committed across snapshot + replay.
  uint64_t committed_ops = 0;
  /// True when the log ends inside an operation: its stage-0 unit is
  /// durable but its stage-3 unit never landed. The recovered state
  /// contains exactly the stage-0 effects (journal-before-apply makes
  /// this well defined).
  bool partial_op = false;
  /// True when trailing torn/corrupt WAL bytes were truncated away.
  bool tail_truncated = false;
};

/// Test-only knobs threaded through Open.
struct OpenHooks {
  /// Perturbs the confidence of WAL-replayed task records by +1e-9 —
  /// a planted recovery divergence the nebula_check --crash oracle must
  /// catch. Snapshot-loaded tasks are NOT perturbed, so exercising this
  /// requires state that still lives in the log.
  bool inject_replay_bug = false;
};

/// The engine's durability chokepoint. Owns the WAL writer and the
/// snapshot cadence for one durability directory:
///
///   Append(unit)    journal a commit unit (assigns its sequence number)
///                   BEFORE the caller applies it in memory;
///   OnApplied(unit) after the in-memory apply — advances the committed
///                   operation count and maybe takes a snapshot.
///
/// Append/OnApplied/SnapshotNow and the counters are serialized by an
/// internal mutex (rank durability.manager — above the pool and all
/// observability, below the storage locks; tools/lock_ranks.txt). The
/// engine still orders mutations semantically (journal-before-apply is a
/// protocol, not something a mutex can provide), but concurrent readers
/// of the counters and a future async ingest queue get a consistent
/// view. Open remains single-threaded setup.
class Manager {
 public:
  struct Options {
    std::string dir;
    SyncMode sync = SyncMode::kFlush;
    /// Snapshot after this many committed operations; 0 disables cadence
    /// snapshots (the baseline snapshot is still written on fresh open).
    uint64_t snapshot_every_n = 64;
  };

  /// Opens the durability directory. `store`, `meta` and `tasks` are the
  /// live state every snapshot writes in place; all three must outlive
  /// the manager. Fresh directory: writes a baseline snapshot of them
  /// (the seeded universe replay alone could never rebuild). Existing
  /// directory: `store` and `meta` must be fresh/empty and `recovered`
  /// empty — the latest valid snapshot is loaded into them and the WAL
  /// tail replayed on top, truncating a torn final record; the caller
  /// adopts `recovered` as its live task image. A WAL without any
  /// snapshot is Corruption, and so is a replayed record the recovering
  /// state contradicts.
  [[nodiscard]] static Result<std::unique_ptr<Manager>> Open(
      const Options& options, AnnotationStore* store, NebulaMeta* meta,
      const TaskImage* tasks, TaskImage* recovered,
      const OpenHooks& hooks = {});

  /// Assigns the unit's sequence number and appends it to the WAL. On
  /// error nothing was journaled and the caller must not apply the unit.
  [[nodiscard]] Status Append(CommitUnit* unit);

  /// Reports that an appended unit has been applied in memory. May take
  /// a cadence snapshot (only after kOpEnd units, so snapshots always
  /// sit at operation boundaries); snapshot failure degrades — it is
  /// recorded in last_snapshot_status() and the WAL stays authoritative.
  void OnApplied(const CommitUnit& unit);

  /// Forces a snapshot at the current state (must be at an operation
  /// boundary; the engine exposes this for tests and shutdown).
  [[nodiscard]] Status SnapshotNow();

  const RecoveryInfo& recovery_info() const { return recovery_info_; }
  Status last_snapshot_status() const {
    MutexLock lock(mutex_);
    return last_snapshot_status_;
  }
  uint64_t wal_appends() const { return wal_ == nullptr ? 0 : wal_->appends(); }
  uint64_t snapshots_written() const {
    MutexLock lock(mutex_);
    return snapshots_written_;
  }
  uint64_t committed_ops() const {
    MutexLock lock(mutex_);
    return committed_ops_;
  }

 private:
  Manager(Options options, AnnotationStore* store, NebulaMeta* meta,
          const TaskImage* tasks)
      : options_(std::move(options)),
        store_(store),
        meta_(meta),
        tasks_(tasks) {}

  std::string WalPath() const { return options_.dir + "/wal.log"; }

  /// Applies one replayed record to the recovering state.
  [[nodiscard]] Status ApplyRecord(const JournalRecord& record,
                                   TaskImage* tasks, const OpenHooks& hooks);

  /// SnapshotNow's body, for callers already holding the mutex.
  [[nodiscard]] Status SnapshotLocked() REQUIRES(mutex_);

  Options options_;
  AnnotationStore* store_;
  NebulaMeta* meta_;
  const TaskImage* tasks_;
  std::unique_ptr<WalWriter> wal_;
  RecoveryInfo recovery_info_;
  mutable Mutex mutex_{kLockRankDurabilityManager};
  Status last_snapshot_status_ GUARDED_BY(mutex_) = Status::OK();
  /// Last assigned WAL sequence number.
  uint64_t seq_ GUARDED_BY(mutex_) = 0;
  uint64_t committed_ops_ GUARDED_BY(mutex_) = 0;
  uint64_t ops_since_snapshot_ GUARDED_BY(mutex_) = 0;
  uint64_t snapshots_written_ GUARDED_BY(mutex_) = 0;
};

}  // namespace nebula::durability

#endif  // NEBULA_DURABILITY_MANAGER_H_
