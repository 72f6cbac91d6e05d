#ifndef NEBULA_DURABILITY_SNAPSHOT_H_
#define NEBULA_DURABILITY_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "annotation/annotation_store.h"
#include "annotation/verification_task.h"
#include "common/status.h"
#include "meta/nebula_meta.h"

namespace nebula::durability {

/// Everything a snapshot captures besides the store, meta and task image
/// it loads into caller-provided objects.
struct SnapshotInfo {
  /// Last WAL sequence number folded into the snapshot; replay resumes
  /// after it (the WAL is truncated on success, so in practice replay
  /// starts from an empty log).
  uint64_t seq = 0;
  /// Fully committed operations (kOpEnd units) folded in. Persisted here
  /// because WAL truncation erases the evidence needed to recount.
  uint64_t committed_ops = 0;
  /// True when the snapshot state ends inside an operation (a kOpStart
  /// unit without its kOpEnd) — snapshots are only taken at operation
  /// boundaries, so this is false for manager-written snapshots, but the
  /// field keeps the header honest if that invariant ever changes.
  bool partial_op = false;
};

/// Writes a complete snapshot under `base_dir` using the crash-safe
/// protocol of DESIGN.md §12: stage into a tmp directory, atomically
/// rename to `snapshot-<seq>`, repoint the CURRENT file (itself via
/// tmp+rename), then delete superseded snapshot directories. A crash at
/// any step leaves either the old or the new snapshot fully intact.
/// Observes the `durability.snapshot.write` fault point.
[[nodiscard]] Status WriteSnapshot(const std::string& base_dir,
                                   const SnapshotInfo& info,
                                   const AnnotationStore& store,
                                   const NebulaMeta& meta,
                                   const TaskImage& tasks);

/// Loads the snapshot named by `<base_dir>/CURRENT` into `store`, `meta`
/// and `tasks` (all must be fresh/empty). NotFound when no CURRENT
/// exists; Corruption when CURRENT names a missing or malformed snapshot.
[[nodiscard]] Result<SnapshotInfo> LoadCurrentSnapshot(
    const std::string& base_dir, AnnotationStore* store, NebulaMeta* meta,
    TaskImage* tasks);

}  // namespace nebula::durability

#endif  // NEBULA_DURABILITY_SNAPSHOT_H_
