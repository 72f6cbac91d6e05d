#ifndef NEBULA_COMMON_FAULT_POINTS_H_
#define NEBULA_COMMON_FAULT_POINTS_H_

/// Canonical registry of every FaultRegistry point name in the engine.
///
/// tools/nebula_lint enforces that any name passed to
/// NEBULA_INJECT_FAULT / NEBULA_FAULT_SHOULD_FAIL under src/ appears in
/// this header, so tests never chase string literals scattered through the
/// tree and a typo'd point name fails `ctest -L lint` instead of silently
/// never firing.
///
/// Adding a fault point: add the constant here (keep the list sorted by
/// name), use the same literal at the injection site, and cover the fired
/// path in a fault-labeled test.

namespace nebula {

/// Lockdep acquire check (src/common/lockdep.cc, -DNEBULA_LOCKDEP=ON
/// only); a fired fault plants a synthetic lock-order inversion so
/// NebulaCheck's `lockdep` pair can prove a violation is caught,
/// shrunk, and replayed end to end. Never fires in production builds —
/// the probe is compiled out with the witness.
inline constexpr char kFaultCommonLockdepCheck[] = "common.lockdep.check";

/// Plan-cache fill in TupleIdentifier's keyword->configuration cache; a
/// fired fault skips caching the freshly compiled plans (the group still
/// executes on the cold path).
inline constexpr char kFaultCorePlanCacheFill[] = "core.plancache.fill";

/// Snapshot write in the durability manager; a fired fault aborts the
/// snapshot before any file is renamed into place. The engine degrades —
/// the previous snapshot plus the full WAL stay authoritative and the
/// triggering operation still succeeds (see Manager::last_snapshot_status).
inline constexpr char kFaultDurabilitySnapshotWrite[] =
    "durability.snapshot.write";

/// WAL append entry, before any byte is written; a fired fault fails the
/// commit unit cleanly — nothing reaches the log and nothing is applied
/// in memory, so the engine keeps running (and stays recoverable).
inline constexpr char kFaultDurabilityWalAppend[] = "durability.wal.append";

/// Torn WAL write: when fired, only a prefix of the framed record reaches
/// the file — the on-disk image of a crash mid-write. The writer poisons
/// itself (subsequent appends fail until reopen) and recovery must
/// truncate the torn tail.
inline constexpr char kFaultDurabilityWalTornTail[] =
    "durability.wal.torn_tail";

/// Per distinct statement in the shared keyword executor, on the thread
/// running the annotation's Stage 2.
inline constexpr char kFaultKeywordSharedStatement[] =
    "keyword.shared.statement";

/// Word-score memo fill in NebulaMeta::ScoreWord; a fired fault skips
/// memoizing the freshly computed scores (the caller still gets them).
inline constexpr char kFaultMetaWordMemoFill[] = "meta.wordmemo.fill";

/// Wide-event sink write in obs::EventLog::Record; a fired fault makes
/// the write fail so the log degrades to dropped-events-with-counter
/// (results are never affected).
inline constexpr char kFaultObsEventLogWrite[] = "obs.eventlog.write";

/// SqlSession::Execute entry.
inline constexpr char kFaultSqlSessionExecute[] = "sql.session.execute";

/// QueryExecutor::Execute entry.
inline constexpr char kFaultStorageQueryExecute[] = "storage.query.execute";

/// QueryExecutor::ExecuteJoin entry.
inline constexpr char kFaultStorageQueryJoin[] = "storage.query.join";

/// Table::Insert entry.
inline constexpr char kFaultStorageTableInsert[] = "storage.table.insert";

/// Lazy build of a table's unified inverted value index; a fired fault
/// latches the table into permanent scan fallback (degrade, don't
/// corrupt).
inline constexpr char kFaultStorageValueIndexBuild[] =
    "storage.valueindex.build";

/// ThreadPool enqueue; a fired fault makes the pool degrade that
/// submission to inline execution on the caller's thread.
inline constexpr char kFaultThreadPoolSubmit[] = "threadpool.submit";

}  // namespace nebula

#endif  // NEBULA_COMMON_FAULT_POINTS_H_
