#ifndef NEBULA_COMMON_LOCK_RANK_H_
#define NEBULA_COMMON_LOCK_RANK_H_

/// The global mutex acquisition-order DAG, declared as data.
///
/// Every nebula::Mutex / nebula::SharedMutex in the tree is constructed
/// with one of the ranks below (tools/nebula_lint's [lock-rank-missing]
/// rule enforces this). A thread may only acquire a mutex whose tier is
/// STRICTLY GREATER than the tier of every mutex it already holds — the
/// total order the tiers induce is a conservative embedding of the
/// acquisition DAG in tools/lock_ranks.txt, which is the human-readable
/// source of truth (the lint pass cross-checks the two).
///
/// Three enforcement layers consume these ranks:
///   - tools/nebula_lint pass_concurrency: [lock-order] statically flags
///     a lock-scope nesting or ACQUIRED_AFTER edge that contradicts the
///     DAG, with the full declared chain in the report;
///   - src/common/lockdep.{h,cc} (-DNEBULA_LOCKDEP=ON): validates every
///     acquire at runtime against the held-lock stack and fails fast with
///     both rank chains on inversion or self-deadlock;
///   - Clang ACQUIRED_BEFORE/ACQUIRED_AFTER attributes where the two
///     mutexes are visible to one another (same class), compiled out on
///     GCC and in builds without -DNEBULA_ANALYZE=ON.
///
/// Adding a mutex: see DESIGN.md §9 "How to add a mutex". In short: pick
/// (or insert) a rank here AND in tools/lock_ranks.txt, construct the
/// mutex with it, and keep tiers strictly ordered along every real
/// acquisition chain. Tiers are spaced by 10 so a new rank can slot
/// between two existing ones without renumbering.
namespace nebula {

/// One node of the acquisition-order DAG. `name` matches the entry in
/// tools/lock_ranks.txt; `tier` orders acquisition (lower = acquired
/// first / outermost). Constants, not an enum: lockdep reports print the
/// name, and the spacing convention keeps insertion cheap.
struct LockRank {
  const char* name;
  int tier;
};

/// Reserved for the engine-wide mutex (ROADMAP item 8); outermost by
/// construction — engine-level locks are taken first.
inline constexpr LockRank kLockRankEngine = {"engine", 10};

/// PlanCache's keyword->configuration cache (core/identify.h). Held
/// across plan compilation, which probes fault points and bumps metrics.
inline constexpr LockRank kLockRankCorePlanCache = {"core.plancache", 20};

/// NebulaMeta's word-score memo (meta/nebula_meta.h). Taken under
/// core.plancache, which is held across MapKeyword; scores are computed
/// outside it.
inline constexpr LockRank kLockRankMetaWordMemo = {"meta.wordmemo", 40};

/// Table's lazy value-index publication lock (storage/table.h). Held
/// across the index build, which probes fault points and may submit to
/// the pool.
inline constexpr LockRank kLockRankStorageIndexBuild =
    {"storage.index_build", 50};

/// durability::Manager's append/snapshot state. The WAL is the engine's
/// mutation chokepoint: it sits above the pool and all observability.
inline constexpr LockRank kLockRankDurabilityManager =
    {"durability.manager", 60};

/// ThreadPool's queue mutex. Instrumentation sinks run under it, so every
/// obs rank sits below.
inline constexpr LockRank kLockRankCommonPool = {"common.pool", 70};

/// EventLog's ring + sink (obs/event.h). Record() probes a fault point
/// and invokes the sink under this lock.
inline constexpr LockRank kLockRankObsEventLog = {"obs.eventlog", 90};

/// Logger's sink registration (common/logging.cc). Logging may happen
/// while holding any lock above; the sink runs under this one.
inline constexpr LockRank kLockRankCommonLogSink = {"common.logsink", 100};

/// FaultRegistry's point table (common/fault.h). Fault probes fire under
/// nearly every other lock in the tree — innermost, with only metrics
/// below.
inline constexpr LockRank kLockRankCommonFault = {"common.fault", 110};

/// MetricsRegistry's family table (obs/metrics.h). Instruments are
/// resolved (registry-locked) from arbitrary lock contexts; nothing may
/// be acquired under it. Innermost rank in the tree.
inline constexpr LockRank kLockRankObsMetrics = {"obs.metrics", 120};

}  // namespace nebula

#endif  // NEBULA_COMMON_LOCK_RANK_H_
