#ifndef NEBULA_TESTING_DIFFERENTIAL_H_
#define NEBULA_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "annotation/annotation_store.h"
#include "common/status.h"
#include "core/engine.h"
#include "storage/schema.h"
#include "testing/check_workload.h"

namespace nebula::check {

/// The configuration pairs NebulaCheck runs differentially. Each pair
/// fixes the workload and varies exactly one engine knob; the two runs
/// must agree on everything the knob promises not to change.
enum class ConfigPair {
  /// Sequential (num_threads=0) vs pooled (num_threads=N) batch ingest:
  /// the pool pipelines the batch's Stage 1 while the caller runs the
  /// stateful stages. Exact equivalence: reports, final attachments,
  /// verification tasks, and the ACG fingerprint must match bit for bit.
  kThreads,
  /// One InsertAnnotation call per annotation vs a single
  /// InsertAnnotations batch, both with num_threads=N (only the batch
  /// submits pool tasks). Exact equivalence.
  kBatch,
  /// Observability quiet (event_capacity=0, no dumps) vs exercised (a
  /// sampled event log with a counting sink, DumpMetrics/DumpEvents
  /// called mid-run). Observation
  /// must never perturb results: exact equivalence. NEBULA_OBS is a
  /// compile-time switch, so a single binary can only vary the runtime
  /// surface; CI completes the argument by comparing canonical digests
  /// across an OBS=ON and an OBS=OFF binary (see --digest).
  kObs,
  /// Full-database search vs focal spreading. Spreading is an
  /// approximation, so exact equality is the wrong spec: the check is
  /// one-sided — every candidate discovered under spreading must also be
  /// discovered by the exact run (per annotation), and spreading must
  /// never crash or corrupt state. Soundness: Stage 1 is a pure function
  /// of text+meta, and the mini-db only *restricts* where Stage 2 looks.
  kSpreading,
  /// Legacy execution (no value index, no plan cache) vs the accelerated
  /// Stage-2 path. The two acceleration structures promise bit-identical
  /// results AND ExecStats (the fast path replays the legacy cost model),
  /// so this is exact equivalence — the index-vs-scan proof.
  kValueIndex,
  /// Durability off vs on (WAL + snapshots into a scratch directory with
  /// a tight snapshot cadence). Journal-before-apply must be invisible to
  /// results: exact equivalence — the durability-off-bit-identical proof
  /// runs A with the pre-durability configuration.
  kDurability,
  /// Lockdep witness off vs armed (report mode; src/common/lockdep.h),
  /// both sides pooled batch ingest, so Stage-1 workers take the meta and
  /// pool locks while the caller's Stage 2 takes the plan-cache,
  /// word-memo and index-build chains. Witnessing every mutex acquire
  /// must be invisible to results AND produce zero violations on the real
  /// lock graph: exact equivalence, with any recorded violation appended
  /// to the B transcript so an inversion diverges the digest. In builds
  /// without -DNEBULA_LOCKDEP=ON both sides run unwitnessed (still exact).
  /// --inject-bug arms the common.lockdep.check fault on the B side to
  /// plant an inversion the harness must catch, shrink, and replay.
  kLockdep,
};

inline constexpr ConfigPair kAllConfigPairs[] = {
    ConfigPair::kThreads, ConfigPair::kBatch, ConfigPair::kObs,
    ConfigPair::kSpreading, ConfigPair::kValueIndex,
    ConfigPair::kDurability, ConfigPair::kLockdep};

const char* ConfigPairName(ConfigPair pair);
/// One-line human description of what the pair varies and checks — the
/// single source of `nebula_check --help`'s pair list, so the help text
/// can never drift from kAllConfigPairs (a ctest smoke asserts this).
const char* ConfigPairDescription(ConfigPair pair);
[[nodiscard]] Result<ConfigPair> ParseConfigPair(std::string_view name);

/// Appends the canonical end-state records of a run — final attachments,
/// the retained verification tasks, the Stage-3 vid and rejection
/// counters, and the ACG fingerprint — to `lines`. Shared by
/// the differential runner and the crash-recovery harness, whose
/// recovered-equals-control oracle is exactly these records.
void AppendStateLines(const AnnotationStore& store, NebulaEngine& engine,
                      std::vector<std::string>* lines);

/// The largest pool size a sweep or a repro file may ask for, checked
/// where the number is read, before any pool exists.
inline constexpr size_t kMaxCheckThreads = 64;

struct DiffOptions {
  /// Batch Stage-1 pool size of the pooled side of kThreads and of both
  /// sides of kBatch and kLockdep; at most kMaxCheckThreads.
  size_t num_threads = 3;
  /// Test hook: deliberately mis-configures the B side (different epsilon
  /// and grouping) so the harness's own divergence detection, shrinking,
  /// and replay can be exercised end to end. Only meaningful for the
  /// exact-equivalence pairs.
  bool inject_bug = false;
  CheckWorkloadParams workload;
};

/// Canonical outcome of one engine run over one workload: a list of
/// stable text records (per-annotation report + final store/verification/
/// ACG state + the keyword engine's ExecStats totals) that two equivalent
/// runs must reproduce byte for byte.
/// Deliberately excludes timings and anything else wall-clock dependent.
struct RunOutcome {
  std::vector<std::string> lines;
  /// Candidate tuples per stream annotation, in report order — the
  /// subset check of the kSpreading pair consumes these.
  std::vector<std::vector<TupleId>> candidates;
  /// Order-independent digest of `lines`; what the CI cross-binary
  /// OBS comparison and the repro files key on.
  uint64_t Digest() const;
};

struct Divergence {
  bool diverged = false;
  std::string detail;  ///< first differing record / violated subset
};

/// Executes workloads under explicit configurations and compares the
/// outcomes per the pair's equivalence class.
class DifferentialRunner {
 public:
  explicit DifferentialRunner(DiffOptions options = {});

  /// Engine configuration both sides share, varied deterministically by
  /// seed so a sweep covers the config space (epsilon and spreading K from
  /// seed % 3) instead of one fixed point.
  NebulaConfig BaseConfig(uint64_t seed) const;

  /// One side: builds the universe for workload.seed, streams the
  /// annotations through a fresh engine, returns the canonical outcome.
  [[nodiscard]] Result<RunOutcome> Run(const CheckWorkload& workload,
                         const NebulaConfig& config, bool batch_mode,
                         bool exercise_obs) const;

  /// Both sides of `pair` plus the comparison.
  [[nodiscard]] Result<Divergence> RunPair(ConfigPair pair,
                             const CheckWorkload& workload) const;

  const DiffOptions& options() const { return options_; }

 private:
  DiffOptions options_;
};

}  // namespace nebula::check

#endif  // NEBULA_TESTING_DIFFERENTIAL_H_
