#include "testing/differential.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <utility>

#include "annotation/annotation_store.h"
#include "annotation/verification_task.h"
#include "common/fault.h"
#include "common/fault_points.h"
#include "common/lockdep.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/identify.h"
#include "core/verification.h"
#include "keyword/query_types.h"
#include "storage/query.h"
#include "storage/schema.h"
#include "testing/check_workload.h"

namespace nebula::check {

namespace {

/// Whether the runtime lock-order witness is compiled into this binary
/// (-DNEBULA_LOCKDEP=ON). Off: the lockdep pair still runs — both sides
/// unwitnessed — so the pair list is build-invariant.
#if NEBULA_LOCKDEP_ENABLED
constexpr bool kLockdepCompiledIn = true;
#else
constexpr bool kLockdepCompiledIn = false;
#endif

/// FNV-1a over a byte sequence; the same digest an OBS=OFF binary
/// computes, so CI can compare the two builds' canonical outcomes.
uint64_t FnvMix(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// One canonical record per report: everything semantically observable,
/// nothing wall-clock dependent. %.17g round-trips doubles exactly, so
/// "equal lines" means "equal results" bit for bit.
std::string CanonicalReportLine(size_t index, const AnnotationReport& r) {
  std::string line = StrFormat("a%zu id=%llu q={", index,
                               static_cast<unsigned long long>(r.annotation));
  for (size_t i = 0; i < r.queries.size(); ++i) {
    if (i > 0) line += ';';
    const KeywordQuery& q = r.queries[i];
    line += (q.label.empty() ? q.ToString() : q.label) +
            StrFormat(":w=%.17g", q.weight);
  }
  line += StrFormat(
      "} mode=%s mini=%zu cand={",
      r.mode == SearchMode::kFocalSpreading ? "focal" : "full",
      r.mini_db_size);
  for (size_t i = 0; i < r.candidates.size(); ++i) {
    if (i > 0) line += ';';
    line += r.candidates[i].tuple.ToString() +
            StrFormat("=%.17g", r.candidates[i].confidence);
  }
  line += StrFormat(
      "} ver=%zu/%zu/%zu/%zu spam=%d", r.verification.auto_accepted,
      r.verification.auto_rejected, r.verification.pending,
      r.verification.already_attached, r.spam.spam_suspected ? 1 : 0);
  return line;
}

Divergence CompareExact(const RunOutcome& a, const RunOutcome& b) {
  Divergence d;
  const size_t n = std::min(a.lines.size(), b.lines.size());
  for (size_t i = 0; i < n; ++i) {
    if (a.lines[i] != b.lines[i]) {
      d.diverged = true;
      d.detail = StrFormat("record %zu differs:\n  A: %s\n  B: %s", i,
                           a.lines[i].c_str(), b.lines[i].c_str());
      return d;
    }
  }
  if (a.lines.size() != b.lines.size()) {
    d.diverged = true;
    d.detail = StrFormat("record count differs: A=%zu B=%zu", a.lines.size(),
                         b.lines.size());
  }
  return d;
}

/// kSpreading: per annotation, spreading's candidates must be a subset of
/// the exact run's. See the ConfigPair::kSpreading doc for why equality
/// is deliberately not required.
Divergence CompareSubset(const RunOutcome& exact,
                         const RunOutcome& approx) {
  Divergence d;
  if (exact.candidates.size() != approx.candidates.size()) {
    d.diverged = true;
    d.detail = StrFormat("annotation count differs: exact=%zu spreading=%zu",
                         exact.candidates.size(), approx.candidates.size());
    return d;
  }
  for (size_t i = 0; i < exact.candidates.size(); ++i) {
    const std::set<TupleId> full(exact.candidates[i].begin(),
                                 exact.candidates[i].end());
    for (const TupleId& t : approx.candidates[i]) {
      if (full.count(t) == 0) {
        d.diverged = true;
        d.detail = StrFormat(
            "annotation %zu: spreading candidate %s absent from the "
            "full-database run",
            i, t.ToString().c_str());
        return d;
      }
    }
  }
  return d;
}

}  // namespace

const char* ConfigPairName(ConfigPair pair) {
  switch (pair) {
    case ConfigPair::kThreads:
      return "threads";
    case ConfigPair::kBatch:
      return "batch";
    case ConfigPair::kObs:
      return "obs";
    case ConfigPair::kSpreading:
      return "spreading";
    case ConfigPair::kValueIndex:
      return "index";
    case ConfigPair::kDurability:
      return "durability";
    case ConfigPair::kLockdep:
      return "lockdep";
  }
  return "?";
}

const char* ConfigPairDescription(ConfigPair pair) {
  switch (pair) {
    case ConfigPair::kThreads:
      return "sequential vs pooled batch ingest (exact equivalence)";
    case ConfigPair::kBatch:
      return "per-annotation inserts vs one batch call (exact equivalence)";
    case ConfigPair::kObs:
      return "observability quiet vs exercised mid-run (exact equivalence)";
    case ConfigPair::kSpreading:
      return "full-database search vs focal spreading (subset check)";
    case ConfigPair::kValueIndex:
      return "legacy scan-and-recompile path vs value index + plan cache "
             "(exact, including ExecStats)";
    case ConfigPair::kDurability:
      return "durability off vs WAL+snapshots (exact equivalence)";
    case ConfigPair::kLockdep:
      return "lockdep witness off vs armed; violations diverge the "
             "transcript (exact equivalence)";
  }
  return "?";
}

Result<ConfigPair> ParseConfigPair(std::string_view name) {
  // Long-form alias used by docs and CI; "index" is the canonical name.
  if (name == "index-vs-scan") return ConfigPair::kValueIndex;
  std::string known;
  for (ConfigPair pair : kAllConfigPairs) {
    if (name == ConfigPairName(pair)) return pair;
    if (!known.empty()) known += " | ";
    known += ConfigPairName(pair);
  }
  return Status::InvalidArgument("unknown config pair '" + std::string(name) +
                                 "' (expected " + known + ")");
}

void AppendStateLines(const AnnotationStore& store, NebulaEngine& engine,
                      std::vector<std::string>* lines) {
  for (const Attachment& att : store.AllAttachments()) {
    lines->push_back(StrFormat(
        "att a=%llu t=%s ty=%c w=%.17g",
        static_cast<unsigned long long>(att.annotation),
        att.tuple.ToString().c_str(),
        att.type == AttachmentType::kTrue ? 'T' : 'P', att.weight));
  }
  for (const VerificationTask& task : engine.verification().tasks()) {
    lines->push_back(StrFormat(
        "task vid=%llu a=%llu t=%s conf=%.17g state=%s",
        static_cast<unsigned long long>(task.vid),
        static_cast<unsigned long long>(task.annotation),
        task.tuple.ToString().c_str(), task.confidence,
        TaskStateName(task.state)));
  }
  lines->push_back(StrFormat(
      "tasks next_vid=%llu auto_rejected=%llu",
      static_cast<unsigned long long>(engine.verification().next_vid()),
      static_cast<unsigned long long>(engine.verification().auto_rejected())));
  lines->push_back(StrFormat(
      "acg fp=%016llx nodes=%zu edges=%zu",
      static_cast<unsigned long long>(engine.acg().Fingerprint()),
      engine.acg().num_nodes(), engine.acg().num_edges()));
}

uint64_t RunOutcome::Digest() const {
  uint64_t h = 1469598103934665603ULL;
  for (const std::string& line : lines) {
    h = FnvMix(h, line.data(), line.size());
    h = FnvMix(h, "\n", 1);
  }
  return h;
}

DifferentialRunner::DifferentialRunner(DiffOptions options)
    : options_(std::move(options)) {}

NebulaConfig DifferentialRunner::BaseConfig(uint64_t seed) const {
  NebulaConfig config;
  // Deterministic per-seed variation so a sweep covers the config space,
  // not one point of it.
  static constexpr double kEpsilons[] = {0.45, 0.6, 0.75};
  config.generation.epsilon = kEpsilons[seed % 3];
  config.spreading.fixed_k = 1 + static_cast<size_t>(seed % 3);
  // Quiet by default; the kObs pair turns the runtime surface on.
  config.event_capacity = 0;
  return config;
}

Result<RunOutcome> DifferentialRunner::Run(const CheckWorkload& workload,
                                           const NebulaConfig& config,
                                           bool batch_mode,
                                           bool exercise_obs) const {
  NEBULA_ASSIGN_OR_RETURN(std::unique_ptr<CheckUniverse> universe,
                          BuildCheckUniverse(workload.seed,
                                             options_.workload));
  NebulaEngine engine(&universe->catalog, &universe->store, &universe->meta,
                      config);
  engine.RebuildAcg();
  if (!config.durability_dir.empty()) {
    NEBULA_RETURN_NOT_OK(engine.OpenDurability());
  }
  size_t sink_lines = 0;
  if (exercise_obs) {
    engine.event_log().SetSink([&sink_lines](const std::string&) {
      ++sink_lines;
      return true;
    });
  }

  std::vector<AnnotationReport> reports;
  if (batch_mode) {
    std::vector<AnnotationRequest> requests;
    requests.reserve(workload.annotations.size());
    for (const CheckAnnotation& a : workload.annotations) {
      requests.push_back({a.text, a.focal, a.author});
    }
    NEBULA_ASSIGN_OR_RETURN(reports, engine.InsertAnnotations(requests));
    if (exercise_obs) {
      (void)NebulaEngine::DumpMetrics();
      (void)engine.DumpEvents();
    }
  } else {
    for (size_t i = 0; i < workload.annotations.size(); ++i) {
      const CheckAnnotation& a = workload.annotations[i];
      NEBULA_ASSIGN_OR_RETURN(
          AnnotationReport report,
          engine.InsertAnnotation(a.text, a.focal, a.author));
      reports.push_back(std::move(report));
      // Observation in the middle of the stream must not perturb the
      // rest of it.
      if (exercise_obs && (i & 1) != 0) {
        (void)NebulaEngine::DumpMetrics();
        (void)engine.DumpEvents();
      }
    }
  }

  RunOutcome out;
  for (size_t i = 0; i < reports.size(); ++i) {
    out.lines.push_back(CanonicalReportLine(i, reports[i]));
    std::vector<TupleId> tuples;
    tuples.reserve(reports[i].candidates.size());
    for (const CandidateTuple& c : reports[i].candidates) {
      tuples.push_back(c.tuple);
    }
    out.candidates.push_back(std::move(tuples));
  }
  AppendStateLines(universe->store, engine, &out.lines);
  // The engine's ExecStats totals, which the index pair promises
  // bit-identical. Not in AppendStateLines: the crash harness shares it,
  // and its recovered engine never ran the pre-crash statements.
  const ExecStats& stats = engine.search_engine().stats();
  out.lines.push_back(StrFormat(
      "stats rows=%llu lookups=%llu matches=%llu",
      static_cast<unsigned long long>(stats.rows_examined),
      static_cast<unsigned long long>(stats.index_lookups),
      static_cast<unsigned long long>(stats.matches)));
  return out;
}

Result<Divergence> DifferentialRunner::RunPair(
    ConfigPair pair, const CheckWorkload& workload) const {
  NebulaConfig config_a = BaseConfig(workload.seed);
  NebulaConfig config_b = config_a;
  bool batch_a = false, batch_b = false;
  bool obs_a = false, obs_b = false;
  switch (pair) {
    case ConfigPair::kThreads:
      batch_a = batch_b = true;
      config_a.num_threads = 0;
      config_b.num_threads = options_.num_threads;
      break;
    case ConfigPair::kBatch:
      config_a.num_threads = options_.num_threads;
      config_b.num_threads = options_.num_threads;
      batch_b = true;
      break;
    case ConfigPair::kObs:
      // Wide-event logging with sampling and the slow-query override both
      // in play: the sampling draw, the JSON rendering, and the counting
      // sink must all be invisible to engine results.
      config_b.event_capacity = 64;
      config_b.event_sample_rate = 0.5;
      config_b.event_seed = workload.seed;
      config_b.slow_query_us = 1;
      obs_b = true;
      break;
    case ConfigPair::kSpreading:
      config_a.enable_focal_spreading = false;
      config_b.enable_focal_spreading = true;
      config_b.spreading.require_stable_acg = false;
      break;
    case ConfigPair::kValueIndex:
      config_a.use_value_index = false;
      config_b.use_value_index = true;
      break;
    case ConfigPair::kDurability: {
      // Unique per process+seed so parallel sweeps never share a journal.
      const std::string scratch =
          (std::filesystem::temp_directory_path() /
           StrFormat("nebula_check_dur_%llu_%llu",
                     static_cast<unsigned long long>(::getpid()),
                     static_cast<unsigned long long>(workload.seed)))
              .string();
      std::filesystem::remove_all(scratch);
      config_b.durability_dir = scratch;
      // Tight cadence so the WAL-truncate + snapshot path runs many times
      // per workload, not once at the end.
      config_b.snapshot_every_n = 2;
      break;
    }
    case ConfigPair::kLockdep:
      // Identical configs; the two sides differ only in whether the
      // process-global lockdep witness observes the run (armed around
      // the B side below). Stage-1 pool workers run concurrently with the
      // caller's Stage 2, so the witness sees both threads' lock chains.
      batch_a = batch_b = true;
      config_a.num_threads = options_.num_threads;
      config_b.num_threads = options_.num_threads;
      break;
  }
  // The lockdep pair's planted bug is a fault-induced inversion on the B
  // side (only meaningful with the witness compiled in); every other
  // exact pair plants a semantic mis-configuration.
  const bool lockdep_witnessed =
      pair == ConfigPair::kLockdep && kLockdepCompiledIn;
  if (options_.inject_bug && pair != ConfigPair::kSpreading &&
      !lockdep_witnessed) {
    // Deliberate semantic mis-configuration of the B side; real-world
    // equivalent of a config plumbing bug. Exists so the harness's own
    // detection -> shrink -> replay loop is testable.
    config_b.generation.epsilon = 0.95;
    config_b.identify.group_reward = false;
  }

#if NEBULA_LOCKDEP_ENABLED
  if (lockdep_witnessed) lockdep::SetEnabled(false);
#endif
  Result<RunOutcome> outcome_a = Run(workload, config_a, batch_a, obs_a);
#if NEBULA_LOCKDEP_ENABLED
  std::unique_ptr<ScopedFault> planted;
  if (lockdep_witnessed) {
    lockdep::ResetForTest();
    lockdep::SetFailureMode(lockdep::FailureMode::kReport);
    lockdep::SetEnabled(true);
    if (options_.inject_bug) {
      // One fired check anywhere in the B run plants a canonical
      // violation line — a deterministic transcript divergence the
      // sweep catches and the shrinker/replayer reproduce.
      FaultSpec spec;
      spec.max_fires = 1;
      planted = std::make_unique<ScopedFault>(kFaultCommonLockdepCheck,
                                              std::move(spec));
    }
  }
#endif
  Result<RunOutcome> outcome_b = Run(workload, config_b, batch_b, obs_b);
#if NEBULA_LOCKDEP_ENABLED
  if (lockdep_witnessed) {
    planted.reset();
    lockdep::SetEnabled(false);
    for (const lockdep::Violation& v : lockdep::TakeViolations()) {
      if (outcome_b.ok()) {
        outcome_b->lines.push_back(
            StrFormat("lockdep-violation kind=%s", v.kind.c_str()));
      }
    }
  }
#endif
  if (!config_b.durability_dir.empty()) {
    std::error_code ec;  // best-effort scratch cleanup, even on failure
    std::filesystem::remove_all(config_b.durability_dir, ec);
  }
  NEBULA_RETURN_NOT_OK(outcome_a.status());
  NEBULA_RETURN_NOT_OK(outcome_b.status());
  return pair == ConfigPair::kSpreading
             ? CompareSubset(*outcome_a, *outcome_b)
             : CompareExact(*outcome_a, *outcome_b);
}

}  // namespace nebula::check
