#ifndef NEBULA_CORE_ENGINE_H_
#define NEBULA_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "annotation/annotation_store.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/acg.h"
#include "core/focal_spreading.h"
#include "core/identify.h"
#include "core/query_generation.h"
#include "core/spam.h"
#include "core/verification.h"
#include "durability/journal.h"
#include "durability/manager.h"
#include "durability/wal.h"
#include "keyword/engine.h"
#include "keyword/query_types.h"
#include "meta/nebula_meta.h"
#include "obs/event.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "storage/catalog.h"
#include "storage/schema.h"

namespace nebula {

/// Which execution mode Stage 2 used for an annotation.
enum class SearchMode { kFullDatabase, kFocalSpreading };

/// Top-level engine configuration.
struct NebulaConfig {
  QueryGenerationParams generation;
  KeywordSearchParams search;
  IdentifyParams identify;
  FocalSpreadingParams spreading;
  VerificationBounds bounds;
  /// Master switch for the §6.3 approximation. Even when true, the engine
  /// falls back to full search while the ACG is not stable (unless the
  /// spreading params disable that requirement).
  bool enable_focal_spreading = false;
  AcgStabilityConfig acg_stability;
  /// Master switch for the two Stage-2 accelerations: posting-list
  /// intersection over the tables' unified inverted value index, and
  /// whether Stage 2 is handed the engine's keyword->configuration plan
  /// cache. Off forces the legacy driver-and-recompile path everywhere;
  /// results, rankings, and ExecStats are bit-identical either way (the
  /// differential harness's "index" pair proves it).
  bool use_value_index = true;
  /// Footnote-1 guard: when an annotation's prediction covers an
  /// excessive share of the database, skip verification submission.
  bool enable_spam_guard = true;
  SpamGuardParams spam_guard;
  /// Width of the batch Stage-1 pipeline: InsertAnnotations generates the
  /// batch's keyword queries on this many engine-owned workers while the
  /// stateful stages run in request order on the caller. 0 runs the batch
  /// one annotation at a time. Every other operation, and all of Stage 2,
  /// runs on the calling thread; results and stats are identical either
  /// way (see DESIGN.md "Concurrency model").
  size_t num_threads = 0;
  /// Wide-event log (one JSON-lines record per insert and per search;
  /// DESIGN.md §7). `event_capacity` bounds the
  /// in-memory ring (0 keeps no lines); `event_sample_rate` is the
  /// probability a record is kept (drawn from a seeded Rng, so runs
  /// replay identically); operations lasting at least `slow_query_us`
  /// microseconds are ALWAYS recorded regardless of sampling (0 disables
  /// the slow-query rule); `event_seed` seeds the sampling draw.
  size_t event_capacity = 256;
  double event_sample_rate = 1.0;
  uint64_t slow_query_us = 0;
  uint64_t event_seed = 0;
  /// Durability (WAL + snapshots; DESIGN.md §12). Empty `durability_dir`
  /// keeps durability off — the engine behaves bit-identically to the
  /// pre-durability engine. Non-empty: call OpenDurability() after
  /// construction; every mutation is then journaled before it is applied
  /// in memory.
  std::string durability_dir;
  durability::SyncMode wal_sync_mode = durability::SyncMode::kFlush;
  /// Snapshot cadence in committed operations; 0 = the baseline snapshot
  /// only (the whole history stays in the WAL).
  size_t snapshot_every_n = 64;
};

/// One annotation of a batch-ingest request: the free text, its focal
/// (True) attachments, and the author.
struct AnnotationRequest {
  std::string text;
  std::vector<TupleId> focal;
  std::string author;
};

/// Per-stage wall-time breakdown of one InsertAnnotation call. Discovery-
/// only paths (Discover / the benchmarks) fill generation_us and
/// search_us alone.
struct StageTimings {
  uint64_t store_us = 0;         ///< Stage 0: store + focal ACG update
  uint64_t generation_us = 0;    ///< Stage 1: text -> keyword queries
  uint64_t search_us = 0;        ///< Stage 2: execution + identification
  uint64_t verification_us = 0;  ///< Stage 3: spam guard + task submission
  uint64_t total_us() const {
    return store_us + generation_us + search_us + verification_us;
  }
};

/// Everything Nebula did for one inserted annotation (stages 1-3).
struct AnnotationReport {
  AnnotationId annotation = 0;
  std::vector<KeywordQuery> queries;
  std::vector<CandidateTuple> candidates;
  SearchMode mode = SearchMode::kFullDatabase;
  size_t mini_db_size = 0;  ///< 0 under full-database search
  uint64_t mini_db_us = 0;  ///< BuildMiniDb wall time; 0 under full search
  SubmitOutcome verification;
  /// Footnote-1 guard verdict; when spam is suspected, no verification
  /// tasks were created for this annotation.
  SpamVerdict spam;
  QueryGenerationTiming generation_timing;  ///< Stage-1 phase breakdown
  StageTimings timings;                     ///< full stage 0-3 breakdown
};

/// The Nebula proactive annotation-management engine: wires the passive
/// annotation store, the metadata repository, the keyword-search engine,
/// the ACG, and the verification manager into the paper's
/// insert-annotation -> discover -> verify pipeline.
class NebulaEngine {
 public:
  /// All dependencies are borrowed; the caller owns them and must keep
  /// them alive for the engine's lifetime.
  NebulaEngine(Catalog* catalog, AnnotationStore* store, NebulaMeta* meta,
               NebulaConfig config = {});

  /// Stage 0: inserts a new annotation with its initial (focal)
  /// attachments, then runs discovery (stages 1-2) and verification
  /// submission (stage 3). Returns the full report.
  [[nodiscard]] Result<AnnotationReport> InsertAnnotation(
      const std::string& text, const std::vector<TupleId>& focal,
      const std::string& author = "");

  /// Batch ingest: semantically identical to calling InsertAnnotation on
  /// each request in order (reports come back in request order), but with
  /// config().num_threads > 0 the batch's Stage-1 query generation — a
  /// pure function of the metadata and the text — runs ahead on the worker
  /// pool, one task per request, while the stateful stages (0, 2, 3)
  /// proceed in request order on the calling thread.
  [[nodiscard]] Result<std::vector<AnnotationReport>> InsertAnnotations(
      std::span<const AnnotationRequest> requests);

  /// Discovery only (stages 1-2) for an already-stored annotation: used by
  /// the BoundsSetting trainer and the benchmarks. Does not create
  /// verification tasks or modify any state.
  [[nodiscard]] Result<AnnotationReport> Discover(AnnotationId annotation,
                                    const std::vector<TupleId>& focal);

  /// Rebuilds the ACG from the store's current True attachments (the
  /// "built at once" experimental setup).
  void RebuildAcg();

  /// Opens (or recovers) the durability subsystem at
  /// config().durability_dir. Fresh directory: writes a baseline snapshot
  /// of the engine's current state. Existing directory: the store, the
  /// metadata, and the verification tasks are REPLACED by the recovered
  /// image (latest snapshot + WAL tail; the base catalog stays
  /// host-provided) and the ACG is rebuilt — the engine must not have
  /// verification tasks yet. `hooks` is test-only (fault planting).
  [[nodiscard]] Status OpenDurability(const durability::OpenHooks& hooks = {});

  /// The durability manager; nullptr while durability is off.
  durability::Manager* durability() { return durability_.get(); }
  /// What OpenDurability found on disk (zero-value before it ran).
  const durability::RecoveryInfo& recovery_info() const {
    return recovery_info_;
  }

  Catalog* catalog() { return catalog_; }
  AnnotationStore* store() { return store_; }
  NebulaMeta* meta() { return meta_; }
  Acg& acg() { return acg_; }
  const Acg& acg() const { return acg_; }
  KeywordSearchEngine& search_engine() { return search_engine_; }
  PlanCache& plan_cache() { return plan_cache_; }
  VerificationManager& verification() { return verification_; }
  NebulaConfig& config() { return config_; }
  const NebulaConfig& config() const { return config_; }

  // --- Observability surface ---

  /// Serializes the process-global metrics registry (every engine, pool,
  /// executor, ACG, and verification instrument) in Prometheus text
  /// exposition format or as JSON.
  static std::string DumpMetrics(
      obs::ExportFormat format = obs::ExportFormat::kPrometheus);

  /// This engine's wide-event log (bounded by config().event_capacity;
  /// see DESIGN.md §7 for the record schema).
  obs::EventLog& event_log() { return event_log_; }
  const obs::EventLog& event_log() const { return event_log_; }

  /// The retained wide events as JSON lines, oldest first.
  std::string DumpEvents() const { return event_log_.DumpJsonLines(); }

 private:
  /// Stage 0: stores the annotation and its focal (True) attachments.
  [[nodiscard]] Result<AnnotationId> StoreWithFocal(const std::string& text,
                                      const std::vector<TupleId>& focal,
                                      const std::string& author);
  /// Stage 2 for an already-generated query group.
  [[nodiscard]] Result<AnnotationReport> DiscoverWithQueries(
      AnnotationId annotation, const std::vector<TupleId>& focal,
      QueryGenerationResult generated);
  /// Spam guard + Stage 3 on a discovery report. Under durability the
  /// stage-3 commit unit (possibly empty, when spam-guarded) is journaled
  /// before the tasks are applied; a journaling failure surfaces here and
  /// leaves stage 3 unapplied.
  [[nodiscard]] Status SubmitCandidates(AnnotationReport* report);
  /// Journals `unit` through the durability manager, preceded by a meta
  /// blob unit whenever the metadata version changed since the last
  /// journaled one.
  [[nodiscard]] Status JournalUnit(durability::CommitUnit* unit);
  /// The full stage 0-3 pipeline for one annotation, metered and recorded
  /// as one wide event;
  /// `pregenerated`, when given, short-circuits Stage 1 (batch ingest).
  [[nodiscard]] Result<AnnotationReport> InsertOne(const std::string& text,
                                     const std::vector<TupleId>& focal,
                                     const std::string& author,
                                     QueryGenerationResult* pregenerated);
  /// The batch Stage-1 pool sized per config().num_threads; nullptr when
  /// num_threads == 0. Lazily (re)built when the knob changes.
  ThreadPool* pool();

  Catalog* catalog_;
  AnnotationStore* store_;
  NebulaMeta* meta_;
  NebulaConfig config_;
  Acg acg_;
  KeywordSearchEngine search_engine_;
  PlanCache plan_cache_;
  VerificationManager verification_;
  obs::EventLog event_log_;
  std::unique_ptr<durability::Manager> durability_;
  durability::RecoveryInfo recovery_info_;
  /// Meta version covered by the last journaled blob (or the snapshot
  /// written/loaded at OpenDurability).
  uint64_t journaled_meta_version_ = 0;
  /// Each table's value-index size gauges (tokens, postings) by table id,
  /// looked up in the metrics registry the first time its index is seen
  /// built.
  std::vector<std::pair<obs::Gauge*, obs::Gauge*>> index_gauges_;
  // Declared last: destroyed first, joining any in-flight workers while
  // the rest of the engine is still alive.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace nebula

#endif  // NEBULA_CORE_ENGINE_H_
