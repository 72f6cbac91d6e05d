#include "core/engine.h"

#include <cstdio>
#include <filesystem>
#include <future>
#include <optional>
#include <unordered_set>
#include <utility>

#include "annotation/annotation_store.h"
#include "annotation/verification_task.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/focal_spreading.h"
#include "core/identify.h"
#include "core/query_generation.h"
#include "core/verification.h"
#include "durability/journal.h"
#include "durability/manager.h"
#include "durability/meta_serialize.h"
#include "keyword/mini_db.h"
#include "meta/nebula_meta.h"
#include "obs/event.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "storage/catalog.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace nebula {

namespace {

/// Process-wide engine instruments, resolved once.
struct EngineMetrics {
  obs::Counter* inserted;
  obs::Counter* queries_generated;
  obs::Counter* candidates;
  obs::Counter* mode_full;
  obs::Counter* mode_focal;
  obs::Counter* spam_suspected;
  obs::Histogram* stage_store;
  obs::Histogram* stage_generation;
  obs::Histogram* stage_execution;
  obs::Histogram* stage_verification;
};

const EngineMetrics& Metrics() {
  static const EngineMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    EngineMetrics out;
    out.inserted =
        r.GetCounter("nebula_annotations_inserted_total", {},
                     "Annotations run through the full insert pipeline");
    out.queries_generated =
        r.GetCounter("nebula_queries_generated_total", {},
                     "Keyword queries produced by Stage 1");
    out.candidates =
        r.GetCounter("nebula_candidates_discovered_total", {},
                     "Candidate tuples produced by Stage 2");
    const std::string mode_help =
        "Stage-2 execution mode decisions (focal spreading vs full search)";
    out.mode_full = r.GetCounter("nebula_search_mode_total",
                                 {{"mode", "full_database"}}, mode_help);
    out.mode_focal = r.GetCounter("nebula_search_mode_total",
                                  {{"mode", "focal_spreading"}}, "");
    out.spam_suspected =
        r.GetCounter("nebula_spam_suspected_total", {},
                     "Annotations the footnote-1 guard kept out of "
                     "verification");
    const std::string stage_help =
        "Wall time per pipeline stage of one annotation insert";
    out.stage_store = r.GetHistogram("nebula_stage_duration_us",
                                     {{"stage", "store"}}, stage_help);
    out.stage_generation = r.GetHistogram("nebula_stage_duration_us",
                                          {{"stage", "generation"}}, "");
    out.stage_execution = r.GetHistogram("nebula_stage_duration_us",
                                         {{"stage", "execution"}}, "");
    out.stage_verification = r.GetHistogram("nebula_stage_duration_us",
                                            {{"stage", "verification"}}, "");
    return out;
  }();
  return m;
}

/// Compact verification summary for the wide event ("spam_guarded" when
/// the footnote-1 guard kept the annotation out of verification).
std::string VerificationSummary(const AnnotationReport& report) {
  if (report.spam.spam_suspected) return "spam_guarded";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "accepted=%zu,rejected=%zu,pending=%zu",
                report.verification.auto_accepted,
                report.verification.auto_rejected,
                report.verification.pending);
  return buf;
}

/// Fills the operation-independent tail of a wide event from the report
/// and the attribution context, then records it.
void RecordOperationEvent(obs::EventLog* log, const char* op,
                          uint64_t op_id, const obs::EventContext& context,
                          const AnnotationReport& report,
                          uint64_t duration_us, bool verified) {
  obs::WideEvent event;
  event.op = op;
  event.op_id = op_id;
  event.annotation = report.annotation;
  event.thread = obs::CurrentThreadId();
  event.duration_us = duration_us;
  event.store_us = report.timings.store_us;
  event.generation_us = report.timings.generation_us;
  event.map_generation_us = report.generation_timing.map_generation_us;
  event.context_adjust_us = report.generation_timing.context_adjust_us;
  event.query_formation_us = report.generation_timing.query_formation_us;
  event.search_us = report.timings.search_us;
  event.search_mode = report.mode == SearchMode::kFocalSpreading
                          ? "focal_spreading"
                          : "full_database";
  event.mini_db_us = report.mini_db_us;
  event.verification_us = report.timings.verification_us;
  obs::FillEventFromContext(&event, context);
  // Discovery-only operations never ran Stage 3; leave the outcome out.
  if (verified) event.verification = VerificationSummary(report);
  event.spam_suspected = report.spam.spam_suspected;
  const uint64_t slow_us = log->options().slow_us;
  event.slow = slow_us != 0 && duration_us >= slow_us;
  log->Record(event);
}

}  // namespace

NebulaEngine::NebulaEngine(Catalog* catalog, AnnotationStore* store,
                           NebulaMeta* meta, NebulaConfig config)
    : catalog_(catalog),
      store_(store),
      meta_(meta),
      config_(config),
      acg_(config.acg_stability),
      search_engine_(catalog, meta, config.search),
      plan_cache_(meta),
      verification_(store, &acg_, config.bounds),
      event_log_({config.event_capacity, config.event_sample_rate,
                  config.slow_query_us, config.event_seed}) {}

void NebulaEngine::RebuildAcg() { acg_.BuildFromStore(*store_); }

Status NebulaEngine::OpenDurability(const durability::OpenHooks& hooks) {
  if (config_.durability_dir.empty()) {
    return Status::InvalidArgument(
        "NebulaConfig::durability_dir must be set before OpenDurability");
  }
  if (durability_ != nullptr) {
    return Status::InvalidArgument("durability already open");
  }
  durability::Manager::Options options;
  options.dir = config_.durability_dir;
  options.sync = config_.wal_sync_mode;
  options.snapshot_every_n = config_.snapshot_every_n;

  std::error_code ec;
  const bool recovering = std::filesystem::exists(
      std::filesystem::path(config_.durability_dir) / "CURRENT", ec);
  if (recovering) {
    // next_vid, not tasks(): an engine whose every candidate was
    // auto-rejected retains no task yet has used vids.
    if (verification_.next_vid() != 0) {
      return Status::InvalidArgument(
          "cannot recover into an engine that already has verification "
          "tasks");
    }
    // The on-disk image replaces whatever seeded state the caller loaded;
    // only the base catalog stays host-provided.
    *store_ = AnnotationStore();
    NebulaMeta fresh_meta(meta_->lexicon());
    *meta_ = std::move(fresh_meta);
  }
  TaskImage recovered;
  NEBULA_ASSIGN_OR_RETURN(
      durability_,
      durability::Manager::Open(options, store_, meta_, &verification_.image(),
                                &recovered, hooks));
  if (durability_->recovery_info().recovered) {
    NEBULA_RETURN_NOT_OK(verification_.RestoreTasks(std::move(recovered)));
    // Derived state: the ACG is rebuilt eagerly (its fingerprint is the
    // recovery oracle); value indexes and caches rebuild lazily on use.
    RebuildAcg();
  }
  recovery_info_ = durability_->recovery_info();
  journaled_meta_version_ = meta_->version();
  verification_.set_journal(durability_.get());
  return Status::OK();
}

Status NebulaEngine::JournalUnit(durability::CommitUnit* unit) {
  if (meta_->version() != journaled_meta_version_) {
    durability::CommitUnit meta_unit;  // flags 0: bookkeeping, not an op
    durability::JournalRecord blob;
    blob.kind = durability::JournalRecord::Kind::kMetaBlob;
    blob.text = durability::MetaSerializer::SaveToString(*meta_);
    meta_unit.records.push_back(std::move(blob));
    NEBULA_RETURN_NOT_OK(durability_->Append(&meta_unit));
    journaled_meta_version_ = meta_->version();
  }
  return durability_->Append(unit);
}

ThreadPool* NebulaEngine::pool() {
  const size_t n = config_.num_threads;
  if (n == 0) {
    pool_.reset();
    return nullptr;
  }
  if (pool_ == nullptr || pool_->num_threads() != n) {
    pool_ = std::make_unique<ThreadPool>(n);
  }
  return pool_.get();
}

std::string NebulaEngine::DumpMetrics(obs::ExportFormat format) {
  return format == obs::ExportFormat::kPrometheus
             ? obs::ExportPrometheus(obs::MetricsRegistry::Global())
             : obs::ExportJson(obs::MetricsRegistry::Global());
}

Result<AnnotationReport> NebulaEngine::DiscoverWithQueries(
    AnnotationId annotation, const std::vector<TupleId>& focal,
    QueryGenerationResult generated) {
  AnnotationReport report;
  report.annotation = annotation;
  report.queries = std::move(generated.queries);
  report.generation_timing = generated.timing;
  report.timings.generation_us = generated.timing.total_us();

  // Stage 2: execute the queries, full-database or focal-spreading.
  search_engine_.params() = config_.search;
  // Master legacy switch: off means no index fast path and no plan cache,
  // the bit-identical historical execution everywhere.
  if (!config_.use_value_index) {
    search_engine_.params().use_value_index = false;
  }
  TupleIdentifier identifier(&search_engine_, &acg_, config_.identify,
                             config_.use_value_index ? &plan_cache_ : nullptr);
  FocalSpreading spreading(&acg_, config_.spreading);

  Stopwatch watch;
  MiniDb mini;
  const MiniDb* mini_ptr = nullptr;
  if (config_.enable_focal_spreading && spreading.ShouldApproximate(focal)) {
    Stopwatch mini_watch;
    mini = spreading.BuildMiniDb(focal);
    report.mini_db_us = mini_watch.ElapsedMicros();
    mini_ptr = &mini;
    report.mode = SearchMode::kFocalSpreading;
    report.mini_db_size = mini.size();
  } else {
    report.mode = SearchMode::kFullDatabase;
  }
  NEBULA_ASSIGN_OR_RETURN(
      report.candidates,
      identifier.Identify(report.queries, focal, mini_ptr));
  report.timings.search_us = watch.ElapsedMicros();

  if constexpr (obs::kEnabled) {
    const EngineMetrics& m = Metrics();
    (report.mode == SearchMode::kFocalSpreading ? m.mode_focal : m.mode_full)
        ->Increment();
    m.queries_generated->Increment(report.queries.size());
    m.candidates->Increment(report.candidates.size());
    m.stage_execution->Observe(report.timings.search_us);
    // Refresh the per-table value-index size gauges (one mutex grab per
    // table; unbuilt or degraded indexes report nothing). The registry
    // lookup runs once per table, not per operation.
    for (const auto& table : catalog_->tables()) {
      const Table::ValueIndexInfo info = table->value_index_info();
      if (!info.built) continue;
      if (index_gauges_.size() <= table->id()) {
        index_gauges_.resize(table->id() + 1);
      }
      auto& [tokens, postings] = index_gauges_[table->id()];
      if (tokens == nullptr) {
        auto& registry = obs::MetricsRegistry::Global();
        tokens = registry.GetGauge(
            "nebula_value_index_tokens", {{"table", table->name()}},
            "Distinct tokens in the table's inverted value index");
        postings = registry.GetGauge(
            "nebula_value_index_postings", {{"table", table->name()}},
            "Posting-list entries in the table's inverted value index");
      }
      tokens->Set(static_cast<int64_t>(info.tokens));
      postings->Set(static_cast<int64_t>(info.postings));
    }
  }
  return report;
}

Result<AnnotationReport> NebulaEngine::Discover(
    AnnotationId annotation, const std::vector<TupleId>& focal) {
  // A discovery is a "search" operation in the wide-event log.
  std::optional<obs::ScopedEventContext> event_scope;
  if constexpr (obs::kEnabled) event_scope.emplace(&event_log_);
  Stopwatch watch;

  NEBULA_ASSIGN_OR_RETURN(const Annotation* ann,
                          store_->GetAnnotation(annotation));

  // Stage 1: annotation text -> weighted keyword queries.
  QueryGenerator generator(meta_, config_.generation);
  Result<AnnotationReport> report =
      DiscoverWithQueries(annotation, focal, generator.Generate(ann->text));
  if constexpr (obs::kEnabled) {
    if (report.ok()) {
      RecordOperationEvent(&event_log_, "search", event_scope->op_id(),
                           *event_scope->context(), *report,
                           watch.ElapsedMicros(), /*verified=*/false);
    }
  }
  return report;
}

Result<AnnotationId> NebulaEngine::StoreWithFocal(
    const std::string& text, const std::vector<TupleId>& focal,
    const std::string& author) {
  // Stage 0: store the annotation and its focal (True) attachments.
  // Refuse a repeated focal tuple first: it is the only way the apply
  // below can fail, so nothing is applied (or journaled) in part.
  std::unordered_set<TupleId, TupleIdHash> seen;
  for (const TupleId& t : focal) {
    if (!seen.insert(t).second) {
      return Status::InvalidArgument("duplicate focal tuple " + t.ToString());
    }
  }
  const AnnotationId id = store_->num_annotations();
  durability::CommitUnit unit;
  if (durability_ != nullptr) {
    // Journal-before-apply: disk never gets ahead of memory.
    unit.flags = durability::kOpStart;
    {
      durability::JournalRecord r;
      r.kind = durability::JournalRecord::Kind::kAnnotation;
      r.id = id;
      r.author = author;
      r.text = text;
      unit.records.push_back(std::move(r));
    }
    for (const TupleId& t : focal) {
      durability::JournalRecord r;
      r.kind = durability::JournalRecord::Kind::kAttach;
      r.annotation = id;
      r.tuple = t;
      unit.records.push_back(std::move(r));
    }
    NEBULA_RETURN_NOT_OK(JournalUnit(&unit));
  }
  store_->AddAnnotation(text, author);  // assigns `id`: ids are sequential
  for (size_t i = 0; i < focal.size(); ++i) {
    NEBULA_RETURN_NOT_OK(store_->Attach(id, focal[i], AttachmentType::kTrue));
    // The focal attachments themselves also enter the ACG incrementally.
    std::vector<TupleId> siblings(focal.begin(), focal.begin() + i);
    acg_.AddAttachment(id, focal[i], siblings);
  }
  if (durability_ != nullptr) durability_->OnApplied(unit);
  return id;
}

Status NebulaEngine::SubmitCandidates(AnnotationReport* report) {
  // Footnote-1 spam guard: an annotation whose prediction covers an
  // excessive share of the database must not flood the verification
  // queue. Its round submits no candidate, yet the operation still
  // commits: under durability its empty stage-3 unit closes the insert so
  // recovery counts it.
  if (config_.enable_spam_guard) {
    report->spam = DetectSpam(report->candidates, catalog_->TotalRows(),
                              config_.spam_guard);
    if constexpr (obs::kEnabled) {
      if (report->spam.spam_suspected) Metrics().spam_suspected->Increment();
    }
  }
  const std::vector<CandidateTuple> none;

  // Stage 3: submit the candidates for verification; auto-accepts apply
  // their side effects (True attachment, ACG update, profile update).
  verification_.set_bounds(config_.bounds);
  PlannedSubmit planned = verification_.PlanSubmit(
      report->annotation,
      report->spam.spam_suspected ? none : report->candidates);
  durability::CommitUnit unit;
  if (durability_ != nullptr) {
    // Journal the whole stage-3 unit, then apply the identical plan.
    // Accepted tasks also journal their store effect (the task records
    // alone replay no attachments); auto-rejections journal one count
    // record, as they keep no task.
    unit.flags = durability::kOpEnd;
    for (const VerificationTask& task : planned.tasks) {
      durability::JournalRecord r;
      r.kind = durability::JournalRecord::Kind::kTask;
      r.task = task;
      unit.records.push_back(std::move(r));
      if (task.state == TaskState::kAutoAccepted) {
        durability::JournalRecord attach;
        attach.kind = durability::JournalRecord::Kind::kAttach;
        attach.annotation = task.annotation;
        attach.tuple = task.tuple;
        unit.records.push_back(std::move(attach));
      }
    }
    if (planned.outcome.auto_rejected > 0) {
      durability::JournalRecord rejected;
      rejected.kind = durability::JournalRecord::Kind::kRejected;
      rejected.id = planned.next_vid;
      rejected.count = planned.outcome.auto_rejected;
      unit.records.push_back(std::move(rejected));
    }
    NEBULA_RETURN_NOT_OK(JournalUnit(&unit));
  }
  report->verification = verification_.ApplySubmit(std::move(planned));
  if (durability_ != nullptr) durability_->OnApplied(unit);
  return Status::OK();
}

Result<AnnotationReport> NebulaEngine::InsertOne(
    const std::string& text, const std::vector<TupleId>& focal,
    const std::string& author, QueryGenerationResult* pregenerated) {
  // Attribution context for the wide event: every cache probe and SQL
  // execution below charges its counters here, on this thread.
  std::optional<obs::ScopedEventContext> event_scope;
  if constexpr (obs::kEnabled) event_scope.emplace(&event_log_);

  Stopwatch stage;

  // Stage 0.
  NEBULA_ASSIGN_OR_RETURN(const AnnotationId id,
                          StoreWithFocal(text, focal, author));
  const uint64_t store_us = stage.ElapsedMicros();

  // Stage 1 (already ran on a pool worker under batch ingest). Either way
  // its time is the generator's own phase total.
  QueryGenerationResult generated;
  if (pregenerated != nullptr) {
    generated = std::move(*pregenerated);
  } else {
    generated = QueryGenerator(meta_, config_.generation).Generate(text);
  }

  // Stage 2.
  NEBULA_ASSIGN_OR_RETURN(
      AnnotationReport report,
      DiscoverWithQueries(id, focal, std::move(generated)));
  report.timings.store_us = store_us;

  // Spam guard + Stage 3.
  stage.Restart();
  NEBULA_RETURN_NOT_OK(SubmitCandidates(&report));
  report.timings.verification_us = stage.ElapsedMicros();

  if constexpr (obs::kEnabled) {
    const EngineMetrics& m = Metrics();
    m.inserted->Increment();
    m.stage_store->Observe(report.timings.store_us);
    m.stage_generation->Observe(report.timings.generation_us);
    m.stage_verification->Observe(report.timings.verification_us);
    RecordOperationEvent(&event_log_, "insert", event_scope->op_id(),
                         *event_scope->context(), report,
                         report.timings.total_us(), /*verified=*/true);
  }
  return report;
}

Result<AnnotationReport> NebulaEngine::InsertAnnotation(
    const std::string& text, const std::vector<TupleId>& focal,
    const std::string& author) {
  return InsertOne(text, focal, author, /*pregenerated=*/nullptr);
}

Result<std::vector<AnnotationReport>> NebulaEngine::InsertAnnotations(
    std::span<const AnnotationRequest> requests) {
  std::vector<AnnotationReport> reports;
  reports.reserve(requests.size());

  ThreadPool* p = pool();
  if (p == nullptr) {
    // num_threads == 0: exactly the one-at-a-time path, preserving the
    // historical behavior (and determinism) of every existing caller.
    for (const AnnotationRequest& r : requests) {
      NEBULA_ASSIGN_OR_RETURN(AnnotationReport report,
                              InsertAnnotation(r.text, r.focal, r.author));
      reports.push_back(std::move(report));
    }
    return reports;
  }

  // Pipelined ingest. Stage 1 is a pure function of (metadata, generation
  // params, text) — it reads neither the store nor the ACG — so the whole
  // batch's query generation runs ahead on the pool while the stateful
  // stages (0: store+ACG, 2: execution, 3: verification) proceed strictly
  // in request order below. Per-annotation results are therefore
  // identical to one-at-a-time ingestion.
  //
  // The generator is shared-owned by every task so an early error return
  // from the sequential loop can never dangle a still-running worker.
  auto generator =
      std::make_shared<QueryGenerator>(meta_, config_.generation);
  std::vector<std::future<QueryGenerationResult>> generated;
  generated.reserve(requests.size());
  for (const AnnotationRequest& r : requests) {
    generated.push_back(p->Submit(
        [generator, text = r.text] { return generator->Generate(text); }));
  }

  for (size_t i = 0; i < requests.size(); ++i) {
    const AnnotationRequest& r = requests[i];
    QueryGenerationResult pregenerated = generated[i].get();
    NEBULA_ASSIGN_OR_RETURN(
        AnnotationReport report,
        InsertOne(r.text, r.focal, r.author, &pregenerated));
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace nebula
