/// Runs the paper's Figure-1 scenario through an instrumented engine and
/// dumps the observability surface: the process-global metrics registry
/// (Prometheus text by default, JSON with --metrics=json) followed by the
/// engine's wide events as JSON lines.
///
///   nebula_obs_dump [--metrics=prometheus|json] [--metrics-only]
///                   [--events-only] [--threads=N] [--check]
///
/// The batch insert pipelines its Stage 1 on a worker pool (default 2
/// threads, at most 64) and runs Stage 2 through the shared executor, so
/// the thread-pool and shared-executor instruments light up too. Sections are
/// delimited by "# ---- metrics ----" / "# ---- percentiles ----" /
/// "# ---- events ----" lines so the output is easy to split in scripts.
/// The percentile section prints the p50..p999 ladder of every histogram
/// family that saw observations.
/// --check additionally self-asserts the dump (nonempty percentile
/// section with monotone ladders, exactly one insert event per inserted
/// annotation carrying its Stage-1 phases, search mode and mini-db time)
/// and is what the ctest smoke runs.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "annotation/annotation_store.h"
#include "annotation/verification_task.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/verification.h"
#include "meta/nebula_meta.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "storage/catalog.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

using namespace nebula;

namespace {

/// The largest --threads value: the Stage-1 pool gains nothing past a few
/// workers on a three-annotation batch.
constexpr uint64_t kMaxThreads = 64;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--metrics=prometheus|json] [--metrics-only] "
               "[--events-only] [--threads=N (0-%llu)] [--check]\n",
               argv0, static_cast<unsigned long long>(kMaxThreads));
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "FATAL: %s\n", status.ToString().c_str());
  return 1;
}

/// Prints one "name{labels} count=N p50=... .. p999=..." line per
/// histogram sample that saw observations. Returns the number of lines
/// printed; `monotonic` is cleared if any ladder decreases.
size_t PrintPercentiles(bool* monotonic) {
  size_t printed = 0;
  for (const auto& family : obs::MetricsRegistry::Global().Snapshot()) {
    if (family.type != obs::MetricType::kHistogram) continue;
    for (const auto& sample : family.samples) {
      if (sample.histogram.count == 0) continue;
      std::string labels;
      for (const auto& [key, value] : sample.labels) {
        labels += labels.empty() ? "{" : ",";
        labels += key + "=\"" + value + "\"";
      }
      if (!labels.empty()) labels += "}";
      std::printf("%s%s count=%llu", family.name.c_str(), labels.c_str(),
                  static_cast<unsigned long long>(sample.histogram.count));
      uint64_t prev = 0;
      for (const auto& spec : obs::Histogram::kStandardQuantiles) {
        const uint64_t q = sample.histogram.Quantile(spec.q);
        if (q < prev) *monotonic = false;
        prev = q;
        std::printf(" %s=%lluus", spec.name,
                    static_cast<unsigned long long>(q));
      }
      std::printf("\n");
      ++printed;
    }
  }
  return printed;
}

}  // namespace

int main(int argc, char** argv) {
  obs::ExportFormat metrics_format = obs::ExportFormat::kPrometheus;
  bool dump_metrics = true;
  bool dump_events = true;
  bool check = false;
  size_t threads = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics=prometheus") {
      metrics_format = obs::ExportFormat::kPrometheus;
    } else if (arg == "--metrics=json") {
      metrics_format = obs::ExportFormat::kJson;
    } else if (arg == "--metrics-only") {
      dump_events = false;
    } else if (arg == "--events-only") {
      dump_metrics = false;
    } else if (arg == "--check") {
      check = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      // Bounded while parsing, before any pool exists.
      const std::optional<uint64_t> n =
          ParseUint64(std::string_view(arg).substr(strlen("--threads=")));
      if (!n || *n > kMaxThreads) return Usage(argv[0]);
      threads = static_cast<size_t>(*n);
    } else {
      return Usage(argv[0]);
    }
  }

  // --- The Figure-1 gene table --------------------------------------
  Catalog catalog;
  auto gene_result = catalog.CreateTable(
      "gene", Schema({{"gid", DataType::kString, /*unique=*/true},
                      {"name", DataType::kString, /*unique=*/true},
                      {"length", DataType::kInt64},
                      {"seq", DataType::kString},
                      {"family", DataType::kString}}));
  if (!gene_result.ok()) return Fail(gene_result.status());
  Table* gene = *gene_result;

  struct Row {
    const char* gid;
    const char* name;
    int64_t length;
    const char* seq;
    const char* family;
  };
  const Row rows[] = {
      {"JW0013", "grpC", 1130, "TGCT", "F1"},
      {"JW0014", "groP", 1916, "GGTT", "F6"},
      {"JW0015", "insL", 1112, "GGCT", "F1"},
      {"JW0018", "nhaA", 1166, "CGTT", "F1"},
      {"JW0019", "yaaB", 905, "TGTG", "F3"},
      {"JW0012", "yaaI", 404, "TTCG", "F1"},
      {"JW0027", "namE", 658, "GTTT", "F4"},
  };
  for (const Row& r : rows) {
    auto inserted = gene->Insert({Value(r.gid), Value(r.name),
                                  Value(r.length), Value(r.seq),
                                  Value(r.family)});
    if (!inserted.ok()) return Fail(inserted.status());
  }

  NebulaMeta meta;
  if (Status s = meta.AddConcept("Gene", "gene", {{"gid"}, {"name"}});
      !s.ok()) {
    return Fail(s);
  }
  meta.AddColumnAlias("gene", "gid", "id");
  if (Status s = meta.SetColumnPattern("gene", "gid", "JW[0-9]{4}"); !s.ok()) {
    return Fail(s);
  }
  if (Status s = meta.SetColumnPattern("gene", "name", "[a-z]{3}[A-Z]");
      !s.ok()) {
    return Fail(s);
  }

  // --- Instrumented engine, batch ingest on the pool ----------------
  AnnotationStore store;
  NebulaConfig config;
  config.bounds = {0.30, 0.85};
  config.num_threads = threads;
  NebulaEngine engine(&catalog, &store, &meta, config);

  const std::vector<AnnotationRequest> requests = {
      {"From the exp, it seems this gene is correlated to JW0014 of grpC",
       {TupleId{gene->id(), 4}},
       "alice"},
      {"Compare against insL and nhaA before the next assay",
       {TupleId{gene->id(), 2}},
       "bob"},
      {"JW0012 shows the same family-F1 drift as grpC",
       {TupleId{gene->id(), 5}},
       "carol"},
  };
  auto reports = engine.InsertAnnotations(requests);
  if (!reports.ok()) return Fail(reports.status());

  // An expert clears the pending queue so the resolution counters move.
  for (const VerificationTask* task : engine.verification().PendingTasks()) {
    if (Status s = engine.verification().Verify(task->vid); !s.ok()) {
      return Fail(s);
    }
  }

  std::fprintf(stderr, "[obs_dump] inserted %zu annotations (%zu threads)\n",
               reports->size(), threads);

  size_t percentile_lines = 0;
  bool monotonic = true;
  if (dump_metrics) {
    std::printf("# ---- metrics ----\n%s",
                NebulaEngine::DumpMetrics(metrics_format).c_str());
    std::printf("# ---- percentiles ----\n");
    percentile_lines = PrintPercentiles(&monotonic);
  }
  const std::string events = engine.DumpEvents();
  if (dump_events) std::printf("# ---- events ----\n%s", events.c_str());

  if (check) {
    // Self-assertions for the ctest smoke: the percentile pipeline must
    // produce data and the wide-event log must have seen the batch —
    // when the engine was built instrumented. Under NEBULA_OBS=OFF the
    // sections are legitimately empty and only well-formedness holds.
    if (obs::kEnabled && dump_metrics && percentile_lines == 0) {
      std::fprintf(stderr, "CHECK FAILED: no histogram percentiles\n");
      return 1;
    }
    if (!monotonic) {
      std::fprintf(stderr, "CHECK FAILED: percentile ladder decreased\n");
      return 1;
    }
    if (obs::kEnabled) {
      // One record per operation: the i-th line is the insert event of the
      // i-th annotation (stages 0, 2 and 3 run in request order), carrying
      // its Stage-1 phases, search mode and mini-db time; nothing else.
      size_t begin = 0;
      bool ok = true;
      for (const AnnotationReport& report : *reports) {
        const size_t end = events.find('\n', begin);
        const std::string line =
            events.substr(begin, end == std::string::npos ? 0 : end - begin);
        begin = end + 1;
        const std::string id =
            "\"annotation\":" + std::to_string(report.annotation) + ",";
        ok = ok && line.find(id) != std::string::npos;
        for (const char* field :
             {"\"op\":\"insert\"", "\"map_generation_us\":",
              "\"context_adjust_us\":", "\"query_formation_us\":",
              "\"search_mode\":\"", "\"mini_db_us\":"}) {
          ok = ok && line.find(field) != std::string::npos;
        }
      }
      if (!ok || begin != events.size()) {
        std::fprintf(stderr,
                     "CHECK FAILED: want exactly one insert event per "
                     "annotation with the Stage-1, search-mode and mini-db "
                     "fields, got:\n%s",
                     events.c_str());
        return 1;
      }
    }
    std::fprintf(stderr, "[obs_dump] check ok\n");
  }
  return 0;
}
