#include "bench/bench_util.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdlib>
#include <cstring>

#include "obs/export.h"
#include "obs/metrics.h"
#include "storage/table.h"
#include "storage/value.h"

namespace nebula {
namespace bench {

bool QuickMode() {
  const char* env = std::getenv("NEBULA_BENCH_QUICK");
  return env != nullptr && std::strcmp(env, "0") != 0;
}

std::unique_ptr<BioDataset> LoadDataset(const char* label, DatasetSpec spec) {
  if (QuickMode()) {
    const uint64_t seed = spec.seed;
    spec = DatasetSpec::Small();
    spec.seed = seed;
  }
  Stopwatch sw;
  auto result = GenerateBioDataset(spec);
  if (!result.ok()) {
    std::fprintf(stderr, "dataset %s generation failed: %s\n", label,
                 result.status().ToString().c_str());
    std::abort();
  }
  std::printf(
      "[setup] %s: %zu genes, %zu proteins, %zu publications "
      "(%zu annotations, %zu attachments) generated in %.1fs\n",
      label, spec.num_genes, spec.num_proteins, spec.num_publications,
      (*result)->store.num_annotations(), (*result)->store.num_attachments(),
      sw.ElapsedSeconds());
  return std::move(*result);
}

void WarmIndexes(const Catalog& catalog) {
  for (const auto& table : catalog.tables()) {
    (void)table->TryValueIndex();
    for (size_t c = 0; c < table->schema().num_columns(); ++c) {
      (void)table->Lookup(c, Value());
    }
  }
}

void Banner(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      std::printf("%-*s%s", static_cast<int>(widths[c]), cell.c_str(),
                  c + 1 == widths.size() ? "\n" : "  ");
    }
  };
  print_row(headers_);
  size_t total = widths.size() * 2 - 2;
  for (size_t w : widths) total += w;
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string Fmt(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[256];
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

std::string EmitBenchJson(const std::string& bench,
                          const std::vector<BenchRecord>& records) {
  const char* dir = std::getenv("NEBULA_BENCH_JSON_DIR");
  std::string path;
  if (dir != nullptr && dir[0] != '\0') {
    path = dir;
    if (path.back() != '/') path += '/';
  }
  path += "BENCH_" + bench + ".json";

  std::string out = "{\n  \"bench\": \"" + obs::JsonEscape(bench) + "\",\n";
  out += std::string("  \"quick_mode\": ") +
         (QuickMode() ? "true" : "false") + ",\n";
  // Build provenance: numbers measured under the lockdep witness or a
  // sanitizer are not comparable to release numbers, and the schema
  // checker refuses to let such a sidecar be committed.
  out += std::string("  \"build\": {\"lockdep\": ") +
         (NEBULA_LOCKDEP_ENABLED ? "true" : "false") + ", \"sanitizer\": \"" +
         obs::JsonEscape(NEBULA_SANITIZE_NAME) + "\"},\n";
  out += "  \"records\": [";
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + obs::JsonEscape(r.name) + "\", \"params\": {";
    for (size_t p = 0; p < r.params.size(); ++p) {
      if (p != 0) out += ", ";
      out += "\"" + obs::JsonEscape(r.params[p].first) + "\": \"" +
             obs::JsonEscape(r.params[p].second) + "\"";
    }
    out += Fmt("}, \"wall_us\": %" PRIu64 ", \"rows_examined\": %" PRIu64 "}",
               r.wall_us, r.rows_examined);
  }
  out += records.empty() ? "],\n" : "\n  ],\n";
  // The full registry snapshot makes the sidecar self-describing: every
  // counter/histogram the run touched rides along for offline analysis.
  out += "  \"metrics\": " + obs::ExportJson(obs::MetricsRegistry::Global());
  out += "\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    return "";
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("[bench] wrote %s\n", path.c_str());
  return path;
}

QueryClassification ClassifyQueries(const WorkloadAnnotation& wa,
                                    const std::vector<KeywordQuery>& queries) {
  QueryClassification out;
  out.queries = queries.size();
  out.refs = wa.refs.size();
  for (const auto& ref : wa.refs) {
    bool covered = false;
    for (const auto& q : queries) {
      for (const auto& k : q.keywords) {
        if (k == ref.surface[0]) covered = true;
      }
    }
    if (!covered) ++out.fn_refs;
  }
  for (const auto& q : queries) {
    bool is_ref = false;
    for (const auto& ref : wa.refs) {
      for (const auto& s : ref.surface) {
        for (const auto& k : q.keywords) {
          if (k == s) is_ref = true;
        }
      }
    }
    if (!is_ref) ++out.fp_queries;
  }
  return out;
}

}  // namespace bench
}  // namespace nebula
