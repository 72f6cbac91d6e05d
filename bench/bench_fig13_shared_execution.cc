/// Reproduces Figure 13 of the paper: multi-query shared execution.
///
/// For each dataset size and annotation set, executes each annotation's
/// generated query group (a) one query at a time through
/// KeywordSearchEngine::Search and (b) the engine's Stage-2 path: the
/// group compiled once and run through the shared executor, which runs
/// each distinct statement once. Reports both times, the speedup, the
/// SQL sharing ratio and the rows each side examined. Each query's shared
/// rows, folded by MergeHits, must equal its Search result tuple for
/// tuple and bit for bit, and the shared side may not examine more rows
/// than the isolated one; on either failure the bench prints the cell and
/// exits 1.
///
/// Expected shape: ~40-50% execution-time saving with identical output
/// tuples (the paper reports 40-50% speedup).

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "keyword/engine.h"
#include "keyword/shared_executor.h"

using namespace nebula;
using namespace nebula::bench;

namespace {

/// True when both rankings hold the same tuples at the same confidence
/// bit patterns.
bool SameHits(const std::vector<SearchHit>& a,
              const std::vector<SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].tuple == b[i].tuple) ||
        std::bit_cast<uint64_t>(a[i].confidence) !=
            std::bit_cast<uint64_t>(b[i].confidence)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  struct Sized {
    const char* label;
    DatasetSpec spec;
  };
  const Sized sizes[] = {
      {"D_small", DatasetSpec::Small()},
      {"D_mid", DatasetSpec::Mid()},
      {"D_large", DatasetSpec::Large()},
  };

  TablePrinter table({"dataset", "set", "eps", "isolated_ms", "shared_ms",
                      "speedup", "sql_dedup", "rows_examined",
                      "isolated_rows_examined"});
  std::vector<BenchRecord> records;

  for (const auto& sized : sizes) {
    auto ds = LoadDataset(sized.label, sized.spec);
    WarmIndexes(ds->catalog);
    KeywordSearchEngine engine(&ds->catalog, &ds->meta);

    for (size_t m : kSizeClasses) {
      for (double eps : {0.6, 0.8}) {
        QueryGenerationParams params;
        params.epsilon = eps;
        QueryGenerator generator(&ds->meta, params);

        // Both sides fold into the engine's ExecStats; each side's rows
        // are the growth of that running total across its own pass.
        uint64_t isolated_rows = 0;
        uint64_t shared_rows = 0;
        double isolated_ms = 0;
        double shared_ms = 0;
        double sharing_sum = 0;
        size_t groups = 0;

        for (size_t idx : ds->workload.BySizeClass(m)) {
          const WorkloadAnnotation& wa = ds->workload.annotations[idx];
          const auto queries = generator.Generate(wa.text).queries;
          if (queries.empty()) continue;
          const auto fail = [&](const char* what, size_t q) {
            std::fprintf(stderr,
                         "Figure 13: %s at %s L^%zu eps=%.1f annotation %zu "
                         "query %zu\n",
                         what, sized.label, m, eps, idx, q);
            return 1;
          };

          // (a) Isolated execution.
          std::vector<std::vector<SearchHit>> isolated(queries.size());
          uint64_t rows_before = engine.stats().rows_examined;
          Stopwatch sw;
          for (size_t q = 0; q < queries.size(); ++q) {
            auto hits = engine.Search(queries[q]);
            if (!hits.ok()) return fail("Search failed", q);
            isolated[q] = std::move(*hits);
          }
          isolated_ms += sw.ElapsedMillis();
          isolated_rows += engine.stats().rows_examined - rows_before;

          // (b) Shared execution, the engine's Stage-2 path: the measured
          // saving is canonicalization + dedup alone, the paper's Figure 13
          // claim.
          SharedKeywordExecutor shared(&engine);
          std::vector<GroupRow> rows;
          rows_before = engine.stats().rows_examined;
          sw.Restart();
          if (!shared.ExecuteGroup(engine.CompileGroup(queries), nullptr, &rows)
                   .ok()) {
            return fail("ExecuteGroup failed", 0);
          }
          shared_ms += sw.ElapsedMillis();
          shared_rows += engine.stats().rows_examined - rows_before;
          sharing_sum += shared.stats().sharing_ratio();
          ++groups;

          // Identity: each query's rows, folded by MergeHits, equal its
          // isolated Search.
          std::vector<std::vector<SearchHit>> per_query(queries.size());
          for (const GroupRow& r : rows) {
            per_query[r.query].push_back({r.tuple(), r.confidence});
          }
          for (size_t q = 0; q < queries.size(); ++q) {
            if (!SameHits(KeywordSearchEngine::MergeHits(
                              std::move(per_query[q])),
                          isolated[q])) {
              return fail("shared rows differ from Search", q);
            }
          }
        }
        if (groups == 0) continue;
        // Sharing runs each distinct statement once, so it never reads
        // more rows than running every statement.
        if (shared_rows > isolated_rows) {
          std::fprintf(stderr,
                       "Figure 13: shared rows %llu exceed isolated rows %llu "
                       "at %s L^%zu eps=%.1f\n",
                       static_cast<unsigned long long>(shared_rows),
                       static_cast<unsigned long long>(isolated_rows),
                       sized.label, m, eps);
          return 1;
        }
        table.AddRow({sized.label, Fmt("L^%zu", m), Fmt("%.1f", eps),
                      Fmt("%.3f", isolated_ms / groups),
                      Fmt("%.3f", shared_ms / groups),
                      shared_ms > 0
                          ? Fmt("%.0f%%",
                                100.0 * (isolated_ms - shared_ms) /
                                    isolated_ms)
                          : "-",
                      Fmt("%.0f%%", 100.0 * sharing_sum / groups),
                      Fmt("%llu", static_cast<unsigned long long>(shared_rows)),
                      Fmt("%llu",
                          static_cast<unsigned long long>(isolated_rows))});

        BenchRecord rec;
        rec.name = Fmt("fig13/%s/L^%zu/eps=%.1f", sized.label, m, eps);
        rec.params = {{"dataset", sized.label},
                      {"size_class", Fmt("%zu", m)},
                      {"epsilon", Fmt("%.1f", eps)},
                      {"groups", Fmt("%zu", groups)},
                      {"isolated_ms", Fmt("%.3f", isolated_ms)},
                      {"isolated_rows_examined",
                       Fmt("%llu",
                           static_cast<unsigned long long>(isolated_rows))}};
        rec.wall_us = static_cast<uint64_t>(shared_ms * 1000.0);
        rec.rows_examined = shared_rows;
        records.push_back(std::move(rec));
      }
    }
  }

  Banner("Figure 13: shared multi-query execution (avg per annotation)");
  table.Print();
  EmitBenchJson("fig13_shared_execution", records);
  std::printf(
      "\nPaper-shape check: sharing should save roughly 40-50%% of the\n"
      "execution time while producing exactly the same output tuples.\n");
  return 0;
}
