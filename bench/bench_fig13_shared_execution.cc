/// Reproduces Figure 13 of the paper: multi-query shared execution.
///
/// For each dataset size and annotation set, executes each annotation's
/// generated query group (a) one query at a time and (b) through the
/// shared executor that canonicalizes and deduplicates the compiled SQL
/// across the group. Reports both times, the speedup, the SQL sharing
/// ratio, and verifies the outputs are identical.
///
/// Expected shape: ~40-50% execution-time saving with identical output
/// tuples (the paper reports 40-50% speedup).

#include "bench/bench_util.h"
#include "keyword/shared_executor.h"

using namespace nebula;
using namespace nebula::bench;

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
                      "outputs_equal"});
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

        // The engine's ExecStats accumulate across calls; reset so the
        // reported row count is per (set, eps) round, not a running total.
        engine.ResetStats();

        double isolated_ms = 0;
        double shared_ms = 0;
        double sharing_sum = 0;
        size_t groups = 0;
        bool all_equal = true;

        for (size_t idx : ds->workload.BySizeClass(m)) {
          const WorkloadAnnotation& wa = ds->workload.annotations[idx];
          const auto queries = generator.Generate(wa.text).queries;
          if (queries.empty()) continue;

          // (a) Isolated execution.
          std::vector<std::vector<SearchHit>> isolated(queries.size());
          Stopwatch sw;
          for (size_t q = 0; q < queries.size(); ++q) {
            auto hits = engine.Search(queries[q]);
            if (hits.ok()) isolated[q] = std::move(*hits);
          }
          isolated_ms += sw.ElapsedMillis();

          // (b) Shared execution: the measured saving is canonicalization
          // + dedup alone, the paper's Figure 13 claim.
          SharedKeywordExecutor shared(&engine);
          std::vector<std::vector<SearchHit>> shared_results;
          sw.Restart();
          if (!shared.ExecuteGroup(queries, &shared_results).ok()) continue;
          shared_ms += sw.ElapsedMillis();
          sharing_sum += shared.stats().sharing_ratio();
          ++groups;

          // Identity check: per-query hit sets must match exactly.
          for (size_t q = 0; q < queries.size(); ++q) {
            if (shared_results[q].size() != isolated[q].size()) {
              all_equal = false;
              continue;
            }
            for (size_t h = 0; h < isolated[q].size(); ++h) {
              if (!(shared_results[q][h].tuple == isolated[q][h].tuple)) {
                all_equal = false;
              }
            }
          }
        }
        if (groups == 0) continue;
        table.AddRow({sized.label, Fmt("L^%zu", m), Fmt("%.1f", eps),
                      Fmt("%.3f", isolated_ms / groups),
                      Fmt("%.3f", shared_ms / groups),
                      shared_ms > 0
                          ? Fmt("%.0f%%",
                                100.0 * (isolated_ms - shared_ms) /
                                    isolated_ms)
                          : "-",
                      Fmt("%.0f%%", 100.0 * sharing_sum / groups),
                      Fmt("%llu", static_cast<unsigned long long>(
                                      engine.stats().rows_examined)),
                      all_equal ? "yes" : "NO"});

        BenchRecord rec;
        rec.name = Fmt("shared_execution/%s/L^%zu/eps=%.1f", sized.label, m,
                       eps);
        rec.params = {{"dataset", sized.label},
                      {"size_class", Fmt("%zu", m)},
                      {"epsilon", Fmt("%.1f", eps)},
                      {"groups", Fmt("%zu", groups)},
                      {"isolated_ms", Fmt("%.3f", isolated_ms)},
                      {"outputs_equal", all_equal ? "yes" : "no"}};
        rec.wall_us = static_cast<uint64_t>(shared_ms * 1000.0);
        rec.rows_examined = engine.stats().rows_examined;
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
