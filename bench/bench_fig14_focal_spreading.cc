/// Reproduces Figure 14 of the paper: the approximate focal-spreading
/// search, plus the Figure 7 hop-distance profile that guides the choice
/// of K.
///
/// Setup mirrors §8.2: the largest dataset, eps = 0.6, the L^100
/// annotation set. The distortion degree Delta (number of focal
/// attachments kept) varies over {1,2,3} and the search radius K over
/// {2,3,4}.
///
///   14(a) execution time: basic full-database search vs focal spreading
///         (expected ~8-15x faster than basic). Stage 2 always shares
///         statements across a query group, so the paper's "shared" bar
///         is the basic one;
///   14(b) produced candidate tuples (expected ~an order of magnitude
///         fewer under focal spreading);
///   14(a') the same comparison under the paper's RDBMS cost model, where
///         containment probes are scans.
///
/// Indexes are warmed before any timing, so no configuration pays a lazy
/// index build. Writes BENCH_fig14_focal_spreading.json: one record for
/// the Fig. 7 profile pass (wall_us = the whole HopDistance loop), then
/// one per 14(a) and 14(a') row (wall_us and rows_examined are averages
/// per annotation, as printed).

#include "bench/bench_util.h"
#include "core/focal_spreading.h"

using namespace nebula;
using namespace nebula::bench;

int main() {
  const char* const kDataset = "D_large";
  auto ds = LoadDataset(kDataset, DatasetSpec::Large());
  WarmIndexes(ds->catalog);
  KeywordSearchEngine engine(&ds->catalog, &ds->meta);
  Acg acg;
  acg.BuildFromStore(ds->store);
  TupleIdentifier identifier(&engine, &acg);

  QueryGenerationParams gen_params;
  gen_params.epsilon = 0.6;
  QueryGenerator generator(&ds->meta, gen_params);

  const auto annotation_set = ds->workload.BySizeClass(100);
  const size_t count = annotation_set.size();
  std::vector<BenchRecord> records;
  auto record = [&](std::string name,
                    std::vector<std::pair<std::string, std::string>> params,
                    double ms, uint64_t rows) {
    BenchRecord rec;
    rec.name = std::move(name);
    rec.params = {{"dataset", kDataset},
                  {"annotations", Fmt("%zu", count)}};
    rec.params.insert(rec.params.end(), params.begin(), params.end());
    rec.wall_us = static_cast<uint64_t>(ms * 1000.0);
    rec.rows_examined = rows;
    records.push_back(std::move(rec));
  };

  // ---- Figure 7: hop-distance profile --------------------------------
  // The profile records, for every discovered attachment, how many hops
  // it was from the annotation's focal. Here it is fed from the workload
  // ground truth (candidate tuple vs the Delta=1 focal).
  size_t profile_points = 0;
  Stopwatch profile_sw;
  for (size_t idx : annotation_set) {
    const WorkloadAnnotation& wa = ds->workload.annotations[idx];
    const std::vector<TupleId> focal{wa.ideal_tuples.front()};
    for (size_t i = 1; i < wa.ideal_tuples.size(); ++i) {
      acg.RecordProfilePoint(acg.HopDistance(focal, wa.ideal_tuples[i]));
      ++profile_points;
    }
  }
  const double profile_ms = profile_sw.ElapsedMillis();
  Banner("Figure 7: hop-distance profile of true attachments");
  {
    uint64_t total = 0;
    for (uint64_t v : acg.profile()) total += v;
    uint64_t cumulative = 0;
    TablePrinter profile({"hops", "count", "cumulative"});
    for (size_t k = 0; k < acg.profile().size(); ++k) {
      if (acg.profile()[k] == 0) continue;
      cumulative += acg.profile()[k];
      profile.AddRow({k + 1 == acg.profile().size() ? ">=15/unreachable"
                                                    : Fmt("%zu", k),
                      Fmt("%llu", static_cast<unsigned long long>(
                                      acg.profile()[k])),
                      Fmt("%.0f%%", total ? 100.0 * cumulative / total : 0)});
    }
    profile.Print();
    std::printf("profile-driven K for 71%% recall: %zu; for 93%%: %zu\n",
                acg.SelectK(0.71), acg.SelectK(0.93));
    std::printf("%zu HopDistance calls in %.3f ms\n", profile_points,
                profile_ms);
    record("fig7/profile",
           {{"points", Fmt("%zu", profile_points)},
            {"k_recall_71", Fmt("%zu", acg.SelectK(0.71))},
            {"k_recall_93", Fmt("%zu", acg.SelectK(0.93))}},
           profile_ms, 0);
  }

  // ---- Baseline: basic full-database search ---------------------------
  // Stage 2 always shares statements across a group, so the paper's
  // "shared" bar is this one.
  double basic_ms = 0;
  size_t basic_tuples = 0;
  uint64_t basic_rows = 0;
  for (size_t idx : annotation_set) {
    const WorkloadAnnotation& wa = ds->workload.annotations[idx];
    const std::vector<TupleId> focal{wa.ideal_tuples.front()};
    const auto queries = generator.Generate(wa.text).queries;

    engine.ResetStats();
    Stopwatch sw;
    auto full = identifier.Identify(queries, focal);
    basic_ms += sw.ElapsedMillis();
    basic_rows += engine.stats().rows_examined;
    if (full.ok()) basic_tuples += full->size();
  }
  const auto per_annotation = [count](double total) {
    return Fmt("%.1f", total / static_cast<double>(count));
  };
  record("fig14a/basic",
         {{"tuples", per_annotation(basic_tuples)}, {"minidb_tuples", "-"}},
         basic_ms / count, basic_rows / count);

  // ---- Focal spreading over Delta x K ---------------------------------
  TablePrinter fig14a({"config", "time_ms", "vs_basic", "rows_examined",
                       "search_reduction", "miniDB_tuples"});
  TablePrinter fig14b({"config", "tuples", "basic_tuples", "reduction"});
  fig14a.AddRow({"basic (full DB)", Fmt("%.3f", basic_ms / count), "1.0x",
                 Fmt("%llu", static_cast<unsigned long long>(
                                 basic_rows / count)),
                 "1.0x", "-"});

  for (size_t delta : {1u, 2u, 3u}) {
    for (size_t k : {2u, 3u, 4u}) {
      FocalSpreadingParams sp;
      sp.require_stable_acg = false;  // experiment setup forces approx mode
      sp.selection = KSelection::kFixed;
      sp.fixed_k = k;
      FocalSpreading spreading(&acg, sp);

      double ms = 0;
      size_t tuples = 0;
      size_t mini_sizes = 0;
      engine.ResetStats();
      for (size_t idx : annotation_set) {
        const WorkloadAnnotation& wa = ds->workload.annotations[idx];
        std::vector<TupleId> focal(
            wa.ideal_tuples.begin(),
            wa.ideal_tuples.begin() +
                std::min<size_t>(delta, wa.ideal_tuples.size()));
        const auto queries = generator.Generate(wa.text).queries;
        Stopwatch sw;
        const MiniDb mini = spreading.BuildMiniDb(focal);
        auto result = identifier.Identify(queries, focal, &mini);
        ms += sw.ElapsedMillis();
        if (result.ok()) tuples += result->size();
        mini_sizes += mini.size();
      }
      const std::string config = Fmt("Delta=%zu K=%zu", delta, k);
      const uint64_t rows = engine.stats().rows_examined;
      fig14a.AddRow({config, Fmt("%.3f", ms / count),
                     Fmt("%.1fx", basic_ms / ms),
                     Fmt("%llu", static_cast<unsigned long long>(
                                     rows / count)),
                     rows > 0 ? Fmt("%.1fx", static_cast<double>(basic_rows) /
                                                 rows)
                              : "-",
                     Fmt("%zu", mini_sizes / count)});
      fig14b.AddRow({config, per_annotation(tuples),
                     per_annotation(basic_tuples),
                     Fmt("%.1fx", tuples ? static_cast<double>(basic_tuples) /
                                               tuples
                                         : 0.0)});
      record(Fmt("fig14a/Delta=%zu/K=%zu", delta, k),
             {{"tuples", per_annotation(tuples)},
              {"minidb_tuples", per_annotation(mini_sizes)}},
             ms / count, rows / count);
    }
  }

  Banner("Figure 14(a): focal-spreading execution time (avg ms/annotation)");
  fig14a.Print();
  Banner("Figure 14(b): produced candidate tuples");
  fig14b.Print();

  // ---- RDBMS cost model ------------------------------------------------
  // The paper's substrate executes the search technique's generated SQL
  // on an RDBMS where containment predicates are LIKE-style scans. Under
  // that cost model (scan_containment = true, on the legacy execution
  // path so the value index cannot answer) the full-database search pays
  // for every scanned row, and focal spreading's restriction of the
  // search space translates directly into wall-clock time — this is the
  // regime in which the paper reports its ~15x speedup.
  Banner("Figure 14(a'): RDBMS cost model (containment probes as scans)");
  {
    KeywordSearchParams scan_params;
    scan_params.scan_containment = true;
    scan_params.use_value_index = false;
    KeywordSearchEngine scan_engine(&ds->catalog, &ds->meta, scan_params);
    TupleIdentifier scan_identifier(&scan_engine, &acg);

    double scan_basic_ms = 0;
    uint64_t scan_basic_rows = 0;
    scan_engine.ResetStats();
    for (size_t idx : annotation_set) {
      const WorkloadAnnotation& wa = ds->workload.annotations[idx];
      const std::vector<TupleId> focal{wa.ideal_tuples.front()};
      const auto queries = generator.Generate(wa.text).queries;
      Stopwatch sw;
      (void)scan_identifier.Identify(queries, focal);
      scan_basic_ms += sw.ElapsedMillis();
    }
    scan_basic_rows = scan_engine.stats().rows_examined;

    TablePrinter prime({"config", "time_ms", "vs_basic", "rows_examined"});
    prime.AddRow({"basic (full DB)", Fmt("%.2f", scan_basic_ms / count),
                  "1.0x",
                  Fmt("%llu", static_cast<unsigned long long>(
                                  scan_basic_rows / count))});
    record("fig14a_rdbms/basic", {{"minidb_tuples", "-"}},
           scan_basic_ms / count, scan_basic_rows / count);
    for (size_t k : {2u, 3u, 4u}) {
      FocalSpreadingParams sp;
      sp.require_stable_acg = false;
      sp.selection = KSelection::kFixed;
      sp.fixed_k = k;
      FocalSpreading spreading(&acg, sp);
      double ms = 0;
      size_t mini_sizes = 0;
      scan_engine.ResetStats();
      for (size_t idx : annotation_set) {
        const WorkloadAnnotation& wa = ds->workload.annotations[idx];
        const std::vector<TupleId> focal{wa.ideal_tuples.front()};
        const auto queries = generator.Generate(wa.text).queries;
        Stopwatch sw;
        const MiniDb mini = spreading.BuildMiniDb(focal);
        (void)scan_identifier.Identify(queries, focal, &mini);
        ms += sw.ElapsedMillis();
        mini_sizes += mini.size();
      }
      const uint64_t rows = scan_engine.stats().rows_examined;
      prime.AddRow({Fmt("Delta=1 K=%zu", k), Fmt("%.2f", ms / count),
                    Fmt("%.1fx", scan_basic_ms / ms),
                    Fmt("%llu", static_cast<unsigned long long>(
                                    rows / count))});
      record(Fmt("fig14a_rdbms/Delta=1/K=%zu", k),
             {{"minidb_tuples", per_annotation(mini_sizes)}}, ms / count,
             rows / count);
    }
    prime.Print();
  }
  EmitBenchJson("fig14_focal_spreading", records);
  std::printf(
      "\nPaper-shape checks: focal spreading should produce roughly an\n"
      "order of magnitude fewer candidates, and time and tuples grow with\n"
      "both Delta and K. Under the RDBMS cost model it should be roughly\n"
      "an order of magnitude faster than the basic search; under the\n"
      "value index a warm basic search is a few posting-list probes, so\n"
      "it may stay cheaper than building the mini database.\n");
  return 0;
}
