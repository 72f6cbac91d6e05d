/// Reproduces Figure 15 of the paper: verification and assessment.
///
/// Setup mirrors §8.2: the largest dataset and the L^100 annotation set,
/// assessed with the four Def. 7.2 criteria {F_N, F_P, M_F, M_H} under
/// eight configurations: the basic algorithm at eps = 0.6 / 0.8, plus six
/// focal-spreading configurations (Delta x K).
///
///   15(a) bounds auto-tuned by the BoundsSetting algorithm on a training
///         set of corpus annotations (the paper got beta_lower = 0.32,
///         beta_upper = 0.86);
///   15(b) the degenerate no-expert setting beta_lower = beta_upper = 0.5
///         (expected: F_P and F_N blow up).
///
/// Writes BENCH_fig15_verification.json: one record per 15(a) and 15(b)
/// configuration, with the four criteria and the bounds as params.

#include "bench/bench_util.h"
#include "core/assessment.h"
#include "core/bounds_setting.h"
#include "core/focal_spreading.h"

using namespace nebula;
using namespace nebula::bench;

namespace {

struct Config {
  std::string name;
  double epsilon = 0.6;
  bool approx = false;
  size_t delta = 1;
  size_t k = 3;
};

}  // namespace

int main() {
  const char* const kDataset = "D_large";
  auto ds = LoadDataset(kDataset, DatasetSpec::Large());
  WarmIndexes(ds->catalog);
  KeywordSearchEngine engine(&ds->catalog, &ds->meta);
  Acg acg;
  acg.BuildFromStore(ds->store);
  TupleIdentifier identifier(&engine, &acg);

  // ---- Auto-tune the bounds (paper: 500 training annotations) --------
  Rng rng(ds->spec.seed + 17);
  const size_t training_size = QuickMode() ? 60 : 500;
  const auto training = ds->SampleTrainingSet(training_size, &rng);

  QueryGenerationParams train_gen;
  train_gen.epsilon = 0.6;
  QueryGenerator train_generator(&ds->meta, train_gen);
  DiscoveryFn discover = [&](AnnotationId annotation,
                             const std::vector<TupleId>& focal)
      -> std::vector<CandidateTuple> {
    auto ann = ds->store.GetAnnotation(annotation);
    if (!ann.ok()) return {};
    const auto queries = train_generator.Generate((*ann)->text).queries;
    auto candidates = identifier.Identify(queries, focal);
    if (!candidates.ok()) return {};
    // Training annotations double as rows of the publication table (the
    // experimental construction of §8.1), so the search trivially
    // rediscovers the annotation's own publication row at top
    // confidence. The paper's curator-built D_Training has no such
    // self-matches; drop it and re-normalize.
    std::vector<CandidateTuple> out;
    double max_conf = 0.0;
    for (auto& c : *candidates) {
      if (c.tuple.table_id == ds->publication_table &&
          c.tuple.row == annotation) {
        continue;
      }
      max_conf = std::max(max_conf, c.confidence);
      out.push_back(std::move(c));
    }
    if (max_conf > 0) {
      for (auto& c : out) c.confidence /= max_conf;
    }
    return out;
  };

  BoundsSettingConfig bounds_config;
  bounds_config.max_fn = 0.15;
  bounds_config.max_fp = 0.05;
  Stopwatch sw;
  const BoundsSettingResult tuned =
      BoundsSetting(training, discover, bounds_config);
  std::printf(
      "[setup] BoundsSetting over %zu training annotations took %.1fs -> "
      "beta_lower=%.2f beta_upper=%.2f (%s; paper reports 0.32 / 0.86)\n",
      training.size(), sw.ElapsedSeconds(), tuned.best.lower,
      tuned.best.upper, tuned.feasible ? "feasible" : "least-violating");

  // ---- The eight configurations --------------------------------------
  std::vector<Config> configs = {
      {"Nebula-0.6", 0.6, false, 1, 0},
      {"Nebula-0.8", 0.8, false, 1, 0},
  };
  for (size_t delta : {1u, 2u}) {
    for (size_t k : {2u, 3u, 4u}) {
      configs.push_back({Fmt("Focal D=%zu K=%zu", delta, k), 0.6, true,
                         delta, k});
    }
  }

  const auto annotation_set = ds->workload.BySizeClass(100);

  std::vector<BenchRecord> records;
  auto evaluate = [&](const char* figure, const VerificationBounds& bounds,
                      TablePrinter* table) {
    for (const auto& config : configs) {
      QueryGenerationParams gen_params;
      gen_params.epsilon = config.epsilon;
      QueryGenerator generator(&ds->meta, gen_params);

      AssessmentResult sum;
      size_t n = 0;
      engine.ResetStats();
      Stopwatch config_sw;
      for (size_t idx : annotation_set) {
        const WorkloadAnnotation& wa = ds->workload.annotations[idx];
        const size_t delta =
            std::min<size_t>(config.delta, wa.ideal_tuples.size());
        const std::vector<TupleId> focal(wa.ideal_tuples.begin(),
                                         wa.ideal_tuples.begin() + delta);
        const auto queries = generator.Generate(wa.text).queries;

        MiniDb mini;
        const MiniDb* mini_ptr = nullptr;
        if (config.approx) {
          FocalSpreadingParams sp;
          sp.require_stable_acg = false;
          sp.selection = KSelection::kFixed;
          sp.fixed_k = config.k;
          mini = FocalSpreading(&acg, sp).BuildMiniDb(focal);
          mini_ptr = &mini;
        }
        auto candidates = identifier.Identify(queries, focal, mini_ptr);
        if (!candidates.ok()) continue;

        EdgeSet ideal;
        for (const TupleId& t : wa.ideal_tuples) ideal.Add(idx, t);
        const AssessmentResult r = ComputeAssessment(
            AssessPrediction(idx, *candidates, focal, ideal, bounds));
        sum.fn += r.fn;
        sum.fp += r.fp;
        sum.mf += r.mf;
        sum.mh += r.mh;
        ++n;
      }
      if (n == 0) continue;
      const std::string fn = Fmt("%.3f", sum.fn / n);
      const std::string fp = Fmt("%.3f", sum.fp / n);
      const std::string mf = Fmt("%.1f", sum.mf / n);
      const std::string mh = Fmt("%.2f", sum.mh / n);
      table->AddRow({config.name, fn, fp, mf, mh});

      BenchRecord rec;
      rec.name = config.approx ? Fmt("%s/Delta=%zu/K=%zu", figure,
                                     config.delta, config.k)
                               : Fmt("%s/basic/eps=%.1f", figure,
                                     config.epsilon);
      rec.params = {{"dataset", kDataset},
                    {"annotations", Fmt("%zu", n)},
                    {"beta_lower", Fmt("%.2f", bounds.lower)},
                    {"beta_upper", Fmt("%.2f", bounds.upper)},
                    {"F_N", fn},
                    {"F_P", fp},
                    {"M_F", mf},
                    {"M_H", mh}};
      rec.wall_us = config_sw.ElapsedMicros();
      rec.rows_examined = engine.stats().rows_examined;
      records.push_back(std::move(rec));
    }
  };

  Banner(Fmt("Figure 15(a): assessment with tuned bounds [%.2f, %.2f]",
             tuned.best.lower, tuned.best.upper));
  TablePrinter fig15a({"config", "F_N", "F_P", "M_F", "M_H"});
  evaluate("fig15a", tuned.best, &fig15a);
  fig15a.Print();

  Banner("Figure 15(b): degenerate bounds beta_lower = beta_upper = 0.5 "
         "(no experts)");
  TablePrinter fig15b({"config", "F_N", "F_P", "M_F", "M_H"});
  evaluate("fig15b", {0.5, 0.5}, &fig15b);
  fig15b.Print();
  EmitBenchJson("fig15_verification", records);

  std::printf(
      "\nPaper-shape checks: with tuned bounds no configuration dominates\n"
      "all criteria; Nebula-0.8 needs less manual effort but shows ~20%%\n"
      "F_N; focal spreading performs well at K >= 3. Removing the experts\n"
      "entirely (15b) visibly inflates F_P and F_N.\n");
  return 0;
}
