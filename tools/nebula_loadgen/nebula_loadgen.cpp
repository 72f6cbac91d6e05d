/// Closed/open-loop load harness over a seeded engine — the measurement
/// substrate for every server/sharding claim (ROADMAP item 1).
///
///   nebula_loadgen [--mode closed|open] [--duration 2s] [--qps 100]
///                  [--seed N] [--insert-ratio 0.6]
///                  [--interval-ms 1000] [--slow-us N] [--sample P]
///
/// The harness builds the NebulaCheck universe for --seed, then drives a
/// mixed insert/search stream against one engine:
///  - closed loop: the next operation is issued the moment the previous
///    one completes (optionally throttled to --qps);
///  - open loop: operations are issued on a fixed schedule at --qps and
///    latency is measured from the *scheduled* start, so a stalling
///    engine shows up as queueing delay instead of being coordinated
///    away.
/// Inserts run the full stage 0-3 pipeline (engine.InsertAnnotation on
/// the check stream, cycled); searches re-discover a previously inserted
/// annotation (engine.Discover). Latencies feed per-operation
/// obs::Histogram instances; interval reports use the snapshot/delta
/// API and the final report prints the p50..p999 ladder, which must be
/// monotonically nondecreasing or the run fails. A BENCH_loadgen.json
/// sidecar (bench_util layout, loadgen record shape — see
/// tools/check_bench_schema.py) lands in $NEBULA_BENCH_JSON_DIR or the
/// working directory.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "annotation/annotation_store.h"
#include "common/random.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/engine.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "storage/schema.h"
#include "testing/check_workload.h"

using namespace nebula;

namespace {

struct Options {
  bool closed_loop = true;
  uint64_t duration_us = 2'000'000;
  double qps = 0;  // closed: 0 = unthrottled; open: defaults to 100
  uint64_t seed = 2026;
  double insert_ratio = 0.6;
  uint64_t interval_us = 1'000'000;
  uint64_t slow_us = 0;
  double sample_rate = 1.0;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--mode closed|open] [--duration 2s|500ms]\n"
               "  [--qps N] [--seed N] [--insert-ratio R]\n"
               "  [--interval-ms N] [--slow-us N] [--sample P]\n",
               argv0);
  return 2;
}

/// "2s" / "500ms" / "2" (seconds) -> microseconds; 0 on parse failure.
uint64_t ParseDurationUs(const std::string& arg) {
  char* end = nullptr;
  const double value = std::strtod(arg.c_str(), &end);
  if (end == arg.c_str() || value < 0) return 0;
  const std::string unit = end;
  if (unit.empty() || unit == "s") {
    return static_cast<uint64_t>(value * 1e6);
  }
  if (unit == "ms") return static_cast<uint64_t>(value * 1e3);
  if (unit == "us") return static_cast<uint64_t>(value);
  return 0;
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  // Accepts both "--flag value" and "--flag=value".
  auto next_value = [&](int* i, std::string* out) {
    const std::string arg = argv[*i];
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      *out = arg.substr(eq + 1);
      return true;
    }
    if (*i + 1 >= argc) return false;
    *out = argv[++*i];
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string flag = arg.substr(0, arg.find('='));
    std::string value;
    if (!next_value(&i, &value)) return false;
    if (flag == "--mode") {
      if (value == "closed") {
        opts->closed_loop = true;
      } else if (value == "open") {
        opts->closed_loop = false;
      } else {
        return false;
      }
    } else if (flag == "--duration") {
      opts->duration_us = ParseDurationUs(value);
      if (opts->duration_us == 0) return false;
    } else if (flag == "--qps") {
      opts->qps = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--seed") {
      opts->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--insert-ratio") {
      opts->insert_ratio = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--interval-ms") {
      opts->interval_us =
          std::strtoull(value.c_str(), nullptr, 10) * uint64_t{1000};
    } else if (flag == "--slow-us") {
      opts->slow_us = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--sample") {
      opts->sample_rate = std::strtod(value.c_str(), nullptr);
    } else {
      return false;
    }
  }
  if (!opts->closed_loop && opts->qps <= 0) opts->qps = 100;
  return true;
}

/// Per-operation-type measurement: latency histogram plus the engine's
/// rows-examined delta attributed to this type.
struct OpSeries {
  explicit OpSeries(const char* n) : name(n) {}
  const char* name;
  obs::Histogram latency_us;
  uint64_t ops = 0;
  uint64_t rows_examined = 0;
  obs::Histogram::Snapshot last_interval;  ///< baseline of the last report
};

void PrintLadder(const char* label, const obs::Histogram::Snapshot& snap,
                 uint64_t ops) {
  std::printf("%-7s ops=%-6" PRIu64, label, ops);
  for (const auto& spec : obs::Histogram::kStandardQuantiles) {
    std::printf(" %s=%" PRIu64 "us", spec.name, snap.Quantile(spec.q));
  }
  std::printf("\n");
}

/// The percentile ladder must be monotonically nondecreasing; a
/// violation means the quantile estimator regressed.
bool LadderMonotonic(const obs::Histogram::Snapshot& snap) {
  uint64_t prev = 0;
  for (const auto& spec : obs::Histogram::kStandardQuantiles) {
    const uint64_t q = snap.Quantile(spec.q);
    if (q < prev) return false;
    prev = q;
  }
  return true;
}

std::string QuantileJson(const obs::Histogram::Snapshot& snap) {
  std::string out;
  for (const auto& spec : obs::Histogram::kStandardQuantiles) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), ", \"%s_us\": %" PRIu64, spec.name,
                  snap.Quantile(spec.q));
    out += buf;
  }
  return out;
}

/// BENCH_loadgen.json in the bench_util layout, with the loadgen record
/// shape (wall_us = sum of that operation type's latencies).
bool EmitSidecar(const Options& opts, const std::vector<OpSeries*>& series) {
  const char* dir = std::getenv("NEBULA_BENCH_JSON_DIR");
  std::string path;
  if (dir != nullptr && dir[0] != '\0') {
    path = dir;
    if (path.back() != '/') path += '/';
  }
  path += "BENCH_loadgen.json";

  const char* quick_env = std::getenv("NEBULA_BENCH_QUICK");
  const bool quick = quick_env != nullptr && std::strcmp(quick_env, "0") != 0;

  std::string out = "{\n  \"bench\": \"loadgen\",\n";
  out += std::string("  \"quick_mode\": ") + (quick ? "true" : "false") +
         ",\n";
  // Same build-provenance stamp as bench_util's EmitBenchJson: the
  // schema checker refuses committed sidecars measured under the
  // lockdep witness or a sanitizer.
  out += std::string("  \"build\": {\"lockdep\": ") +
         (NEBULA_LOCKDEP_ENABLED ? "true" : "false") + ", \"sanitizer\": \"" +
         std::string(NEBULA_SANITIZE_NAME) + "\"},\n  \"records\": [";
  for (size_t i = 0; i < series.size(); ++i) {
    const OpSeries& s = *series[i];
    const obs::Histogram::Snapshot snap = s.latency_us.GetSnapshot();
    out += i == 0 ? "\n" : ",\n";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"params\": {\"mode\": \"%s\", "
                  "\"qps\": \"%g\", \"duration_ms\": \"%" PRIu64 "\", "
                  "\"insert_ratio\": \"%g\"}",
                  s.name, opts.closed_loop ? "closed" : "open", opts.qps,
                  opts.duration_us / 1000, opts.insert_ratio);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ", \"wall_us\": %" PRIu64 ", \"rows_examined\": %" PRIu64
                  ", \"ops\": %" PRIu64,
                  snap.sum, s.rows_examined, s.ops);
    out += buf;
    out += QuantileJson(snap);
    out += '}';
  }
  out += series.empty() ? "],\n" : "\n  ],\n";
  out += "  \"metrics\": " + obs::ExportJson(obs::MetricsRegistry::Global());
  out += "\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[loadgen] cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("[loadgen] wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) return Usage(argv[0]);

  // --- Seeded world: the NebulaCheck universe plus its stream ---------
  auto universe_result = check::BuildCheckUniverse(opts.seed);
  if (!universe_result.ok()) {
    std::fprintf(stderr, "FATAL: %s\n",
                 universe_result.status().ToString().c_str());
    return 1;
  }
  check::CheckUniverse& universe = **universe_result;
  const check::CheckWorkload workload =
      check::GenerateCheckWorkload(opts.seed, universe);
  if (workload.annotations.empty()) {
    std::fprintf(stderr, "FATAL: empty check workload\n");
    return 1;
  }

  NebulaConfig config;
  config.identify.shared_execution = true;
  config.slow_query_us = opts.slow_us;
  config.event_sample_rate = opts.sample_rate;
  config.event_seed = opts.seed;
  NebulaEngine engine(&universe.catalog, &universe.store, &universe.meta,
                      config);
  engine.RebuildAcg();

  std::printf(
      "[loadgen] mode=%s duration=%" PRIu64 "ms qps=%g seed=%" PRIu64
      " insert_ratio=%g\n",
      opts.closed_loop ? "closed" : "open", opts.duration_us / 1000, opts.qps,
      opts.seed, opts.insert_ratio);

  // --- Drive ----------------------------------------------------------
  OpSeries insert_series("insert");
  OpSeries search_series("search");
  Rng op_rng(opts.seed ^ 0x10adU);

  // Previously inserted annotations available for re-discovery.
  struct Inserted {
    AnnotationId id;
    std::vector<TupleId> focal;
  };
  std::vector<Inserted> inserted;

  const uint64_t pacing_us =
      opts.qps > 0 ? static_cast<uint64_t>(1e6 / opts.qps) : 0;
  Stopwatch run;
  uint64_t issued = 0;
  uint64_t next_report_us = opts.interval_us;
  uint64_t interval_index = 0;

  while (run.ElapsedMicros() < opts.duration_us) {
    // Open loop: wait for the schedule slot. Closed loop with --qps:
    // throttle, but still measure from actual start.
    const uint64_t scheduled_us = issued * pacing_us;
    if (pacing_us > 0) {
      while (run.ElapsedMicros() < scheduled_us) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    const uint64_t start_us =
        (!opts.closed_loop && pacing_us > 0) ? scheduled_us
                                             : run.ElapsedMicros();

    const bool do_insert =
        inserted.empty() || op_rng.Bernoulli(opts.insert_ratio);
    OpSeries& series = do_insert ? insert_series : search_series;
    const uint64_t rows_before = engine.search_engine().stats().rows_examined;
    if (do_insert) {
      const check::CheckAnnotation& a =
          workload.annotations[issued % workload.annotations.size()];
      auto report = engine.InsertAnnotation(a.text, a.focal, a.author);
      if (!report.ok()) {
        std::fprintf(stderr, "FATAL insert: %s\n",
                     report.status().ToString().c_str());
        return 1;
      }
      inserted.push_back({report->annotation, a.focal});
    } else {
      const Inserted& target =
          inserted[op_rng.Uniform(inserted.size())];
      auto report = engine.Discover(target.id, target.focal);
      if (!report.ok()) {
        std::fprintf(stderr, "FATAL search: %s\n",
                     report.status().ToString().c_str());
        return 1;
      }
    }
    const uint64_t end_us = run.ElapsedMicros();
    series.latency_us.Observe(end_us - start_us);
    series.ops += 1;
    series.rows_examined +=
        engine.search_engine().stats().rows_examined - rows_before;
    ++issued;

    if (run.ElapsedMicros() >= next_report_us) {
      ++interval_index;
      for (OpSeries* s : {&insert_series, &search_series}) {
        const obs::Histogram::Snapshot now = s->latency_us.GetSnapshot();
        const obs::Histogram::Snapshot delta = now.Delta(s->last_interval);
        s->last_interval = now;
        if (delta.count == 0) continue;
        char label[32];
        std::snprintf(label, sizeof(label), "i%" PRIu64 " %s",
                      interval_index, s->name);
        PrintLadder(label, delta, delta.count);
      }
      next_report_us += opts.interval_us;
    }
  }

  const uint64_t wall_us = run.ElapsedMicros();
  std::printf("[loadgen] done: %" PRIu64 " ops in %" PRIu64
              "ms (%.0f op/s), %" PRIu64 " wide events recorded\n",
              issued, wall_us / 1000,
              wall_us > 0 ? issued * 1e6 / static_cast<double>(wall_us) : 0.0,
              engine.event_log().recorded());

  // --- Final report + self-validation --------------------------------
  bool monotonic = true;
  for (OpSeries* s : {&insert_series, &search_series}) {
    const obs::Histogram::Snapshot snap = s->latency_us.GetSnapshot();
    PrintLadder(s->name, snap, s->ops);
    if (!LadderMonotonic(snap)) {
      std::fprintf(stderr, "FATAL: %s percentile ladder not monotonic\n",
                   s->name);
      monotonic = false;
    }
  }
  if (!monotonic) return 1;

  if (!EmitSidecar(opts, {&insert_series, &search_series})) return 1;
  return 0;
}
