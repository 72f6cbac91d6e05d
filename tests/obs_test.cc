#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace nebula {
namespace obs {
namespace {

// ---------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------

TEST(CounterTest, IncrementAccumulates) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, SetAddSub) {
  Gauge g;
  g.Set(10);
  g.Add(5);
  g.Sub(20);
  EXPECT_EQ(g.Value(), -5);
}

TEST(HistogramTest, BucketIndexBoundaries) {
  // Bucket i holds observations <= 2^i us.
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 0u);
  EXPECT_EQ(Histogram::BucketIndex(2), 1u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 2u);
  EXPECT_EQ(Histogram::BucketIndex(5), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1025), 11u);
  // The largest finite bucket covers 2^25; everything above overflows.
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 25),
            Histogram::kNumFinite - 1);
  EXPECT_EQ(Histogram::BucketIndex((uint64_t{1} << 25) + 1),
            Histogram::kNumFinite);
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), Histogram::kNumFinite);
}

TEST(HistogramTest, ObserveCountsSumAndBuckets) {
  Histogram h;
  h.Observe(1);     // bucket 0
  h.Observe(2);     // bucket 1
  h.Observe(3);     // bucket 2
  h.Observe(1000);  // bucket 10 (<= 1024)
  const Histogram::Snapshot snap = h.GetSnapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 1006u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[10], 1u);
  uint64_t total = 0;
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    total += snap.buckets[b];
  }
  EXPECT_EQ(total, snap.count);
}

TEST(HistogramTest, QuantileEmptySnapshotIsZero) {
  Histogram h;
  const Histogram::Snapshot snap = h.GetSnapshot();
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(snap.Quantile(q), 0u) << q;
  }
}

TEST(HistogramTest, QuantileSingleBucketInterpolates) {
  Histogram h;
  // All mass in bucket 10 (bounds (1024, 2048]): every quantile must
  // stay inside that bucket's range and grow with q.
  for (int i = 0; i < 100; ++i) h.Observe(1500);
  const Histogram::Snapshot snap = h.GetSnapshot();
  uint64_t prev = 0;
  for (const auto& spec : Histogram::kStandardQuantiles) {
    const uint64_t q = snap.Quantile(spec.q);
    EXPECT_GE(q, 1024u) << spec.name;
    EXPECT_LE(q, 2048u) << spec.name;
    EXPECT_GE(q, prev) << spec.name;
    prev = q;
  }
}

TEST(HistogramTest, QuantileAllOverflowSaturatesToLargestFiniteBound) {
  Histogram h;
  h.Observe(UINT64_MAX);
  h.Observe((uint64_t{1} << 25) + 1);
  const Histogram::Snapshot snap = h.GetSnapshot();
  const uint64_t cap = Histogram::BucketUpperBound(Histogram::kNumFinite - 1);
  EXPECT_EQ(snap.Quantile(0.5), cap);
  EXPECT_EQ(snap.Quantile(0.999), cap);
}

TEST(HistogramTest, QuantileClampsOutOfRangeQ) {
  Histogram h;
  h.Observe(100);
  const Histogram::Snapshot snap = h.GetSnapshot();
  EXPECT_EQ(snap.Quantile(-1.0), snap.Quantile(0.0));
  EXPECT_EQ(snap.Quantile(2.0), snap.Quantile(1.0));
}

TEST(HistogramTest, QuantileLadderIsMonotoneAcrossSpread) {
  Histogram h;
  for (uint64_t v : {1u, 3u, 17u, 90u, 200u, 5000u, 70000u, 70001u}) {
    h.Observe(v);
  }
  const Histogram::Snapshot snap = h.GetSnapshot();
  uint64_t prev = 0;
  for (int step = 0; step <= 100; ++step) {
    const uint64_t q = snap.Quantile(step / 100.0);
    EXPECT_GE(q, prev) << "q=" << step / 100.0;
    prev = q;
  }
}

TEST(HistogramTest, DeltaSubtractsBaselinePerBucket) {
  Histogram h;
  h.Observe(10);
  h.Observe(1000);
  const Histogram::Snapshot before = h.GetSnapshot();
  h.Observe(10);
  h.Observe(3000);
  const Histogram::Snapshot after = h.GetSnapshot();
  const Histogram::Snapshot delta = after.Delta(before);
  EXPECT_EQ(delta.count, 2u);
  EXPECT_EQ(delta.sum, 3010u);
  EXPECT_EQ(delta.buckets[Histogram::BucketIndex(10)], 1u);
  EXPECT_EQ(delta.buckets[Histogram::BucketIndex(3000)], 1u);
  EXPECT_EQ(delta.buckets[Histogram::BucketIndex(1000)], 0u);
}

TEST(HistogramTest, DeltaAgainstStaleBaselineSaturatesAtZero) {
  Histogram a;
  a.Observe(5);
  Histogram b;  // empty — as if the window started after a reset
  const Histogram::Snapshot delta = b.GetSnapshot().Delta(a.GetSnapshot());
  EXPECT_EQ(delta.count, 0u);
  EXPECT_EQ(delta.sum, 0u);
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(delta.buckets[i], 0u) << i;
  }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameAndLabelsReturnSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("events_total", {{"kind", "x"}});
  Counter* b = registry.GetCounter("events_total", {{"kind", "x"}});
  Counter* other = registry.GetCounter("events_total", {{"kind", "y"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
  a->Increment();
  b->Increment();
  EXPECT_EQ(a->Value(), 2u);
  EXPECT_EQ(other->Value(), 0u);
}

TEST(MetricsRegistryTest, TypeMismatchReturnsDetachedDummy) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("thing_total");
  counter->Increment();
  // Asking for the same family with a different type must not crash nor
  // alias the counter — and the dummy must not be exported.
  Gauge* dummy = registry.GetGauge("thing_total");
  ASSERT_NE(dummy, nullptr);
  dummy->Set(123);
  const auto families = registry.Snapshot();
  ASSERT_EQ(families.size(), 1u);
  EXPECT_EQ(families[0].type, MetricType::kCounter);
  ASSERT_EQ(families[0].samples.size(), 1u);
  EXPECT_EQ(families[0].samples[0].counter_value, 1u);
}

TEST(MetricsRegistryTest, FirstHelpWins) {
  MetricsRegistry registry;
  registry.GetCounter("x_total", {}, "first");
  registry.GetCounter("x_total", {{"l", "v"}}, "second");
  const auto families = registry.Snapshot();
  ASSERT_EQ(families.size(), 1u);
  EXPECT_EQ(families[0].help, "first");
  EXPECT_EQ(families[0].samples.size(), 2u);
}

TEST(MetricsRegistryTest, GlobalIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

// ---------------------------------------------------------------------
// Exporters (golden outputs on a controlled local registry)
// ---------------------------------------------------------------------

TEST(ExportTest, PrometheusGolden) {
  MetricsRegistry registry;
  registry.GetCounter("nebula_events_total", {{"kind", "a"}}, "Event count")
      ->Increment(3);
  registry.GetCounter("nebula_events_total", {{"kind", "b"}})->Increment(7);
  registry.GetGauge("nebula_depth", {}, "Queue depth")->Set(-2);

  const std::string expected =
      "# HELP nebula_depth Queue depth\n"
      "# TYPE nebula_depth gauge\n"
      "nebula_depth -2\n"
      "# HELP nebula_events_total Event count\n"
      "# TYPE nebula_events_total counter\n"
      "nebula_events_total{kind=\"a\"} 3\n"
      "nebula_events_total{kind=\"b\"} 7\n";
  EXPECT_EQ(ExportPrometheus(registry), expected);
}

TEST(ExportTest, PrometheusHistogramIsCumulativeWithInf) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("nebula_lat_us", {}, "Latency");
  h->Observe(1);
  h->Observe(2);
  h->Observe(100);  // bucket 7 (<= 128)

  const std::string text = ExportPrometheus(registry);
  EXPECT_NE(text.find("nebula_lat_us_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("nebula_lat_us_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("nebula_lat_us_bucket{le=\"64\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("nebula_lat_us_bucket{le=\"128\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("nebula_lat_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("nebula_lat_us_sum 103\n"), std::string::npos);
  EXPECT_NE(text.find("nebula_lat_us_count 3\n"), std::string::npos);
}

TEST(ExportTest, PrometheusEscapesLabelValues) {
  MetricsRegistry registry;
  registry.GetCounter("nebula_sql_total", {{"stmt", "a\"b\\c\nd"}})
      ->Increment();
  const std::string text = ExportPrometheus(registry);
  EXPECT_NE(text.find("nebula_sql_total{stmt=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
}

/// Minimal Prometheus text-format validator: every non-comment line must
/// be `name{labels} value` with a parseable number and balanced quotes.
void ValidatePrometheusText(const std::string& text) {
  size_t pos = 0;
  size_t lines = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "missing trailing newline";
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lines;
    if (line.empty()) {
      FAIL() << "empty line in exposition output";
    }
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    // name[{labels}] value
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(value.empty()) << line;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparseable sample value in: " << line;
    const std::string series = line.substr(0, space);
    const size_t brace = series.find('{');
    const std::string name =
        brace == std::string::npos ? series : series.substr(0, brace);
    ASSERT_FALSE(name.empty()) << line;
    for (char c : name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << "bad metric-name char in: " << line;
    }
    if (brace != std::string::npos) {
      EXPECT_EQ(series.back(), '}') << line;
      // Quotes must balance (escaped quotes come in pairs with their
      // backslash, so a simple count of unescaped quotes suffices).
      size_t quotes = 0;
      for (size_t i = brace; i < series.size(); ++i) {
        if (series[i] == '"' && series[i - 1] != '\\') ++quotes;
      }
      EXPECT_EQ(quotes % 2, 0u) << line;
    }
  }
  EXPECT_GT(lines, 0u);
}

TEST(ExportTest, GlobalRegistryOutputIsScrapeParseable) {
  // Touch a few global instruments so the export is non-trivial, then
  // validate every line of the full global dump (whatever other tests or
  // engine code already registered).
  auto& global = MetricsRegistry::Global();
  global.GetCounter("nebula_obs_test_events_total", {{"case", "golden"}})
      ->Increment();
  global.GetHistogram("nebula_obs_test_lat_us")->Observe(77);
  ValidatePrometheusText(ExportPrometheus(global));
}

TEST(ExportTest, JsonGolden) {
  MetricsRegistry registry;
  registry.GetCounter("c_total", {{"k", "v"}}, "help me")->Increment(5);
  const std::string expected =
      "{\"metrics\":[{\"name\":\"c_total\",\"type\":\"counter\","
      "\"help\":\"help me\",\"samples\":[{\"labels\":{\"k\":\"v\"},"
      "\"value\":5}]}]}";
  EXPECT_EQ(ExportJson(registry), expected);
}

TEST(ExportTest, JsonHistogramKeepsNonCumulativeBucketsWithNullInf) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h_us");
  h->Observe(1);
  h->Observe(2);
  const std::string json = ExportJson(registry);
  EXPECT_NE(json.find("\"count\":2,\"sum\":3"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":1,\"count\":1}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":2,\"count\":1}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":4,\"count\":0}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":null,\"count\":0}"), std::string::npos);
}

TEST(ExportTest, JsonEscapeControlCharacters) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\te\rf"), "a\\\"b\\\\c\\nd\\te\\rf");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(ExportTest, JsonEscapeBackspaceAndFormFeed) {
  // \b and \f have dedicated two-character escapes; everything else below
  // 0x20 falls through to \u00XX.
  EXPECT_EQ(JsonEscape("a\bb\fc"), "a\\bb\\fc");
  EXPECT_EQ(JsonEscape(std::string(1, '\x1f')), "\\u001f");
  EXPECT_EQ(JsonEscape(std::string(1, '\x00')), "\\u0000");
}

TEST(ExportTest, PromEscapeControlCharacters) {
  // The exposition format has escapes for backslash, quote, and newline
  // only; any other control byte is rendered as a visible \xNN token so
  // it can never corrupt the line protocol.
  EXPECT_EQ(PromEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(PromEscape("x\ry"), "x\\x0dy");
  EXPECT_EQ(PromEscape(std::string(1, '\x01')), "\\x01");
  EXPECT_EQ(PromEscape(std::string(1, '\x1f')), "\\x1f");
  EXPECT_EQ(PromEscape(std::string(1, '\x00')), "\\x00");
}

// ---------------------------------------------------------------------
// Engine integration: one insert records its stage timings in one event.
// ---------------------------------------------------------------------

TEST(EngineObsTest, InsertAnnotationRecordsStageTimingsInItsEvent) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  auto dataset = GenerateBioDataset(DatasetSpec::Tiny());
  ASSERT_TRUE(dataset.ok());
  NebulaConfig config;
  config.bounds = {0.2, 0.9};
  NebulaEngine engine(&(*dataset)->catalog, &(*dataset)->store,
                      &(*dataset)->meta, config);
  engine.RebuildAcg();

  const WorkloadAnnotation& wa = (*dataset)->workload.annotations.front();
  auto report = engine.InsertAnnotation(wa.text, {wa.ideal_tuples.front()},
                                        "obs_test");
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // StageTimings replaces the old lone search_us: total folds all stages.
  EXPECT_GE(report->timings.total_us(), report->timings.search_us);
  EXPECT_EQ(report->timings.total_us(),
            report->timings.store_us + report->timings.generation_us +
                report->timings.search_us + report->timings.verification_us);

  // The one event carries the report's stage and Stage-1 phase timings.
  const std::vector<std::string> events = engine.event_log().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  const std::string& event = events.front();
  const auto& phases = report->generation_timing;
  EXPECT_EQ(phases.total_us(), report->timings.generation_us);
  const std::map<std::string, uint64_t> fields = {
      {"annotation", report->annotation},
      {"store_us", report->timings.store_us},
      {"generation_us", report->timings.generation_us},
      {"map_generation_us", phases.map_generation_us},
      {"context_adjust_us", phases.context_adjust_us},
      {"query_formation_us", phases.query_formation_us},
      {"search_us", report->timings.search_us},
      {"mini_db_us", 0},
      {"verification_us", report->timings.verification_us}};
  for (const auto& [key, value] : fields) {
    EXPECT_NE(event.find("\"" + key + "\":" + std::to_string(value) + ","),
              std::string::npos)
        << key << " in " << event;
  }
  EXPECT_NE(event.find("\"search_mode\":\"full_database\""),
            std::string::npos)
      << event;

  // The engine counters moved.
  auto& global = MetricsRegistry::Global();
  EXPECT_GE(global.GetCounter("nebula_annotations_inserted_total")->Value(),
            1u);
}

}  // namespace
}  // namespace obs
}  // namespace nebula
