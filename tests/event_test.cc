/// Wide-event layer tests: the JSON record shape, the EventLog's
/// sampling / slow-query / ring / sink semantics, context install, and
/// the engine-level integration (every insert and
/// every search records exactly one wide event, and nothing else does).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "annotation/annotation_store.h"
#include "common/status.h"
#include "core/engine.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "testing/check_workload.h"

namespace nebula {
namespace obs {
namespace {

// ---------------------------------------------------------------------
// WideEventToJson
// ---------------------------------------------------------------------

TEST(WideEventJsonTest, FixedFieldOrderAndOptionalFields) {
  WideEvent event;
  event.op = "insert";
  event.op_id = 7;
  event.annotation = 42;
  event.thread = 3;
  event.duration_us = 120;
  event.store_us = 10;
  event.generation_us = 30;
  event.map_generation_us = 20;
  event.search_us = 70;
  event.search_mode = "focal_spreading";
  event.verification_us = 10;
  event.plan_cache_hits = 2;
  event.rows_examined = 55;
  event.verification = "accepted=1,rejected=0,pending=2";
  event.slow = true;
  const std::string json = WideEventToJson(event);
  // Leading fields in fixed order.
  EXPECT_EQ(json.find("{\"op\":\"insert\",\"op_id\":7,\"annotation\":42,"
                      "\"thread\":3,\"duration_us\":120"),
            0u)
      << json;
  EXPECT_NE(json.find("\"generation_us\":30,\"map_generation_us\":20,"
                      "\"context_adjust_us\":0,\"query_formation_us\":0,"
                      "\"search_us\":70,\"search_mode\":\"focal_spreading\","
                      "\"mini_db_us\":0,\"verification_us\":10,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"plan_cache_hits\":2"), std::string::npos);
  EXPECT_NE(json.find("\"index_lookups\":0"), std::string::npos);
  EXPECT_NE(json.find("\"rows_examined\":55"), std::string::npos);
  EXPECT_NE(json.find("\"verification\":\"accepted=1,rejected=0,pending=2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"slow\":true"), std::string::npos);
}

// ---------------------------------------------------------------------
// EventLog
// ---------------------------------------------------------------------

WideEvent MakeEvent(const char* op, uint64_t duration_us = 0) {
  WideEvent event;
  event.op = op;
  event.duration_us = duration_us;
  return event;
}

TEST(EventLogTest, RingKeepsNewestAndCountsEvictions) {
  EventLog log({/*capacity=*/3, 1.0, 0, 0});
  for (int i = 0; i < 5; ++i) {
    WideEvent event = MakeEvent("search");
    event.op_id = log.NextOpId();
    log.Record(event);
  }
  EXPECT_EQ(log.recorded(), 5u);
  EXPECT_EQ(log.ring_dropped(), 2u);
  const std::vector<std::string> lines = log.Snapshot();
  ASSERT_EQ(lines.size(), 3u);
  // Oldest first: op_ids 3, 4, 5 survive.
  EXPECT_NE(lines[0].find("\"op_id\":3"), std::string::npos);
  EXPECT_NE(lines[2].find("\"op_id\":5"), std::string::npos);
  EXPECT_EQ(log.DumpJsonLines(),
            lines[0] + "\n" + lines[1] + "\n" + lines[2] + "\n");
}

TEST(EventLogTest, SamplingIsSeedDeterministic) {
  const EventLog::Options options{/*capacity=*/256, /*sample_rate=*/0.4,
                                  /*slow_us=*/0, /*seed=*/99};
  EventLog a(options);
  EventLog b(options);
  for (int i = 0; i < 200; ++i) {
    a.Record(MakeEvent("search", i));
    b.Record(MakeEvent("search", i));
  }
  EXPECT_EQ(a.recorded() + a.sampled_out(), 200u);
  EXPECT_GT(a.sampled_out(), 0u);
  EXPECT_GT(a.recorded(), 0u);
  // Same seed, same arrival order: the kept set is identical.
  EXPECT_EQ(a.Snapshot(), b.Snapshot());
  EXPECT_EQ(a.recorded(), b.recorded());
}

TEST(EventLogTest, SlowEventsBypassSampling) {
  // sample_rate 0 drops everything except events at or over slow_us.
  EventLog log({/*capacity=*/256, /*sample_rate=*/0.0, /*slow_us=*/100, 0});
  log.Record(MakeEvent("search", 99));
  log.Record(MakeEvent("search", 100));
  log.Record(MakeEvent("search", 5000));
  EXPECT_EQ(log.recorded(), 2u);
  EXPECT_EQ(log.sampled_out(), 1u);
  for (const std::string& line : log.Snapshot()) {
    EXPECT_EQ(line.find("\"duration_us\":99,"), std::string::npos) << line;
  }
}

TEST(EventLogTest, SinkReceivesEveryKeptLine) {
  EventLog log({/*capacity=*/256, 1.0, 0, 0});
  std::vector<std::string> seen;
  log.SetSink([&seen](const std::string& line) {
    seen.push_back(line);
    return true;
  });
  log.Record(MakeEvent("insert"));
  log.Record(MakeEvent("search"));
  EXPECT_EQ(seen, log.Snapshot());
}

TEST(EventLogTest, FailingSinkDropsEventAndCounts) {
  EventLog log({/*capacity=*/256, 1.0, 0, 0});
  log.SetSink([](const std::string&) { return false; });
  log.Record(MakeEvent("insert"));
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_EQ(log.write_failures(), 1u);
  EXPECT_TRUE(log.Snapshot().empty());
  // Clearing the sink restores normal recording.
  log.SetSink(nullptr);
  log.Record(MakeEvent("insert"));
  EXPECT_EQ(log.recorded(), 1u);
  EXPECT_EQ(log.Snapshot().size(), 1u);
}

// ---------------------------------------------------------------------
// Context install
// ---------------------------------------------------------------------

TEST(EventContextTest, ScopedInstallAndRestore) {
  EXPECT_EQ(CurrentEventContext(), nullptr);
  EventLog log({/*capacity=*/4, 1.0, 0, 0});
  {
    ScopedEventContext outer(&log);
    EXPECT_EQ(CurrentEventContext(), outer.context());
    EXPECT_EQ(outer.op_id(), 1u);
    {
      ScopedEventContext inner(&log);
      EXPECT_EQ(CurrentEventContext(), inner.context());
      EXPECT_EQ(inner.op_id(), 2u);
    }
    EXPECT_EQ(CurrentEventContext(), outer.context());
  }
  EXPECT_EQ(CurrentEventContext(), nullptr);
}

TEST(EventContextTest, FillEventCopiesCounters) {
  EventContext context;
  context.plan_cache_hits = 3;
  context.sql_executed = 2;
  context.rows_examined = 77;
  context.sql_shared = 5;
  WideEvent event;
  FillEventFromContext(&event, context);
  EXPECT_EQ(event.plan_cache_hits, 3u);
  EXPECT_EQ(event.sql_executed, 2u);
  EXPECT_EQ(event.rows_examined, 77u);
  EXPECT_EQ(event.sql_shared, 5u);
}

// ---------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------

/// The numeric value of `key` in one JSON event line.
uint64_t NumberField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing from " << line;
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

TEST(EngineEventTest, OneEventPerOperationInAPooledBatch) {
  if (!kEnabled) GTEST_SKIP() << "instrumentation compiled out";
  auto universe = check::BuildCheckUniverse(11);
  ASSERT_TRUE(universe.ok()) << universe.status().ToString();
  const check::CheckWorkload workload =
      check::GenerateCheckWorkload(11, **universe);
  ASSERT_GE(workload.annotations.size(), 2u);

  NebulaConfig config;
  config.num_threads = 2;
  NebulaEngine engine(&(*universe)->catalog, &(*universe)->store,
                      &(*universe)->meta, config);
  engine.RebuildAcg();

  std::vector<AnnotationRequest> requests;
  for (const check::CheckAnnotation& a : workload.annotations) {
    requests.push_back({a.text, a.focal, a.author});
  }
  auto reports = engine.InsertAnnotations(requests);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  const size_t searches = 2;
  for (size_t i = 0; i < searches; ++i) {
    ASSERT_TRUE(
        engine.Discover((*reports)[i].annotation, requests[i].focal).ok());
  }

  EXPECT_EQ(engine.event_log().recorded(), requests.size() + searches);
  size_t inserts = 0, search_events = 0;
  for (const std::string& line : engine.event_log().Snapshot()) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"op\":\"search\"") != std::string::npos) {
      ++search_events;
      continue;
    }
    ASSERT_NE(line.find("\"op\":\"insert\""), std::string::npos) << line;
    ++inserts;
    EXPECT_NE(line.find("\"verification\":"), std::string::npos) << line;
    EXPECT_EQ(NumberField(line, "map_generation_us") +
                  NumberField(line, "context_adjust_us") +
                  NumberField(line, "query_formation_us"),
              NumberField(line, "generation_us"))
        << line;
  }
  EXPECT_EQ(inserts, requests.size());
  EXPECT_EQ(search_events, searches);

  // A focal-spreading insert names its mode and times its mini-db build.
  engine.config().enable_focal_spreading = true;
  engine.config().spreading.require_stable_acg = false;
  auto spread =
      engine.InsertAnnotations(std::span<const AnnotationRequest>(requests)
                                   .first(1));
  ASSERT_TRUE(spread.ok()) << spread.status().ToString();
  ASSERT_EQ(spread->front().mode, SearchMode::kFocalSpreading);
  const std::string last = engine.event_log().Snapshot().back();
  EXPECT_NE(last.find("\"search_mode\":\"focal_spreading\""),
            std::string::npos)
      << last;
  EXPECT_EQ(NumberField(last, "mini_db_us"), spread->front().mini_db_us);
}

TEST(EngineEventTest, FirstInsertIntoEmptyStoreCarriesAnnotationZero) {
  if (!kEnabled) GTEST_SKIP() << "instrumentation compiled out";
  auto universe = check::BuildCheckUniverse(12);
  ASSERT_TRUE(universe.ok()) << universe.status().ToString();
  const check::CheckWorkload workload =
      check::GenerateCheckWorkload(12, **universe);
  ASSERT_FALSE(workload.annotations.empty());

  AnnotationStore empty;
  NebulaEngine engine(&(*universe)->catalog, &empty, &(*universe)->meta, {});
  const check::CheckAnnotation& a = workload.annotations.front();
  auto report = engine.InsertAnnotation(a.text, a.focal, a.author);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->annotation, 0u);
  EXPECT_NE(engine.DumpEvents().find("\"annotation\":0,"), std::string::npos)
      << engine.DumpEvents();
}

TEST(EngineEventTest, DiscoverEmitsSearchEvent) {
  if (!kEnabled) GTEST_SKIP() << "instrumentation compiled out";
  auto universe = check::BuildCheckUniverse(12);
  ASSERT_TRUE(universe.ok()) << universe.status().ToString();
  const check::CheckWorkload workload =
      check::GenerateCheckWorkload(12, **universe);
  ASSERT_FALSE(workload.annotations.empty());

  NebulaEngine engine(&(*universe)->catalog, &(*universe)->store,
                      &(*universe)->meta, {});
  engine.RebuildAcg();
  const check::CheckAnnotation& a = workload.annotations.front();
  auto inserted = engine.InsertAnnotation(a.text, a.focal, a.author);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  auto discovered = engine.Discover(inserted->annotation, a.focal);
  ASSERT_TRUE(discovered.ok()) << discovered.status().ToString();

  const std::string dump = engine.DumpEvents();
  EXPECT_NE(dump.find("\"op\":\"search\""), std::string::npos) << dump;
  // Searches skip verification: no outcome string on the search record.
  const size_t search_at = dump.find("\"op\":\"search\"");
  const size_t line_end = dump.find('\n', search_at);
  const std::string search_line =
      dump.substr(search_at, line_end - search_at);
  EXPECT_EQ(search_line.find("\"verification\":\""), std::string::npos)
      << search_line;
}

TEST(EngineEventTest, SearchExecutesTheStatementsItsInsertExecuted) {
  // No statement outlives its operation: re-discovering an annotation
  // runs every statement its insert ran, none is replayed.
  if (!kEnabled) GTEST_SKIP() << "instrumentation compiled out";
  auto universe = check::BuildCheckUniverse(12);
  ASSERT_TRUE(universe.ok()) << universe.status().ToString();
  const check::CheckWorkload workload =
      check::GenerateCheckWorkload(12, **universe);
  ASSERT_FALSE(workload.annotations.empty());

  NebulaEngine engine(&(*universe)->catalog, &(*universe)->store,
                      &(*universe)->meta, {});
  engine.RebuildAcg();
  const check::CheckAnnotation& a = workload.annotations.front();
  auto inserted = engine.InsertAnnotation(a.text, a.focal, a.author);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  ASSERT_TRUE(engine.Discover(inserted->annotation, a.focal).ok());

  const std::vector<std::string> lines = engine.event_log().Snapshot();
  ASSERT_EQ(lines.size(), 2u);
  ASSERT_NE(lines[0].find("\"op\":\"insert\""), std::string::npos);
  ASSERT_NE(lines[1].find("\"op\":\"search\""), std::string::npos);
  EXPECT_GT(NumberField(lines[0], "sql_executed"), 0u) << lines[0];
  EXPECT_EQ(NumberField(lines[1], "sql_executed"),
            NumberField(lines[0], "sql_executed"))
      << lines[1];
}

}  // namespace
}  // namespace obs
}  // namespace nebula
