/// Concurrency hammering for the observability layer: counters,
/// histograms, and the registry's find-or-create path are all driven from
/// ThreadPool workers at once.
/// Run from a -DNEBULA_SANITIZE=thread build (ctest -L tsan) to
/// race-check; the assertions also pin the exactly-once accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace nebula {
namespace obs {
namespace {

constexpr size_t kThreads = 8;
constexpr size_t kTasksPerThread = 64;
constexpr uint64_t kIncrementsPerTask = 250;

TEST(ObsConcurrencyTest, CountersAndHistogramsAreExact) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("hammer_total");
  Histogram* histogram = registry.GetHistogram("hammer_us");

  ThreadPool pool(kThreads);
  std::vector<std::future<void>> done;
  for (size_t t = 0; t < kThreads * kTasksPerThread; ++t) {
    done.push_back(pool.Submit([counter, histogram, t] {
      for (uint64_t i = 0; i < kIncrementsPerTask; ++i) {
        counter->Increment();
        histogram->Observe(t % 4096);  // spreads across ~12 buckets
      }
    }));
  }
  for (auto& f : done) f.get();

  const uint64_t expected = kThreads * kTasksPerThread * kIncrementsPerTask;
  EXPECT_EQ(counter->Value(), expected);
  const Histogram::Snapshot snap = histogram->GetSnapshot();
  EXPECT_EQ(snap.count, expected);
  uint64_t bucket_total = 0;
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    bucket_total += snap.buckets[b];
  }
  EXPECT_EQ(bucket_total, expected);
}

TEST(ObsConcurrencyTest, RegistryFindOrCreateRaces) {
  MetricsRegistry registry;
  ThreadPool pool(kThreads);
  std::vector<std::future<Counter*>> handles;
  for (size_t t = 0; t < kThreads * kTasksPerThread; ++t) {
    handles.push_back(pool.Submit([&registry, t] {
      // All tasks race find-or-create over 8 distinct label sets.
      Counter* c = registry.GetCounter(
          "race_total", {{"lane", std::to_string(t % 8)}}, "racing");
      c->Increment();
      return c;
    }));
  }
  std::vector<Counter*> resolved;
  for (auto& h : handles) resolved.push_back(h.get());
  // Identical label sets must have resolved to the identical instrument.
  for (size_t i = 0; i < resolved.size(); ++i) {
    EXPECT_EQ(resolved[i], resolved[i % 8]);
  }
  uint64_t total = 0;
  for (const auto& family : registry.Snapshot()) {
    for (const auto& sample : family.samples) total += sample.counter_value;
  }
  EXPECT_EQ(total, kThreads * kTasksPerThread);
}

TEST(ObsConcurrencyTest, SnapshotWhileHammering) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("live_total");
  Histogram* histogram = registry.GetHistogram("live_us");
  std::atomic<bool> stop{false};

  ThreadPool pool(kThreads);
  std::vector<std::future<void>> done;
  for (size_t t = 0; t < kThreads; ++t) {
    done.push_back(pool.Submit([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        counter->Increment();
        histogram->Observe(42);
      }
    }));
  }
  // Exports must stay well-formed while writers run.
  for (int i = 0; i < 50; ++i) {
    const std::string text = ExportPrometheus(registry);
    EXPECT_NE(text.find("live_total"), std::string::npos);
    const std::string json = ExportJson(registry);
    EXPECT_EQ(json.find("{\"metrics\":["), 0u);
  }
  stop.store(true);
  for (auto& f : done) f.get();
  const Histogram::Snapshot snap = histogram->GetSnapshot();
  EXPECT_EQ(snap.count, counter->Value());
}

TEST(ObsConcurrencyTest, SnapshotDeltaWhileRecording) {
  // Interval percentiles are computed from snapshot deltas taken while
  // workers keep observing. Every delta must be internally consistent
  // (nonnegative buckets summing to count, monotone quantile ladder) and
  // the final total must account for every observation exactly once.
  Histogram histogram;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> observed{0};

  ThreadPool pool(kThreads);
  std::vector<std::future<void>> done;
  for (size_t t = 0; t < kThreads; ++t) {
    done.push_back(pool.Submit([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        histogram.Observe((t * 37) % 4096);
        observed.fetch_add(1, std::memory_order_relaxed);
      }
    }));
  }

  Histogram::Snapshot baseline = histogram.GetSnapshot();
  for (int i = 0; i < 50; ++i) {
    const Histogram::Snapshot now = histogram.GetSnapshot();
    const Histogram::Snapshot delta = now.Delta(baseline);
    baseline = now;
    uint64_t bucket_total = 0;
    for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
      bucket_total += delta.buckets[b];
    }
    EXPECT_EQ(bucket_total, delta.count);
    uint64_t prev = 0;
    for (const auto& spec : Histogram::kStandardQuantiles) {
      const uint64_t q = delta.Quantile(spec.q);
      EXPECT_GE(q, prev) << spec.name;
      prev = q;
    }
  }
  stop.store(true);
  for (auto& f : done) f.get();
  EXPECT_EQ(histogram.GetSnapshot().count,
            observed.load(std::memory_order_relaxed));
}

}  // namespace
}  // namespace obs
}  // namespace nebula
