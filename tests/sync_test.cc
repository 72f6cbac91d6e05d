// Tests for the annotated synchronization primitives (common/sync.h) plus
// regression coverage for the lock-discipline areas the static-analysis
// migration touched: Table's lazy index build and Histogram shard reads
// on the exporter path. Carries the ctest label
// "tsan" — run from a -DNEBULA_SANITIZE=thread build to race-check.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "common/sync.h"
#include "obs/metrics.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace nebula {
namespace {

// ---------------------------------------------------------------------------
// Mutex / MutexLock
// ---------------------------------------------------------------------------

TEST(MutexTest, MutexLockMutualExclusion) {
  constexpr int kThreads = 8;
  constexpr int kIterations = 5000;
  Mutex mutex;
  int64_t counter = 0;  // guarded by `mutex` (locals can't carry GUARDED_BY)

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mutex, &counter] {
      for (int i = 0; i < kIterations; ++i) {
        MutexLock lock(mutex);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  MutexLock lock(mutex);
  EXPECT_EQ(counter, int64_t{kThreads} * kIterations);
}

TEST(MutexTest, TryLockReflectsOwnership) {
  Mutex mutex;
  bool locked_elsewhere = true;
  {
    MutexLock lock(mutex);
    // TryLock from the same thread on a held std::mutex is UB, so probe
    // from another thread.
    std::thread probe([&] { locked_elsewhere = mutex.TryLock(); });
    probe.join();
    EXPECT_FALSE(locked_elsewhere);
  }
  std::thread probe([&] {
    locked_elsewhere = mutex.TryLock();
    if (locked_elsewhere) mutex.Unlock();
  });
  probe.join();
  EXPECT_TRUE(locked_elsewhere);
}

TEST(MutexTest, AssertHeldCompilesAndRuns) {
  Mutex mutex;
  MutexLock lock(mutex);
  mutex.AssertHeld();  // documents the capability; must be a no-op at runtime
}

// ---------------------------------------------------------------------------
// CondVar
// ---------------------------------------------------------------------------

TEST(CondVarTest, WaitWakesOnNotify) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;  // guarded by `mutex`
  int observed = 0;    // guarded by `mutex`

  std::thread consumer([&] {
    MutexLock lock(mutex);
    while (!ready) cv.Wait(mutex);
    observed = 42;
  });
  {
    MutexLock lock(mutex);
    ready = true;
  }
  cv.NotifyOne();
  consumer.join();

  MutexLock lock(mutex);
  EXPECT_EQ(observed, 42);
}

TEST(CondVarTest, NotifyAllWakesEveryWaiter) {
  constexpr int kWaiters = 4;
  Mutex mutex;
  CondVar cv;
  bool go = false;  // guarded by `mutex`
  int woke = 0;     // guarded by `mutex`

  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&] {
      MutexLock lock(mutex);
      while (!go) cv.Wait(mutex);
      ++woke;
    });
  }
  {
    MutexLock lock(mutex);
    go = true;
  }
  cv.NotifyAll();
  for (auto& thread : waiters) thread.join();

  MutexLock lock(mutex);
  EXPECT_EQ(woke, kWaiters);
}

// ---------------------------------------------------------------------------
// SharedMutex / ReaderMutexLock / WriterMutexLock
// ---------------------------------------------------------------------------

TEST(SharedMutexTest, ReadersRunConcurrently) {
  SharedMutex mutex;
  std::atomic<int> readers_inside{0};
  std::atomic<int> max_concurrent{0};
  std::atomic<bool> release{false};

  auto reader = [&] {
    ReaderMutexLock lock(mutex);
    const int inside = readers_inside.fetch_add(1) + 1;
    int prev = max_concurrent.load();
    while (prev < inside && !max_concurrent.compare_exchange_weak(prev, inside)) {
    }
    // Park until both readers have been seen inside, or time out (the
    // assertion below then reports the failure).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!release.load() && std::chrono::steady_clock::now() < deadline) {
      if (max_concurrent.load() >= 2) release.store(true);
      std::this_thread::yield();
    }
    readers_inside.fetch_sub(1);
  };
  std::thread r1(reader), r2(reader);
  r1.join();
  r2.join();
  EXPECT_GE(max_concurrent.load(), 2)
      << "two ReaderMutexLock holders never overlapped";
}

TEST(SharedMutexTest, WriterExcludesReadersAndWriters) {
  SharedMutex mutex;
  bool acquired = true;
  {
    WriterMutexLock lock(mutex);
    std::thread probe([&] {
      acquired = mutex.TryLockShared();
      if (acquired) mutex.UnlockShared();
    });
    probe.join();
    EXPECT_FALSE(acquired) << "reader acquired while a writer held the lock";

    std::thread probe2([&] {
      acquired = mutex.TryLock();
      if (acquired) mutex.Unlock();
    });
    probe2.join();
    EXPECT_FALSE(acquired) << "writer acquired while a writer held the lock";
  }
  std::thread probe([&] {
    acquired = mutex.TryLockShared();
    if (acquired) mutex.UnlockShared();
  });
  probe.join();
  EXPECT_TRUE(acquired);
}

TEST(SharedMutexTest, WriterSeesAllReaderSideEffects) {
  constexpr int kThreads = 4;
  constexpr int kIterations = 2000;
  SharedMutex mutex;
  int64_t value = 0;  // guarded by `mutex`

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        WriterMutexLock lock(mutex);
        ++value;
      }
    });
  }
  for (auto& thread : writers) thread.join();
  ReaderMutexLock lock(mutex);
  EXPECT_EQ(value, int64_t{kThreads} * kIterations);
}

// ---------------------------------------------------------------------------
// Regression: Table's double-checked lazy index build (the canonical
// -Werror=thread-safety candidate). Readers racing to trigger the same
// build must serialize it and all observe the published index.
// ---------------------------------------------------------------------------

TEST(SyncRegressionTest, TableLazyIndexBuildRace) {
  Schema schema({{"gid", DataType::kString, /*unique=*/true},
                 {"name", DataType::kString},
                 {"length", DataType::kInt64}});
  Table table(0, "gene", schema);
  constexpr int kRows = 512;
  for (int r = 0; r < kRows; ++r) {
    auto inserted = table.Insert({Value(StrFormat("g%04d", r)),
                                  Value(StrFormat("name%d", r % 7)),
                                  Value(int64_t{r % 13})});
    ASSERT_TRUE(inserted.ok());
  }

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &mismatches, t] {
      // Every thread races the lazy build of all three column indexes.
      if (table.DistinctCount(0) != kRows) mismatches.fetch_add(1);
      if (table.DistinctCount(1) != 7) mismatches.fetch_add(1);
      if (table.DistinctCount(2) != 13) mismatches.fetch_add(1);
      std::vector<Table::RowId> rows;
      switch (t % 3) {
        case 0:
          rows = table.Lookup(size_t{0}, Value("g0100"));
          break;
        case 1:
          rows = table.Lookup(size_t{1}, Value("name3"));
          break;
        default:
          rows = table.Lookup(size_t{2}, Value(int64_t{5}));
          break;
      }
      if (rows.empty()) mismatches.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// Regression: Histogram shard reads on the exporter path while pool
// workers are still observing.
// ---------------------------------------------------------------------------

TEST(SyncRegressionTest, HistogramSnapshotDuringConcurrentObserve) {
  constexpr int kThreads = 8;
  constexpr int kObservations = 4000;
  obs::Histogram histogram;

  std::atomic<bool> done{false};
  std::thread exporter([&] {
    uint64_t last_count = 0;
    while (!done.load()) {
      const auto snap = histogram.GetSnapshot();
      // Counts fold across shards; they must never go backwards.
      EXPECT_GE(snap.count, last_count);
      last_count = snap.count;
      uint64_t bucket_total = 0;
      for (uint64_t b : snap.buckets) bucket_total += b;
      EXPECT_EQ(bucket_total, snap.count);
    }
  });

  std::vector<std::thread> observers;
  observers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    observers.emplace_back([&histogram] {
      for (int i = 0; i < kObservations; ++i) {
        histogram.Observe(static_cast<uint64_t>(i % 1000));
      }
    });
  }
  for (auto& thread : observers) thread.join();
  done.store(true);
  exporter.join();

  const auto snap = histogram.GetSnapshot();
  EXPECT_EQ(snap.count, uint64_t{kThreads} * kObservations);
}

}  // namespace
}  // namespace nebula
