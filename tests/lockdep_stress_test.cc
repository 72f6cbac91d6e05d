// Concurrency stress over the ranked-lock chains the lockdep witness
// guards: table lookups racing the lazy hash/value index builds
// (storage.index_build), shared keyword execution on the main thread
// racing concurrent const searchers over the word-score memo and the
// index builds (meta.wordmemo, storage.index_build -> obs.*), and an
// exclusive writer hammering Insert's incremental index maintenance on
// its own table — Table's documented single-writer contract is honored
// by giving the writer a private table no reader ever touches.
//
// Runs under two labels:
//   tsan     — a -DNEBULA_SANITIZE=thread build race-checks the paths;
//   lockdep  — a -DNEBULA_LOCKDEP=ON build arms the runtime witness and
//              the test asserts zero order violations at the end.
// In a plain build it still runs as a functional smoke (results must
// match sequential execution), so the default suite keeps coverage.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "common/string_util.h"
#include "common/sync.h"
#include "keyword/engine.h"
#include "keyword/query_types.h"
#include "keyword/shared_executor.h"
#include "meta/nebula_meta.h"
#include "storage/catalog.h"
#include "storage/query.h"
#include "storage/table.h"
#include "storage/value.h"
#include "storage/value_index.h"

#if NEBULA_LOCKDEP_ENABLED
#include "common/lockdep.h"
#endif

namespace nebula {
namespace {

constexpr int kGeneRows = 64;
constexpr int kReaderThreads = 3;
constexpr int kSearchThreads = 2;
constexpr int kGroupRounds = 40;
constexpr int kWriterRows = 400;

/// Unique per-row name matching the "[a-z]{3}[A-Z]" column pattern.
std::string StressName(int i) {
  return StrFormat("a%c%cX", 'a' + (i % 26), 'a' + ((i / 26) % 26));
}

class LockdepStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if NEBULA_LOCKDEP_ENABLED
    lockdep::ResetForTest();
    lockdep::SetFailureMode(lockdep::FailureMode::kReport);
    lockdep::SetEnabled(true);
#endif
    gene_ = *catalog_.CreateTable(
        "gene", Schema({{"gid", DataType::kString, true},
                        {"name", DataType::kString, true}}));
    for (int i = 0; i < kGeneRows; ++i) {
      ASSERT_TRUE(gene_
                      ->Insert({Value(StrFormat("JW%04d", i)),
                                Value(StressName(i))})
                      .ok());
    }
    // Declaring a text column is a mutation; do it before any concurrency
    // so LookupToken is a pure concurrent-safe read during the storm (its
    // first call races the others to build the value index).
    ASSERT_TRUE(gene_->DeclareTextColumn(1).ok());
    ASSERT_TRUE(meta_.AddConcept("Gene", "gene", {{"gid"}, {"name"}}).ok());
    ASSERT_TRUE(meta_.SetColumnPattern("gene", "gid", "JW[0-9]{4}").ok());
    ASSERT_TRUE(meta_.SetColumnPattern("gene", "name", "[a-z]{3}[A-Z]").ok());
    engine_ = std::make_unique<KeywordSearchEngine>(&catalog_, &meta_);

    // The writer's private table lives in its own catalog: no keyword
    // search or reader task can reach it, so Insert runs under the
    // exclusive-access contract while everything else storms `gene`.
    scratch_ = *scratch_catalog_.CreateTable(
        "scratch", Schema({{"gid", DataType::kString, true},
                           {"name", DataType::kString, false}}));
  }

  void TearDown() override {
#if NEBULA_LOCKDEP_ENABLED
    for (const auto& v : lockdep::TakeViolations()) {
      ADD_FAILURE() << "lockdep violation (" << v.kind << "):\n" << v.detail;
    }
    EXPECT_EQ(lockdep::ViolationsDetected(), 0u);
    lockdep::SetEnabled(false);
    lockdep::SetFailureMode(lockdep::FailureMode::kAbort);
    lockdep::ResetForTest();
#endif
  }

  Catalog catalog_;
  NebulaMeta meta_;
  Table* gene_ = nullptr;
  std::unique_ptr<KeywordSearchEngine> engine_;
  Catalog scratch_catalog_;
  Table* scratch_ = nullptr;
};

std::vector<KeywordQuery> StressGroup(int round) {
  const std::string gid = StrFormat("JW%04d", round % kGeneRows);
  const std::string name = StressName(round % kGeneRows);
  return {
      {{"gene", gid}, 1.0, "q0"},
      {{"gene", gid}, 0.8, "q1"},  // duplicate content: shared statement
      {{"gene", name}, 0.9, "q2"},
      {{gid}, 0.7, "q3"},
  };
}

TEST_F(LockdepStressTest, ConcurrentLookupsSearchesAndExclusiveWriter) {
#if NEBULA_LOCKDEP_ENABLED
  // Prove the witness is actually armed before trusting its verdict: a
  // deterministic in-order nesting must show up as an observed edge.
  {
    Mutex outer(kLockRankStorageIndexBuild);
    Mutex inner(kLockRankCommonPool);
    MutexLock a(outer);
    MutexLock b(inner);
  }
  ASSERT_GE(lockdep::EdgesObserved(), 1u);
#endif

  // No warm-up lookups before the storm: the lazy hash/value index
  // builds on `gene` must happen *inside* it, with multiple reader
  // threads racing to trigger them. Correctness is checked against a
  // fresh sequential engine after the threads join.
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::atomic<int> search_errors{0};

  // Readers: concurrent-safe const surface of `gene`, including the
  // lazy builds (hash index via Lookup, value index via TryValueIndex)
  // that serialize on storage.index_build.
  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads + kSearchThreads + 1);
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([this, t, &stop, &reader_errors] {
      int i = t;
      std::vector<Table::RowId> scan;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string gid = StrFormat("JW%04d", i % kGeneRows);
        if (gene_->Lookup("gid", Value(gid)).size() != 1) {
          reader_errors.fetch_add(1);
        }
        // Tokens are lower-cased alphanumeric runs, so a whole name or
        // gid lower-cases to exactly one token.
        std::string name_token = StressName(i % kGeneRows);
        for (char& c : name_token) c = static_cast<char>(std::tolower(c));
        if (gene_->LookupToken(1, name_token, &scan).size() != 1) {
          reader_errors.fetch_add(1);
        }
        if (const ValueIndex* vi = gene_->TryValueIndex()) {
          std::string token = gid;
          for (char& c : token) c = static_cast<char>(std::tolower(c));
          if (vi->Lookup(token, 0) == nullptr) reader_errors.fetch_add(1);
        }
        (void)gene_->value_index_info();
        ++i;
      }
    });
  }

  // Searchers: the engine's thread-safe Search overload shares the
  // word-score memo (meta.wordmemo) and the lazy index builds
  // (storage.index_build) across threads.
  for (int t = 0; t < kSearchThreads; ++t) {
    readers.emplace_back([this, t, &stop, &search_errors] {
      int round = t;
      while (!stop.load(std::memory_order_relaxed)) {
        ExecStats stats;
        KeywordQuery q{{"gene", StrFormat("JW%04d", round % kGeneRows)},
                       1.0,
                       "bg"};
        auto hits = engine_->Search(q, nullptr, &stats);
        if (!hits.ok() || hits->empty()) search_errors.fetch_add(1);
        ++round;
      }
    });
  }

  // Exclusive writer: Insert on the private table, with its hash and
  // value indexes built first so every Insert exercises the incremental
  // index maintenance under storage.index_build.
  std::atomic<int> writer_errors{0};
  readers.emplace_back([this, &writer_errors] {
    (void)scratch_->Lookup("gid", Value(std::string("warm")));
    (void)scratch_->TryValueIndex();
    for (int i = 0; i < kWriterRows; ++i) {
      const std::string gid = StrFormat("S%06d", i);
      if (!scratch_->Insert({Value(gid), Value(std::string("payload"))})
               .ok()) {
        writer_errors.fetch_add(1);
      }
      if (scratch_->Lookup("gid", Value(gid)).size() != 1) {
        writer_errors.fetch_add(1);
      }
    }
  });

  // Main thread: shared group execution, alongside the threads above.
  for (int round = 0; round < kGroupRounds; ++round) {
    const auto queries = StressGroup(round);
    std::vector<GroupRow> rows;
    SharedKeywordExecutor shared(engine_.get());
    ASSERT_TRUE(
        shared.ExecuteGroup(engine_->CompileGroup(queries), nullptr, &rows)
            .ok());
    ASSERT_FALSE(rows.empty()) << "round " << round;
    EXPECT_EQ(rows.front().query, 0u) << "round " << round;
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(search_errors.load(), 0);
  EXPECT_EQ(writer_errors.load(), 0);
  EXPECT_EQ(scratch_->num_rows(), static_cast<uint64_t>(kWriterRows));

  // The storm must not have perturbed results: a post-hoc sequential
  // pass over the same groups agrees with a fresh engine.
  KeywordSearchEngine fresh(&catalog_, &meta_);
  for (int round = 0; round < 4; ++round) {
    const auto queries = StressGroup(round);
    std::vector<GroupRow> rows;
    SharedKeywordExecutor shared(engine_.get());
    ASSERT_TRUE(
        shared.ExecuteGroup(engine_->CompileGroup(queries), nullptr, &rows)
            .ok());
    // Bucket the rows by query and fold each bucket as Search does.
    std::vector<std::vector<SearchHit>> shared_results(queries.size());
    for (const GroupRow& r : rows) {
      shared_results[r.query].push_back({r.tuple(), r.confidence});
    }
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      shared_results[qi] =
          KeywordSearchEngine::MergeHits(std::move(shared_results[qi]));
      const auto isolated = *fresh.Search(queries[qi]);
      ASSERT_EQ(shared_results[qi].size(), isolated.size())
          << "round " << round << " query " << qi;
      for (size_t h = 0; h < isolated.size(); ++h) {
        EXPECT_EQ(shared_results[qi][h].tuple, isolated[h].tuple);
      }
    }
  }
}

}  // namespace
}  // namespace nebula
