#ifndef NEBULA_BENCH_BENCH_UTIL_H_
#define NEBULA_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "core/engine.h"
#include "core/query_generation.h"
#include "storage/catalog.h"
#include "workload/generator.h"

namespace nebula {
namespace bench {

/// True when NEBULA_BENCH_QUICK=1: every dataset is swapped for the Small
/// preset so a full bench sweep finishes in seconds (useful for CI).
bool QuickMode();

/// Generates (and times) a dataset, honoring quick mode.
std::unique_ptr<BioDataset> LoadDataset(const char* label, DatasetSpec spec);

/// Forces every lazy index build a first statement would otherwise pay
/// for: each table's value index and per-column hash indexes. Call it
/// after LoadDataset so no measured configuration is charged the
/// one-time cost.
void WarmIndexes(const Catalog& catalog);

/// Prints a section banner.
void Banner(const std::string& title);

/// Fixed-width table printer for the figure reproductions.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// The epsilon configurations the paper sweeps.
inline const double kEpsilons[] = {0.4, 0.6, 0.8};
/// The annotation size classes (bytes) of the L^m sets.
inline const size_t kSizeClasses[] = {50, 100, 500, 1000};

/// Classifies the queries generated for a workload annotation against its
/// ground-truth references: a query is a false positive when none of its
/// keywords is a reference surface; a reference is a false negative when
/// no query contains its (first) surface keyword.
struct QueryClassification {
  size_t queries = 0;
  size_t fp_queries = 0;
  size_t refs = 0;
  size_t fn_refs = 0;
};
QueryClassification ClassifyQueries(const WorkloadAnnotation& wa,
                                    const std::vector<KeywordQuery>& queries);

/// One measured configuration of a benchmark, for the machine-readable
/// sidecar file (the printed tables stay the human-facing output).
struct BenchRecord {
  std::string name;  ///< e.g. "fig13/D_small/L^50/eps=0.6"
  /// Free-form configuration (epsilon, dataset, ...).
  std::vector<std::pair<std::string, std::string>> params;
  uint64_t wall_us = 0;
  uint64_t rows_examined = 0;
};

/// Writes `BENCH_<bench>.json` — the records plus a snapshot of the
/// process-global obs metrics registry — into $NEBULA_BENCH_JSON_DIR (or
/// the working directory). Returns the path written, or "" on failure
/// (failure only warns: the sidecar must never fail a bench run).
std::string EmitBenchJson(const std::string& bench,
                          const std::vector<BenchRecord>& records);

}  // namespace bench
}  // namespace nebula

#endif  // NEBULA_BENCH_BENCH_UTIL_H_
