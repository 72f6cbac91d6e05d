#ifndef NEBULA_STORAGE_TABLE_H_
#define NEBULA_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lock_rank.h"
#include "common/status.h"
#include "common/sync.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "storage/value_index.h"

namespace nebula {

struct ValueHash {
  size_t operator()(const Value& v) const {
    return static_cast<size_t>(v.Hash());
  }
};

/// In-memory row-store table with per-column hash indexes and one
/// table-wide inverted value index over its string cells.
///
/// Rows are identified by their insertion ordinal (RowId); rows are never
/// physically deleted in this engine (the Nebula workloads are
/// insert/annotate-only), which keeps TupleIds stable.
///
/// A string column may be declared a text column (DeclareTextColumn):
/// the keyword layer then maps words onto it by token containment, and
/// LookupToken answers for it from the value index's posting lists.
///
/// Thread safety: all const accessors (GetRow/GetCell/Lookup/LookupToken/
/// Scan/DistinctCount) are safe to call concurrently — including the lazy
/// index builds, which are serialized internally. Mutations (Insert,
/// DeclareTextColumn) require exclusive access: no reader may run while a
/// writer does. The Nebula pipeline satisfies this by construction: the
/// catalog is fully loaded and its text columns declared before Stage 2
/// executes.
class Table {
 public:
  using RowId = uint64_t;

  Table(uint32_t id, std::string name, Schema schema);

  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return rows_.size(); }

  /// Inserts a row; validates arity/types and unique constraints.
  [[nodiscard]] Result<RowId> Insert(std::vector<Value> row);

  /// Returns the row at `row_id`; asserts in-range.
  const std::vector<Value>& GetRow(RowId row_id) const;

  /// Cell accessor.
  const Value& GetCell(RowId row_id, size_t column) const;

  /// Exact-match lookup through the column hash index (built lazily).
  std::vector<RowId> Lookup(size_t column, const Value& value) const;
  std::vector<RowId> Lookup(const std::string& column,
                            const Value& value) const;

  /// Declares a STRING column as free text. Records a flag only: the
  /// column's postings already live in the value index.
  [[nodiscard]] Status DeclareTextColumn(size_t column);
  bool IsTextColumn(size_t column) const;

  /// Rows whose declared text column contains `token` (lower-cased exact
  /// token match, as TokenizeForIndex splits the cell), ascending. Reads
  /// the value index's posting list without copying; an undeclared column
  /// or an absent token gives an empty list. When the value-index build
  /// failed, the column is scanned into `*scan`, which the result then
  /// refers to. The reference stays valid until the next mutation of the
  /// table or of `*scan`; the exclusive-writer contract already keeps
  /// table mutations away from readers.
  const std::vector<RowId>& LookupToken(size_t column,
                                        const std::string& token,
                                        std::vector<RowId>* scan) const;

  /// Full scan with a caller predicate; returns matching row ids.
  std::vector<RowId> Scan(
      const std::function<bool(const std::vector<Value>&)>& pred) const;

  /// Estimated count of distinct values in a column (exact, via the index).
  uint64_t DistinctCount(size_t column) const;

  /// The table-wide inverted value index, built lazily on first use (same
  /// double-checked publication discipline as the hash indexes) and
  /// maintained incrementally by Insert. Returns nullptr when the build
  /// failed (fault injection): the table then latches into permanent scan
  /// fallback — degraded, never corrupt.
  const ValueIndex* TryValueIndex() const EXCLUDES(index_build_mutex_);

  /// Observability snapshot of the value index (size gauges).
  struct ValueIndexInfo {
    bool built = false;
    bool failed = false;
    uint64_t tokens = 0;
    uint64_t postings = 0;
  };
  ValueIndexInfo value_index_info() const EXCLUDES(index_build_mutex_);

 private:
  using HashIndex = std::unordered_map<Value, std::vector<RowId>, ValueHash>;

  const HashIndex& GetOrBuildIndex(size_t column) const
      EXCLUDES(index_build_mutex_);

  /// Reads a column index after its publication flag has been observed
  /// with acquire ordering. The release-store in GetOrBuildIndex (and the
  /// exclusive-writer contract of Insert) makes the unlocked read safe;
  /// the static analysis cannot see the atomic handoff, hence the opt-out.
  const HashIndex& PublishedIndex(size_t column) const
      NO_THREAD_SAFETY_ANALYSIS {
    return indexes_[column];
  }

  /// Same opt-out for the value index: safe only after
  /// value_index_state_ has been observed as kBuilt with acquire ordering.
  const ValueIndex& PublishedValueIndex() const NO_THREAD_SAFETY_ANALYSIS {
    return value_index_;
  }

  uint32_t id_;
  std::string name_;
  Schema schema_;
  std::vector<std::vector<Value>> rows_;
  // Lazily built per-column hash indexes; mutable because building an index
  // is a logically-const read optimization. Concurrent readers may race to
  // trigger the same build, so all index mutation (lazy build and Insert's
  // incremental maintenance) runs under `index_build_mutex_`, and build
  // completion is published through the per-column atomic flag
  // (acquire/release) so the post-publication read path stays lock-free.
  mutable std::vector<HashIndex> indexes_ GUARDED_BY(index_build_mutex_);
  mutable std::vector<std::atomic<bool>> index_built_;
  mutable Mutex index_build_mutex_{kLockRankStorageIndexBuild};
  std::vector<bool> text_columns_;
  // The unified value index shares the hash indexes' locking story: all
  // mutation (lazy build, Insert's incremental maintenance) runs under
  // index_build_mutex_; the tri-state flag publishes the outcome with
  // acquire/release so post-publication reads are lock-free. kFailed is
  // sticky — one injected build fault degrades the table to scans for
  // its lifetime instead of retrying into a half-built index.
  enum ValueIndexState { kUnbuilt = 0, kBuilt = 1, kFailed = 2 };
  mutable ValueIndex value_index_ GUARDED_BY(index_build_mutex_);
  mutable std::atomic<int> value_index_state_{kUnbuilt};
};

}  // namespace nebula

#endif  // NEBULA_STORAGE_TABLE_H_
