#ifndef NEBULA_STORAGE_VALUE_INDEX_H_
#define NEBULA_STORAGE_VALUE_INDEX_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/schema.h"
#include "storage/value.h"

namespace nebula {

/// Splits `text` into lower-cased alphanumeric tokens. Shared by the value
/// index, the containment scans, and the keyword-search layer so that all
/// sides agree on token boundaries.
std::vector<std::string> TokenizeForIndex(const std::string& text);

/// Table-wide inverted value index: token -> posting lists of
/// (column, row ids), over every string cell of the table (the Mragyati-
/// style symbol table the keyword layer resolves value keywords through).
///
/// Per-token postings are grouped by column so a kContainsToken predicate
/// on one column reads exactly one sorted row-id list; multi-token
/// conjunctions intersect the sorted lists instead of re-tokenizing cell
/// text per candidate row.
///
/// The index itself is not thread-safe; Table serializes construction and
/// incremental maintenance under its index_build_mutex_ and publishes
/// completion through an atomic state flag (see Table::TryValueIndex).
class ValueIndex {
 public:
  using RowId = uint64_t;

  /// Sorted, duplicate-free row ids of one (token, column) pair.
  struct ColumnPostings {
    uint32_t column = 0;
    std::vector<RowId> rows;
  };

  /// Indexes every string cell of `row`. Rows must be added in ascending
  /// row-id order (Table inserts are append-only), which keeps each
  /// posting list sorted by construction.
  void AddRow(const Schema& schema, const std::vector<Value>& row,
              RowId row_id);

  /// The sorted row ids whose cell in `column` contains `token`, or
  /// nullptr when no such row exists. `token` must already be lower-cased
  /// (callers mirror CompareValues: the needle is compared verbatim
  /// against indexed tokens, never re-tokenized).
  const std::vector<RowId>* Lookup(const std::string& token,
                                   uint32_t column) const;

  size_t num_tokens() const { return postings_.size(); }
  uint64_t num_postings() const { return num_postings_; }

  /// Canonical text form, one sorted line per (token, column) pair:
  /// "token|col:r1,r2,...". Lets tests compare an incrementally
  /// maintained index against a from-scratch rebuild exactly.
  std::vector<std::string> CanonicalDump() const;

 private:
  std::unordered_map<std::string, std::vector<ColumnPostings>> postings_;
  uint64_t num_postings_ = 0;
};

}  // namespace nebula

#endif  // NEBULA_STORAGE_VALUE_INDEX_H_
