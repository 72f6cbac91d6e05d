#ifndef NEBULA_KEYWORD_MINI_DB_H_
#define NEBULA_KEYWORD_MINI_DB_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "storage/schema.h"
#include "storage/table.h"

namespace nebula {

/// A materialized restriction of the database to a subset of rows — the
/// "mini database" the focal-spreading search runs over (paper §6.3).
///
/// Rows keep their original TupleIds, so results over a MiniDb are directly
/// comparable with full-database search results. Each table's rows are a
/// sorted, duplicate-free vector indexed by table id; adding in TupleId
/// order, as BuildMiniDb does, only ever appends.
class MiniDb {
 public:
  MiniDb() = default;

  void Add(const TupleId& id) {
    if (id.table_id >= rows_by_table_.size()) {
      rows_by_table_.resize(size_t{id.table_id} + 1);
    }
    std::vector<Table::RowId>& rows = rows_by_table_[id.table_id];
    auto it = std::lower_bound(rows.begin(), rows.end(), id.row);
    if (it == rows.end() || *it != id.row) rows.insert(it, id.row);
  }

  bool Contains(const TupleId& id) const {
    const std::vector<Table::RowId>* rows = ForTable(id.table_id);
    return rows != nullptr &&
           std::binary_search(rows->begin(), rows->end(), id.row);
  }

  /// Allowed rows for a table, sorted ascending; nullptr means no rows of
  /// that table are in the mini database.
  const std::vector<Table::RowId>* ForTable(uint32_t table_id) const {
    if (table_id >= rows_by_table_.size() ||
        rows_by_table_[table_id].empty()) {
      return nullptr;
    }
    return &rows_by_table_[table_id];
  }

  size_t size() const {
    size_t total = 0;
    for (const auto& rows : rows_by_table_) total += rows.size();
    return total;
  }

  bool empty() const { return size() == 0; }

 private:
  std::vector<std::vector<Table::RowId>> rows_by_table_;  // by table id
};

}  // namespace nebula

#endif  // NEBULA_KEYWORD_MINI_DB_H_
