#include "storage/table.h"

#include <cassert>

#include "common/fault.h"
#include "common/fault_points.h"
#include "common/status.h"
#include "common/string_util.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "storage/value_index.h"

namespace nebula {

Table::Table(uint32_t id, std::string name, Schema schema)
    : id_(id),
      name_(std::move(name)),
      schema_(std::move(schema)),
      indexes_(schema_.num_columns()),
      index_built_(schema_.num_columns()),
      text_columns_(schema_.num_columns(), false) {}

Result<Table::RowId> Table::Insert(std::vector<Value> row) {
  NEBULA_INJECT_FAULT(kFaultStorageTableInsert);
  NEBULA_RETURN_NOT_OK(schema_.ValidateRow(row));
  // Unique-constraint check through the (lazily built) hash index.
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    if (!schema_.column(c).unique) continue;
    if (!Lookup(c, row[c]).empty()) {
      return Status::AlreadyExists(
          StrFormat("duplicate value '%s' in unique column %s.%s",
                    row[c].ToString().c_str(), name_.c_str(),
                    schema_.column(c).name.c_str()));
    }
  }
  const RowId row_id = rows_.size();
  // Maintain any already-built hash indexes incrementally. Writers are
  // exclusive by contract, but the hash indexes are also touched by the
  // lazy build path, so their maintenance takes the build mutex (it is
  // uncontended here — never held across Lookup above, which locks it
  // internally on an unbuilt column).
  {
    MutexLock lock(index_build_mutex_);
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      if (index_built_[c].load(std::memory_order_relaxed)) {
        indexes_[c][row[c]].push_back(row_id);
      }
    }
    // The unified value index rides the same critical section: it is
    // only mutated here and in the lazy build, both under this mutex.
    if (value_index_state_.load(std::memory_order_relaxed) == kBuilt) {
      value_index_.AddRow(schema_, row, row_id);
    }
  }
  rows_.push_back(std::move(row));
  return row_id;
}

const std::vector<Value>& Table::GetRow(RowId row_id) const {
  assert(row_id < rows_.size());
  return rows_[row_id];
}

const Value& Table::GetCell(RowId row_id, size_t column) const {
  assert(row_id < rows_.size() && column < schema_.num_columns());
  return rows_[row_id][column];
}

const Table::HashIndex& Table::GetOrBuildIndex(size_t column) const {
  assert(column < schema_.num_columns());
  // Double-checked locking: concurrent readers (const searches on several
  // threads) may race to trigger the same lazy build, so the build is serialized and completion is
  // published through the acquire/release flag.
  if (!index_built_[column].load(std::memory_order_acquire)) {
    MutexLock lock(index_build_mutex_);
    if (!index_built_[column].load(std::memory_order_relaxed)) {
      HashIndex index;
      index.reserve(rows_.size());
      for (RowId r = 0; r < rows_.size(); ++r) {
        index[rows_[r][column]].push_back(r);
      }
      indexes_[column] = std::move(index);
      index_built_[column].store(true, std::memory_order_release);
    }
  }
  return PublishedIndex(column);
}

std::vector<Table::RowId> Table::Lookup(size_t column,
                                        const Value& value) const {
  const HashIndex& index = GetOrBuildIndex(column);
  auto it = index.find(value);
  return it == index.end() ? std::vector<RowId>{} : it->second;
}

std::vector<Table::RowId> Table::Lookup(const std::string& column,
                                        const Value& value) const {
  const int idx = schema_.ColumnIndex(column);
  if (idx < 0) return {};
  return Lookup(static_cast<size_t>(idx), value);
}

Status Table::DeclareTextColumn(size_t column) {
  if (column >= schema_.num_columns()) {
    return Status::OutOfRange("text column out of range");
  }
  if (schema_.column(column).type != DataType::kString) {
    return Status::InvalidArgument(
        StrFormat("text column must be STRING, %s.%s is %s", name_.c_str(),
                  schema_.column(column).name.c_str(),
                  DataTypeName(schema_.column(column).type)));
  }
  text_columns_[column] = true;
  return Status::OK();
}

bool Table::IsTextColumn(size_t column) const {
  return column < text_columns_.size() && text_columns_[column];
}

const std::vector<Table::RowId>& Table::LookupToken(
    size_t column, const std::string& token, std::vector<RowId>* scan) const {
  static const std::vector<RowId> kNone;
  if (!IsTextColumn(column)) return kNone;
  const std::string needle = ToLower(token);
  if (const ValueIndex* index = TryValueIndex()) {
    const std::vector<RowId>* rows =
        index->Lookup(needle, static_cast<uint32_t>(column));
    return rows == nullptr ? kNone : *rows;
  }
  // The value-index build failed (a sticky latch): scan the column, which
  // yields the posting list the index would have held.
  scan->clear();
  for (RowId r = 0; r < rows_.size(); ++r) {
    const Value& cell = rows_[r][column];
    if (!cell.is_string()) continue;
    for (const auto& tok : TokenizeForIndex(cell.AsString())) {
      if (tok == needle) {
        scan->push_back(r);
        break;
      }
    }
  }
  return *scan;
}

std::vector<Table::RowId> Table::Scan(
    const std::function<bool(const std::vector<Value>&)>& pred) const {
  std::vector<RowId> out;
  for (RowId r = 0; r < rows_.size(); ++r) {
    if (pred(rows_[r])) out.push_back(r);
  }
  return out;
}

uint64_t Table::DistinctCount(size_t column) const {
  return GetOrBuildIndex(column).size();
}

const ValueIndex* Table::TryValueIndex() const {
  int state = value_index_state_.load(std::memory_order_acquire);
  if (state == kUnbuilt) {
    // Double-checked lazy build, exactly like GetOrBuildIndex: parallel
    // Stage-2 workers may race to the first probe.
    MutexLock lock(index_build_mutex_);
    state = value_index_state_.load(std::memory_order_relaxed);
    if (state == kUnbuilt) {
      if (NEBULA_FAULT_SHOULD_FAIL(kFaultStorageValueIndexBuild)) {
        // Degrade, never corrupt: a failed build latches the table into
        // permanent scan fallback rather than publishing a partial index
        // or retrying into one.
        state = kFailed;
      } else {
        ValueIndex index;
        for (RowId r = 0; r < rows_.size(); ++r) {
          index.AddRow(schema_, rows_[r], r);
        }
        value_index_ = std::move(index);
        state = kBuilt;
      }
      value_index_state_.store(state, std::memory_order_release);
    }
  }
  return state == kBuilt ? &PublishedValueIndex() : nullptr;
}

Table::ValueIndexInfo Table::value_index_info() const {
  MutexLock lock(index_build_mutex_);
  const int state = value_index_state_.load(std::memory_order_relaxed);
  ValueIndexInfo info;
  info.built = state == kBuilt;
  info.failed = state == kFailed;
  if (info.built) {
    info.tokens = value_index_.num_tokens();
    info.postings = value_index_.num_postings();
  }
  return info;
}

}  // namespace nebula
