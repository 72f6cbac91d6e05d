#include "storage/catalog.h"

#include <cassert>

#include "common/status.h"
#include "common/string_util.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace nebula {

Result<Table*> Catalog::CreateTable(const std::string& name, Schema schema) {
  const std::string key = ToLower(name);
  if (by_name_.count(key) > 0) {
    return Status::AlreadyExists("table " + name + " already exists");
  }
  const uint32_t id = static_cast<uint32_t>(tables_.size());
  tables_.push_back(std::make_unique<Table>(id, name, std::move(schema)));
  by_name_.emplace(key, id);
  return tables_.back().get();
}

Result<Table*> Catalog::GetTable(const std::string& name) {
  auto it = by_name_.find(ToLower(name));
  if (it == by_name_.end()) {
    return Status::NotFound("table " + name);
  }
  return tables_[it->second].get();
}

Result<const Table*> Catalog::GetTable(const std::string& name) const {
  auto it = by_name_.find(ToLower(name));
  if (it == by_name_.end()) {
    return Status::NotFound("table " + name);
  }
  return static_cast<const Table*>(tables_[it->second].get());
}

Table* Catalog::GetTableById(uint32_t id) {
  assert(id < tables_.size());
  return tables_[id].get();
}

const Table* Catalog::GetTableById(uint32_t id) const {
  assert(id < tables_.size());
  return tables_[id].get();
}

bool Catalog::HasTable(const std::string& name) const {
  return by_name_.count(ToLower(name)) > 0;
}

Status Catalog::AddForeignKey(const std::string& child_table,
                              const std::string& child_column,
                              const std::string& parent_table,
                              const std::string& parent_column) {
  NEBULA_ASSIGN_OR_RETURN(const Table* child, GetTable(child_table));
  NEBULA_ASSIGN_OR_RETURN(const Table* parent, GetTable(parent_table));
  if (child->schema().ColumnIndex(child_column) < 0) {
    return Status::NotFound("column " + child_table + "." + child_column);
  }
  if (parent->schema().ColumnIndex(parent_column) < 0) {
    return Status::NotFound("column " + parent_table + "." + parent_column);
  }
  foreign_keys_.push_back(
      {child->name(), child_column, parent->name(), parent_column});
  return Status::OK();
}

std::vector<const ForeignKey*> Catalog::ForeignKeysOf(
    const std::string& table) const {
  std::vector<const ForeignKey*> out;
  for (const auto& fk : foreign_keys_) {
    if (EqualsIgnoreCase(fk.child_table, table) ||
        EqualsIgnoreCase(fk.parent_table, table)) {
      out.push_back(&fk);
    }
  }
  return out;
}

uint64_t Catalog::TotalRows() const {
  uint64_t total = 0;
  for (const auto& t : tables_) total += t->num_rows();
  return total;
}

}  // namespace nebula
