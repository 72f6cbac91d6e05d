#ifndef NEBULA_STORAGE_CATALOG_H_
#define NEBULA_STORAGE_CATALOG_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace nebula {

/// A declared FK-PK relationship between two tables. The SQL front end's
/// joins (QueryExecutor::ExecuteJoin) follow these edges.
struct ForeignKey {
  std::string child_table;
  std::string child_column;
  std::string parent_table;
  std::string parent_column;
};

/// The database catalog: owns all tables and the FK-PK relationship graph.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates a table; fails with AlreadyExists when the name is taken.
  [[nodiscard]] Result<Table*> CreateTable(const std::string& name, Schema schema);

  /// Name lookup (case-insensitive).
  [[nodiscard]] Result<Table*> GetTable(const std::string& name);
  [[nodiscard]] Result<const Table*> GetTable(const std::string& name) const;
  /// Id lookup; asserts the id is valid.
  Table* GetTableById(uint32_t id);
  const Table* GetTableById(uint32_t id) const;
  bool HasTable(const std::string& name) const;

  size_t num_tables() const { return tables_.size(); }
  const std::vector<std::unique_ptr<Table>>& tables() const { return tables_; }

  /// Declares a FK edge; validates that both endpoints exist.
  [[nodiscard]] Status AddForeignKey(const std::string& child_table,
                       const std::string& child_column,
                       const std::string& parent_table,
                       const std::string& parent_column);

  const std::vector<ForeignKey>& foreign_keys() const { return foreign_keys_; }

  /// FK edges incident to `table` (either side).
  std::vector<const ForeignKey*> ForeignKeysOf(const std::string& table) const;

  /// Total number of rows across all tables.
  uint64_t TotalRows() const;

 private:
  std::vector<std::unique_ptr<Table>> tables_;
  std::unordered_map<std::string, uint32_t> by_name_;  // lower-case
  std::vector<ForeignKey> foreign_keys_;
};

}  // namespace nebula

#endif  // NEBULA_STORAGE_CATALOG_H_
