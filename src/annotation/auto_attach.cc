#include "annotation/auto_attach.h"

#include "annotation/annotation_store.h"
#include "common/status.h"
#include "common/string_util.h"
#include "storage/query.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace nebula {

Status AutoAttachRegistry::AttachIfNew(AnnotationId annotation,
                                       const TupleId& tuple,
                                       size_t* attached) {
  if (store_->HasAttachment(annotation, tuple)) return Status::OK();
  NEBULA_RETURN_NOT_OK(store_->Attach(annotation, tuple,
                                      AttachmentType::kTrue));
  ++*attached;
  return Status::OK();
}

Result<size_t> AutoAttachRegistry::AddRule(AnnotationId annotation,
                                           SelectQuery predicate) {
  // Validate the annotation and the predicate's table up front so a bad
  // rule never enters the registry.
  NEBULA_RETURN_NOT_OK(store_->GetAnnotation(annotation).status());
  NEBULA_ASSIGN_OR_RETURN(const Table* table,
                          catalog_->GetTable(predicate.table));

  NEBULA_ASSIGN_OR_RETURN(std::vector<Table::RowId> rows,
                          executor_.Execute(predicate));
  size_t attached = 0;
  for (Table::RowId r : rows) {
    NEBULA_RETURN_NOT_OK(
        AttachIfNew(annotation, TupleId{table->id(), r}, &attached));
  }
  rules_.push_back({annotation, std::move(predicate)});
  return attached;
}

Result<size_t> AutoAttachRegistry::OnInsert(const TupleId& tuple) {
  const Table* table = catalog_->GetTableById(tuple.table_id);
  size_t attached = 0;
  const std::vector<Table::RowId> just_this{tuple.row};
  for (const auto& rule : rules_) {
    if (!EqualsIgnoreCase(rule.predicate.table, table->name())) continue;
    NEBULA_ASSIGN_OR_RETURN(std::vector<Table::RowId> rows,
                            executor_.Execute(rule.predicate, &just_this));
    if (!rows.empty()) {
      NEBULA_RETURN_NOT_OK(AttachIfNew(rule.annotation, tuple, &attached));
    }
  }
  return attached;
}

}  // namespace nebula
