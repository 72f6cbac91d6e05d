#include "annotation/annotation_store.h"

#include <algorithm>

#include "common/status.h"
#include "common/string_util.h"
#include "storage/schema.h"

namespace nebula {

AnnotationId AnnotationStore::AddAnnotation(std::string text,
                                            std::string author) {
  const AnnotationId id = annotations_.size();
  annotations_.push_back({id, std::move(text), std::move(author)});
  edges_by_annotation_.emplace_back();
  return id;
}

Result<const Annotation*> AnnotationStore::GetAnnotation(
    AnnotationId id) const {
  if (id >= annotations_.size()) {
    return Status::NotFound(StrFormat("annotation %llu",
                                      static_cast<unsigned long long>(id)));
  }
  return &annotations_[id];
}

Status AnnotationStore::Attach(AnnotationId annotation, const TupleId& tuple,
                               AttachmentType type, double weight) {
  if (annotation >= annotations_.size()) {
    return Status::NotFound("annotation does not exist");
  }
  if (type == AttachmentType::kTrue) {
    weight = 1.0;
  } else if (!(weight > 0.0 && weight < 1.0)) {  // NaN fails both tests
    return Status::InvalidArgument(
        StrFormat("predicted attachment weight %.4f outside (0,1)", weight));
  }
  if (HasAttachment(annotation, tuple)) {
    return Status::AlreadyExists("attachment already exists");
  }
  edges_by_annotation_[annotation].push_back(
      {annotation, tuple, type, weight});
  annotations_by_tuple_[tuple].push_back(annotation);
  ++num_edges_;
  return Status::OK();
}

Status AnnotationStore::Detach(AnnotationId annotation, const TupleId& tuple) {
  if (annotation >= annotations_.size()) {
    return Status::NotFound("annotation does not exist");
  }
  auto& edges = edges_by_annotation_[annotation];
  auto it = std::find_if(edges.begin(), edges.end(), [&](const Attachment& a) {
    return a.tuple == tuple;
  });
  if (it == edges.end()) {
    return Status::NotFound("attachment does not exist");
  }
  edges.erase(it);
  auto tup_it = annotations_by_tuple_.find(tuple);
  if (tup_it != annotations_by_tuple_.end()) {
    auto& list = tup_it->second;
    list.erase(std::find(list.begin(), list.end(), annotation));
    if (list.empty()) annotations_by_tuple_.erase(tup_it);
  }
  --num_edges_;
  return Status::OK();
}

Status AnnotationStore::PromoteToTrue(AnnotationId annotation,
                                      const TupleId& tuple) {
  if (annotation >= annotations_.size()) {
    return Status::NotFound("annotation does not exist");
  }
  for (auto& edge : edges_by_annotation_[annotation]) {
    if (edge.tuple == tuple) {
      edge.type = AttachmentType::kTrue;
      edge.weight = 1.0;
      return Status::OK();
    }
  }
  return Status::NotFound("attachment does not exist");
}

bool AnnotationStore::HasAttachment(AnnotationId annotation,
                                    const TupleId& tuple) const {
  return FindAttachment(annotation, tuple) != nullptr;
}

const Attachment* AnnotationStore::FindAttachment(AnnotationId annotation,
                                                  const TupleId& tuple) const {
  if (annotation >= annotations_.size()) return nullptr;
  for (const auto& edge : edges_by_annotation_[annotation]) {
    if (edge.tuple == tuple) return &edge;
  }
  return nullptr;
}

std::vector<TupleId> AnnotationStore::AttachedTuples(AnnotationId annotation,
                                                     bool true_only) const {
  std::vector<TupleId> out;
  if (annotation >= annotations_.size()) return out;
  for (const auto& edge : edges_by_annotation_[annotation]) {
    if (true_only && edge.type != AttachmentType::kTrue) continue;
    out.push_back(edge.tuple);
  }
  return out;
}

std::vector<AnnotationId> AnnotationStore::AnnotationsOf(
    const TupleId& tuple, bool true_only) const {
  std::vector<AnnotationId> out;
  auto it = annotations_by_tuple_.find(tuple);
  if (it == annotations_by_tuple_.end()) return out;
  for (AnnotationId a : it->second) {
    if (true_only) {
      const Attachment* edge = FindAttachment(a, tuple);
      if (edge == nullptr || edge->type != AttachmentType::kTrue) continue;
    }
    out.push_back(a);
  }
  return out;
}

std::vector<std::pair<TupleId, std::vector<AnnotationId>>>
AnnotationStore::Propagate(const std::vector<TupleId>& answer_tuples,
                           bool include_predicted) const {
  std::vector<std::pair<TupleId, std::vector<AnnotationId>>> out;
  out.reserve(answer_tuples.size());
  for (const auto& t : answer_tuples) {
    out.emplace_back(t, AnnotationsOf(t, /*true_only=*/!include_predicted));
  }
  return out;
}

std::vector<Attachment> AnnotationStore::AllAttachments() const {
  std::vector<Attachment> out;
  out.reserve(num_edges_);
  for (const auto& edges : edges_by_annotation_) {
    for (const auto& e : edges) out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const Attachment& a, const Attachment& b) {
              if (a.annotation != b.annotation) {
                return a.annotation < b.annotation;
              }
              return a.tuple < b.tuple;
            });
  return out;
}

std::vector<TupleId> AnnotationStore::AnnotatedTuples() const {
  std::vector<TupleId> out;
  out.reserve(annotations_by_tuple_.size());
  // nebula-lint: order-insensitive — keys are sorted below
  for (const auto& [tuple, _] : annotations_by_tuple_) out.push_back(tuple);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace nebula
