#include "core/verification.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "annotation/annotation_store.h"
#include "annotation/verification_task.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/identify.h"
#include "durability/journal.h"
#include "durability/manager.h"
#include "obs/metrics.h"
#include "storage/schema.h"

namespace nebula {

namespace {

/// Process-wide verification instruments, resolved once.
struct VerificationMetrics {
  obs::Counter* created_pending;
  obs::Counter* created_auto_accepted;
  obs::Counter* created_auto_rejected;
  obs::Counter* already_attached;
  obs::Counter* resolved_accepted;
  obs::Counter* resolved_rejected;
};

const VerificationMetrics& Metrics() {
  static const VerificationMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    VerificationMetrics out;
    const std::string created_help =
        "Verification tasks created by Submit, by initial state";
    out.created_pending = r.GetCounter("nebula_verification_tasks_total",
                                       {{"state", "pending"}}, created_help);
    out.created_auto_accepted = r.GetCounter(
        "nebula_verification_tasks_total", {{"state", "auto_accepted"}}, "");
    out.created_auto_rejected = r.GetCounter(
        "nebula_verification_tasks_total", {{"state", "auto_rejected"}}, "");
    out.already_attached =
        r.GetCounter("nebula_verification_already_attached_total", {},
                     "Candidates skipped because the attachment existed");
    const std::string resolved_help =
        "Pending tasks resolved by an expert, by decision";
    out.resolved_accepted =
        r.GetCounter("nebula_verification_resolved_total",
                     {{"decision", "accepted"}}, resolved_help);
    out.resolved_rejected = r.GetCounter("nebula_verification_resolved_total",
                                         {{"decision", "rejected"}}, "");
    return out;
  }();
  return m;
}

/// The task with this vid in a vid-ascending task list, or nullptr.
template <typename Tasks>
auto* FindByVid(Tasks& tasks, uint64_t vid) {
  const auto it = std::lower_bound(
      tasks.begin(), tasks.end(), vid,
      [](const VerificationTask& t, uint64_t v) { return t.vid < v; });
  return it != tasks.end() && it->vid == vid ? &*it : nullptr;
}

}  // namespace

void VerificationManager::ApplyAccept(VerificationTask* task) {
  // (1) Attach the annotation to the tuple as a True Attachment.
  const std::vector<TupleId> siblings =
      store_->AttachedTuples(task->annotation, /*true_only=*/true);
  // The edge may exist as Predicted; promote, else attach fresh.
  if (store_->HasAttachment(task->annotation, task->tuple)) {
    (void)store_->PromoteToTrue(task->annotation, task->tuple);
  } else {
    (void)store_->Attach(task->annotation, task->tuple,
                         AttachmentType::kTrue);
  }
  if (acg_ != nullptr) {
    // (3) Feed the hop-distance profile *before* the ACG gains the new
    // edges (paper §6.3: the profile records how far the discovered tuple
    // was from the focal at discovery time).
    acg_->RecordProfilePoint(acg_->HopDistance(siblings, task->tuple));
    // (2) Update the ACG with the new attachment.
    acg_->AddAttachment(task->annotation, task->tuple, siblings);
  }
}

SubmitOutcome VerificationManager::Submit(
    AnnotationId annotation, const std::vector<CandidateTuple>& candidates) {
  return ApplySubmit(PlanSubmit(annotation, candidates));
}

PlannedSubmit VerificationManager::PlanSubmit(
    AnnotationId annotation,
    const std::vector<CandidateTuple>& candidates) const {
  PlannedSubmit planned;
  // The fused loop attached accepted tuples as it went, so a later
  // duplicate candidate hit HasAttachment. Simulate that with the set of
  // tuples this plan accepts.
  std::unordered_set<TupleId, TupleIdHash> accepted;
  uint64_t next_vid = image_.next_vid;
  for (const auto& c : candidates) {
    if (store_->HasAttachment(annotation, c.tuple) ||
        accepted.count(c.tuple) > 0) {
      ++planned.outcome.already_attached;
      continue;
    }
    if (c.confidence < bounds_.lower) {
      // Rejected outright: the vid is used up, nothing else is kept.
      ++next_vid;
      ++planned.outcome.auto_rejected;
      continue;
    }
    VerificationTask task;
    task.vid = next_vid++;
    task.annotation = annotation;
    task.tuple = c.tuple;
    task.confidence = c.confidence;
    task.evidence = c.evidence;
    if (c.confidence > bounds_.upper) {
      task.state = TaskState::kAutoAccepted;
      ++planned.outcome.auto_accepted;
      accepted.insert(c.tuple);
    } else {
      task.state = TaskState::kPending;
      ++planned.outcome.pending;
    }
    planned.tasks.push_back(std::move(task));
  }
  planned.next_vid = next_vid;
  return planned;
}

SubmitOutcome VerificationManager::ApplySubmit(PlannedSubmit planned) {
  if constexpr (obs::kEnabled) {
    if (planned.outcome.already_attached > 0) {
      Metrics().already_attached->Increment(planned.outcome.already_attached);
    }
    if (planned.outcome.auto_rejected > 0) {
      Metrics().created_auto_rejected->Increment(
          planned.outcome.auto_rejected);
    }
  }
  for (VerificationTask& task : planned.tasks) {
    image_.tasks.push_back(std::move(task));
    if (image_.tasks.back().state == TaskState::kAutoAccepted) {
      ApplyAccept(&image_.tasks.back());
      if constexpr (obs::kEnabled) {
        Metrics().created_auto_accepted->Increment();
      }
    } else if constexpr (obs::kEnabled) {
      // kPending — PlanSubmit retains no other state.
      Metrics().created_pending->Increment();
    }
  }
  image_.next_vid = planned.next_vid;
  image_.auto_rejected += planned.outcome.auto_rejected;
  return planned.outcome;
}

Status VerificationManager::RestoreTasks(TaskImage image) {
  if (image_.next_vid != 0) {
    return Status::InvalidArgument(
        "RestoreTasks requires a manager that has assigned no vid");
  }
  const std::vector<VerificationTask>& tasks = image.tasks;
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (i > 0 && tasks[i].vid <= tasks[i - 1].vid) {
      return Status::Corruption("restored task vids do not ascend");
    }
    if (tasks[i].vid >= image.next_vid) {
      return Status::Corruption("restored task vid is not below next_vid");
    }
    if (tasks[i].state == TaskState::kAutoRejected) {
      return Status::Corruption("restored task is AUTO_REJECTED");
    }
  }
  // The loop bounds tasks.size() by next_vid, so this cannot wrap.
  if (image.next_vid - tasks.size() != image.auto_rejected) {
    return Status::Corruption(
        "restored tasks and rejections do not account for every vid");
  }
  image_ = std::move(image);
  return Status::OK();
}

Status VerificationManager::Verify(uint64_t vid) { return Decide(vid, true); }

Status VerificationManager::Reject(uint64_t vid) { return Decide(vid, false); }

Status VerificationManager::Decide(uint64_t vid, bool accept) {
  if (vid >= image_.next_vid) {
    return Status::NotFound(StrFormat("verification task %llu",
                                      static_cast<unsigned long long>(vid)));
  }
  // An assigned vid without a retained task was auto-rejected.
  VerificationTask* task = FindByVid(image_.tasks, vid);
  const TaskState state =
      task == nullptr ? TaskState::kAutoRejected : task->state;
  if (state != TaskState::kPending) {
    return Status::InvalidArgument(
        StrFormat("task %llu is %s, not PENDING",
                  static_cast<unsigned long long>(vid),
                  TaskStateName(state)));
  }
  durability::CommitUnit unit;
  if (journal_ != nullptr) {
    // An expert decision is one complete operation: journal the decision
    // and an accept's store effect before applying either.
    unit.flags = durability::kOpStart | durability::kOpEnd;
    durability::JournalRecord decision;
    decision.kind = durability::JournalRecord::Kind::kDecision;
    decision.id = vid;
    decision.is_true = accept;
    unit.records.push_back(std::move(decision));
    if (accept) {
      durability::JournalRecord effect;
      effect.kind = store_->HasAttachment(task->annotation, task->tuple)
                        ? durability::JournalRecord::Kind::kPromote
                        : durability::JournalRecord::Kind::kAttach;
      effect.annotation = task->annotation;
      effect.tuple = task->tuple;
      unit.records.push_back(std::move(effect));
    }
    NEBULA_RETURN_NOT_OK(journal_->Append(&unit));
  }
  if (accept) {
    task->state = TaskState::kExpertAccepted;
    ApplyAccept(task);
    if constexpr (obs::kEnabled) Metrics().resolved_accepted->Increment();
  } else {
    task->state = TaskState::kExpertRejected;
    if constexpr (obs::kEnabled) Metrics().resolved_rejected->Increment();
  }
  if (journal_ != nullptr) journal_->OnApplied(unit);
  return Status::OK();
}

VerificationManager::Stats VerificationManager::ComputeStats() const {
  Stats stats;
  stats.auto_rejected = image_.auto_rejected;
  for (const auto& task : image_.tasks) {
    switch (task.state) {
      case TaskState::kPending:
        ++stats.pending;
        break;
      case TaskState::kAutoAccepted:
        ++stats.auto_accepted;
        break;
      case TaskState::kAutoRejected:  // never retained
        break;
      case TaskState::kExpertAccepted:
        ++stats.expert_accepted;
        break;
      case TaskState::kExpertRejected:
        ++stats.expert_rejected;
        break;
    }
  }
  return stats;
}

std::vector<const VerificationTask*> VerificationManager::PendingTasks()
    const {
  std::vector<const VerificationTask*> out;
  for (const auto& t : image_.tasks) {
    if (t.state == TaskState::kPending) out.push_back(&t);
  }
  // (confidence desc, vid asc) — total order, same rationale as the
  // candidate ranking in TupleIdentifier::Identify.
  std::stable_sort(out.begin(), out.end(),
                   [](const VerificationTask* a, const VerificationTask* b) {
                     if (a->confidence != b->confidence) {
                       return a->confidence > b->confidence;
                     }
                     return a->vid < b->vid;
                   });
  return out;
}

Result<const VerificationTask*> VerificationManager::GetTask(
    uint64_t vid) const {
  const VerificationTask* task = FindByVid(image_.tasks, vid);
  if (task == nullptr) {
    return Status::NotFound(StrFormat("verification task %llu",
                                      static_cast<unsigned long long>(vid)));
  }
  return task;
}

}  // namespace nebula
