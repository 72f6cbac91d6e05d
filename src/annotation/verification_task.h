#ifndef NEBULA_ANNOTATION_VERIFICATION_TASK_H_
#define NEBULA_ANNOTATION_VERIFICATION_TASK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "annotation/annotation_store.h"
#include "common/status.h"
#include "storage/schema.h"

namespace nebula {

/// The lifecycle states of a verification task.
enum class TaskState {
  kPending,
  kAutoAccepted,
  kAutoRejected,
  kExpertAccepted,
  kExpertRejected,
};

const char* TaskStateName(TaskState state);
/// Inverse of TaskStateName; Corruption for any other spelling (the
/// journal and the snapshot store states by name).
[[nodiscard]] Result<TaskState> ParseTaskState(std::string_view name);

/// A verification task v = (vid, a, t, confidence, evidence) of Def. 7.1.
struct VerificationTask {
  uint64_t vid = 0;
  AnnotationId annotation = 0;
  TupleId tuple;
  double confidence = 0.0;
  std::vector<std::string> evidence;
  TaskState state = TaskState::kPending;
};

/// All of Stage 3's state: the retained tasks (pending, auto-accepted and
/// expert-decided, ascending vid; an auto-rejected candidate keeps none)
/// and the two counters that stand in for the rejected ones. The
/// verification manager holds one, a snapshot writes it, and recovery
/// rebuilds it.
struct TaskImage {
  std::vector<VerificationTask> tasks;
  /// The vid the next task will get: every vid below it was assigned.
  uint64_t next_vid = 0;
  /// Candidates rejected outright (they hold no task).
  uint64_t auto_rejected = 0;
};

}  // namespace nebula

#endif  // NEBULA_ANNOTATION_VERIFICATION_TASK_H_
