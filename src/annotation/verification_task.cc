#include "annotation/verification_task.h"

#include <string>
#include <string_view>

#include "common/status.h"

namespace nebula {

const char* TaskStateName(TaskState state) {
  switch (state) {
    case TaskState::kPending:
      return "PENDING";
    case TaskState::kAutoAccepted:
      return "AUTO_ACCEPTED";
    case TaskState::kAutoRejected:
      return "AUTO_REJECTED";
    case TaskState::kExpertAccepted:
      return "EXPERT_ACCEPTED";
    case TaskState::kExpertRejected:
      return "EXPERT_REJECTED";
  }
  return "?";
}

Result<TaskState> ParseTaskState(std::string_view name) {
  for (TaskState state :
       {TaskState::kPending, TaskState::kAutoAccepted,
        TaskState::kAutoRejected, TaskState::kExpertAccepted,
        TaskState::kExpertRejected}) {
    if (name == TaskStateName(state)) return state;
  }
  return Status::Corruption("unknown task state '" + std::string(name) + "'");
}

}  // namespace nebula
