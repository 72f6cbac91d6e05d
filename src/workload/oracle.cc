#include "workload/oracle.h"

#include <cstdint>
#include <vector>

#include "annotation/verification_task.h"
#include "core/verification.h"

namespace nebula {

OracleOutcome OracleExpert::ProcessPending(
    VerificationManager* manager) const {
  OracleOutcome outcome;
  // Snapshot the vids first: answering tasks mutates the manager.
  std::vector<uint64_t> vids;
  for (const VerificationTask* task : manager->PendingTasks()) {
    vids.push_back(task->vid);
  }
  for (uint64_t vid : vids) {
    auto task_result = manager->GetTask(vid);
    if (!task_result.ok()) continue;
    const bool accept = WouldAccept(**task_result);
    if ((accept ? manager->Verify(vid) : manager->Reject(vid)).ok()) {
      if (accept) {
        ++outcome.accepted;
      } else {
        ++outcome.rejected;
      }
    }
  }
  return outcome;
}

}  // namespace nebula
