#ifndef NEBULA_WORKLOAD_ORACLE_H_
#define NEBULA_WORKLOAD_ORACLE_H_

#include <cstddef>

#include "annotation/quality.h"
#include "annotation/verification_task.h"
#include "core/verification.h"

namespace nebula {

/// Outcome of one oracle pass over the pending verification queue.
struct OracleOutcome {
  size_t accepted = 0;
  size_t rejected = 0;
};

/// An infallible domain expert answering verification tasks from ground
/// truth — the paper's own §8.2 evaluation device ("the expert-verified
/// factors can be automatically computed... under the assumption that
/// experts do not make errors").
class OracleExpert {
 public:
  explicit OracleExpert(const EdgeSet* ideal) : ideal_(ideal) {}

  /// Answers every pending task in the manager, each with the decision
  /// of the paper's VERIFY/REJECT ATTACHMENT <vid> command.
  OracleOutcome ProcessPending(VerificationManager* manager) const;

  /// The decision the expert would make for a single task.
  bool WouldAccept(const VerificationTask& task) const {
    return ideal_->Contains(task.annotation, task.tuple);
  }

 private:
  const EdgeSet* ideal_;
};

}  // namespace nebula

#endif  // NEBULA_WORKLOAD_ORACLE_H_
