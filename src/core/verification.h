#ifndef NEBULA_CORE_VERIFICATION_H_
#define NEBULA_CORE_VERIFICATION_H_

#include <cstdint>
#include <vector>

#include "annotation/annotation_store.h"
#include "annotation/verification_task.h"
#include "common/status.h"
#include "core/acg.h"
#include "core/identify.h"

namespace nebula {

namespace durability {
class Manager;
}  // namespace durability

/// Verification decision bounds (paper Figure 8): confidence below
/// `lower` auto-rejects, above `upper` auto-accepts, in between the task
/// is pending expert verification.
struct VerificationBounds {
  double lower = 0.32;
  double upper = 0.86;
};

/// Counts of one Submit() round, bucketed per Figure 8.
struct SubmitOutcome {
  size_t auto_accepted = 0;
  size_t auto_rejected = 0;
  size_t pending = 0;
  /// Candidates skipped because the attachment already existed (e.g. the
  /// search rediscovered a focal tuple).
  size_t already_attached = 0;
};

/// A computed-but-not-applied Submit round: the pending and auto-accepted
/// tasks it would create (vids assigned, bounds applied, duplicate
/// candidates skipped), the outcome counts, and the vid counter after the
/// round. An auto-rejected candidate uses up a vid and is counted in
/// `outcome.auto_rejected`; it builds no task. The durable engine
/// journals the plan before applying it, so memory and disk can never
/// disagree on a committed round.
struct PlannedSubmit {
  SubmitOutcome outcome;
  std::vector<VerificationTask> tasks;
  uint64_t next_vid = 0;
};

/// Stage 3 of the Nebula pipeline: turns candidate tuples into
/// verification tasks, applies the bounds, and executes the accept-side
/// effects — attach the annotation (True edge), update the ACG, and feed
/// the hop-distance profile.
///
/// It keeps only the tasks someone can still act on or audit — pending,
/// auto-accepted and expert-decided — in ascending vid order. A candidate
/// below the lower bound is rejected outright: no expert will see it, so
/// it only uses up a vid and bumps the rejection count.
class VerificationManager {
 public:
  VerificationManager(AnnotationStore* store, Acg* acg,
                      VerificationBounds bounds = {})
      : store_(store), acg_(acg), bounds_(bounds) {}

  /// Submits the candidates of one annotation's discovery round.
  /// Equivalent to ApplySubmit(PlanSubmit(...)).
  SubmitOutcome Submit(AnnotationId annotation,
                       const std::vector<CandidateTuple>& candidates);

  /// Pure planning half of Submit: computes the round's tasks without
  /// mutating anything. Batch-internal accepts are simulated so a later
  /// duplicate candidate tuple is skipped exactly as the fused loop
  /// would.
  PlannedSubmit PlanSubmit(
      AnnotationId annotation,
      const std::vector<CandidateTuple>& candidates) const;
  /// Applies a plan produced by PlanSubmit against unchanged state.
  SubmitOutcome ApplySubmit(PlannedSubmit planned);

  /// Recovery: adopts the image restored from a snapshot / WAL replay —
  /// the retained tasks and the two counters. This manager must not have
  /// used a vid yet. Corruption unless the vids ascend strictly and stay
  /// below `next_vid`, no task is AUTO_REJECTED, and the retained tasks
  /// plus `auto_rejected` account for every vid. Store edges are NOT
  /// touched (they are recovered separately).
  [[nodiscard]] Status RestoreTasks(TaskImage image);

  /// When set, expert decisions (Verify/Reject) journal a commit unit
  /// through the durability manager before mutating any state.
  void set_journal(durability::Manager* journal) { journal_ = journal; }

  /// Expert accepts the pending task (the VERIFY ATTACHMENT command).
  /// NotFound for a vid at or above next_vid(); InvalidArgument for a task
  /// that is not PENDING, an auto-rejected vid included.
  [[nodiscard]] Status Verify(uint64_t vid);
  /// Expert rejects the pending task (the REJECT ATTACHMENT command), with
  /// the same statuses as Verify.
  [[nodiscard]] Status Reject(uint64_t vid);

  /// Aggregate counts per task state — the admin dashboard numbers.
  struct Stats {
    size_t pending = 0;
    size_t auto_accepted = 0;
    size_t auto_rejected = 0;
    size_t expert_accepted = 0;
    size_t expert_rejected = 0;
    size_t total() const {
      return pending + auto_accepted + auto_rejected + expert_accepted +
             expert_rejected;
    }
    /// The M_H-style conversion ratio of the expert decisions so far.
    double expert_hit_ratio() const {
      const size_t decided = expert_accepted + expert_rejected;
      return decided == 0 ? 0.0
                          : static_cast<double>(expert_accepted) /
                                static_cast<double>(decided);
    }
  };
  Stats ComputeStats() const;

  /// Pending tasks, ordered by descending confidence (what the system
  /// table shows to DB admins).
  std::vector<const VerificationTask*> PendingTasks() const;
  /// Retained tasks, ascending vid (for assessment). Auto-rejected
  /// candidates are only counted: see next_vid() and auto_rejected().
  const std::vector<VerificationTask>& tasks() const { return image_.tasks; }
  /// The retained task with this vid; NotFound for an auto-rejected vid
  /// and for one never assigned.
  [[nodiscard]] Result<const VerificationTask*> GetTask(uint64_t vid) const;
  /// The vid the next task will get: every vid below it was assigned.
  uint64_t next_vid() const { return image_.next_vid; }
  /// Candidates rejected outright so far (they hold no task).
  uint64_t auto_rejected() const { return image_.auto_rejected; }
  /// All of the above as one image: what a durability snapshot writes.
  const TaskImage& image() const { return image_; }

  const VerificationBounds& bounds() const { return bounds_; }
  void set_bounds(VerificationBounds bounds) { bounds_ = bounds; }

 private:
  /// The accept side-effects shared by auto-accept and expert accept.
  void ApplyAccept(VerificationTask* task);
  /// Verify (accept) or Reject: journals the decision and its store
  /// effect when a journal is set, then applies them.
  [[nodiscard]] Status Decide(uint64_t vid, bool accept);

  AnnotationStore* store_;
  Acg* acg_;
  VerificationBounds bounds_;
  TaskImage image_;
  durability::Manager* journal_ = nullptr;
};

}  // namespace nebula

#endif  // NEBULA_CORE_VERIFICATION_H_
