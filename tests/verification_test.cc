#include <gtest/gtest.h>

#include <string>

#include "annotation/annotation_store.h"
#include "annotation/verification_task.h"
#include "common/status.h"
#include "core/acg.h"
#include "core/identify.h"
#include "core/verification.h"
#include "storage/schema.h"

namespace nebula {
namespace {

const TupleId kFocal{0, 0};
const TupleId kT1{0, 1};
const TupleId kT2{0, 2};
const TupleId kT3{0, 3};
const TupleId kT4{0, 4};

CandidateTuple Candidate(const TupleId& t, double conf,
                         std::vector<std::string> evidence = {"q"}) {
  CandidateTuple c;
  c.tuple = t;
  c.confidence = conf;
  c.evidence = std::move(evidence);
  return c;
}

class VerificationTest : public ::testing::Test {
 protected:
  VerificationTest() : manager_(&store_, &acg_, {0.3, 0.8}) {
    annotation_ = store_.AddAnnotation("text");
    EXPECT_TRUE(store_.Attach(annotation_, kFocal).ok());
    acg_.BuildFromStore(store_);
  }

  AnnotationStore store_;
  Acg acg_;
  VerificationManager manager_;
  AnnotationId annotation_ = 0;
};

TEST_F(VerificationTest, SubmitBucketsByBounds) {
  const auto outcome = manager_.Submit(
      annotation_, {Candidate(kT1, 0.9), Candidate(kT2, 0.5),
                    Candidate(kT3, 0.1)});
  EXPECT_EQ(outcome.auto_accepted, 1u);
  EXPECT_EQ(outcome.pending, 1u);
  EXPECT_EQ(outcome.auto_rejected, 1u);
  // The auto-rejected candidate uses up vid 2 and keeps no task.
  ASSERT_EQ(manager_.tasks().size(), 2u);
  EXPECT_EQ(manager_.tasks()[0].vid, 0u);
  EXPECT_EQ(manager_.tasks()[0].state, TaskState::kAutoAccepted);
  EXPECT_EQ(manager_.tasks()[1].vid, 1u);
  EXPECT_EQ(manager_.tasks()[1].state, TaskState::kPending);
  EXPECT_EQ(manager_.next_vid(), 3u);
  EXPECT_EQ(manager_.auto_rejected(), 1u);
}

TEST_F(VerificationTest, SecondRoundContinuesAfterRejectedVids) {
  manager_.Submit(annotation_, {Candidate(kT1, 0.9), Candidate(kT2, 0.5),
                                Candidate(kT3, 0.1)});
  const auto outcome = manager_.Submit(
      annotation_, {Candidate(kT4, 0.5), Candidate(kT3, 0.05)});
  EXPECT_EQ(outcome.pending, 1u);
  EXPECT_EQ(outcome.auto_rejected, 1u);
  ASSERT_EQ(manager_.tasks().size(), 3u);
  EXPECT_EQ(manager_.tasks()[2].vid, 3u);
  EXPECT_EQ(manager_.tasks()[2].tuple, kT4);
  EXPECT_EQ(manager_.next_vid(), 5u);
  EXPECT_EQ(manager_.auto_rejected(), 2u);
}

TEST_F(VerificationTest, AutoRejectedVidKeepsItsDecisionStatus) {
  manager_.Submit(annotation_, {Candidate(kT1, 0.9), Candidate(kT2, 0.5),
                                Candidate(kT3, 0.1)});
  // Vid 2 was auto-rejected: a decision on it is refused exactly as when
  // the task was stored.
  const Status verify = manager_.Verify(2);
  EXPECT_EQ(verify.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(verify.message().find("task 2 is AUTO_REJECTED, not PENDING"),
            std::string::npos)
      << verify.ToString();
  const Status reject = manager_.Reject(2);
  EXPECT_EQ(reject.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reject.message().find("task 2 is AUTO_REJECTED, not PENDING"),
            std::string::npos)
      << reject.ToString();
  // Past the counter: never assigned.
  EXPECT_EQ(manager_.Verify(3).code(), StatusCode::kNotFound);
  EXPECT_EQ(manager_.Reject(3).code(), StatusCode::kNotFound);
  // GetTask finds retained tasks only.
  EXPECT_EQ(manager_.GetTask(2).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(manager_.GetTask(1).ok());
  EXPECT_EQ((*manager_.GetTask(1))->tuple, kT2);
  EXPECT_EQ(manager_.GetTask(3).status().code(), StatusCode::kNotFound);
}

TEST_F(VerificationTest, AllRejectedRoundOnlyAdvancesTheCounter) {
  manager_.Submit(annotation_, {Candidate(kT1, 0.5)});
  ASSERT_EQ(manager_.tasks().size(), 1u);
  const auto outcome = manager_.Submit(
      annotation_, {Candidate(kT2, 0.1), Candidate(kT3, 0.2)});
  EXPECT_EQ(outcome.auto_rejected, 2u);
  ASSERT_EQ(manager_.tasks().size(), 1u);
  EXPECT_EQ(manager_.tasks()[0].vid, 0u);
  EXPECT_EQ(manager_.tasks()[0].state, TaskState::kPending);
  EXPECT_EQ(manager_.next_vid(), 3u);
  EXPECT_EQ(manager_.auto_rejected(), 2u);
  EXPECT_EQ(manager_.ComputeStats().auto_rejected, 2u);
  EXPECT_EQ(manager_.ComputeStats().total(), 3u);
}

TEST_F(VerificationTest, BoundaryConfidencesGoToPending) {
  // Exactly lower or exactly upper: requires expert (Fig. 8 semantics).
  const auto outcome = manager_.Submit(
      annotation_, {Candidate(kT1, 0.3), Candidate(kT2, 0.8)});
  EXPECT_EQ(outcome.pending, 2u);
}

TEST_F(VerificationTest, AutoAcceptAttachesAndUpdatesAcg) {
  ASSERT_EQ(acg_.num_edges(), 0u);
  manager_.Submit(annotation_, {Candidate(kT1, 0.95)});
  // (1) True attachment created.
  EXPECT_TRUE(store_.HasAttachment(annotation_, kT1));
  EXPECT_EQ(store_.FindAttachment(annotation_, kT1)->type,
            AttachmentType::kTrue);
  // (2) ACG gained the focal-candidate edge.
  EXPECT_GT(acg_.EdgeWeight(kFocal, kT1), 0.0);
  // (3) Profile recorded the discovery distance (unreachable pre-edge ->
  // overflow bucket).
  uint64_t total = 0;
  for (uint64_t v : acg_.profile()) total += v;
  EXPECT_EQ(total, 1u);
}

TEST_F(VerificationTest, AlreadyAttachedCandidatesSkipped) {
  const auto outcome = manager_.Submit(
      annotation_, {Candidate(kFocal, 0.9), Candidate(kT1, 0.9)});
  EXPECT_EQ(outcome.already_attached, 1u);
  EXPECT_EQ(outcome.auto_accepted, 1u);
  EXPECT_EQ(manager_.tasks().size(), 1u);
}

TEST_F(VerificationTest, VerifyAcceptsPendingTask) {
  manager_.Submit(annotation_, {Candidate(kT1, 0.5)});
  ASSERT_EQ(manager_.PendingTasks().size(), 1u);
  const uint64_t vid = manager_.PendingTasks()[0]->vid;
  ASSERT_TRUE(manager_.Verify(vid).ok());
  EXPECT_EQ((*manager_.GetTask(vid))->state, TaskState::kExpertAccepted);
  EXPECT_TRUE(store_.HasAttachment(annotation_, kT1));
  EXPECT_TRUE(manager_.PendingTasks().empty());
}

TEST_F(VerificationTest, RejectDiscardsPendingTask) {
  manager_.Submit(annotation_, {Candidate(kT1, 0.5)});
  const uint64_t vid = manager_.PendingTasks()[0]->vid;
  ASSERT_TRUE(manager_.Reject(vid).ok());
  EXPECT_EQ((*manager_.GetTask(vid))->state, TaskState::kExpertRejected);
  EXPECT_FALSE(store_.HasAttachment(annotation_, kT1));
}

TEST_F(VerificationTest, VerifyRejectOnlyValidForPending) {
  manager_.Submit(annotation_, {Candidate(kT1, 0.95)});  // auto-accepted
  EXPECT_EQ(manager_.Verify(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(manager_.Reject(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(manager_.Verify(42).code(), StatusCode::kNotFound);
}

TEST_F(VerificationTest, PendingTasksSortedByConfidence) {
  manager_.Submit(annotation_, {Candidate(kT1, 0.4), Candidate(kT2, 0.7),
                                Candidate(kT3, 0.55)});
  const auto pending = manager_.PendingTasks();
  ASSERT_EQ(pending.size(), 3u);
  EXPECT_DOUBLE_EQ(pending[0]->confidence, 0.7);
  EXPECT_DOUBLE_EQ(pending[1]->confidence, 0.55);
  EXPECT_DOUBLE_EQ(pending[2]->confidence, 0.4);
}

TEST_F(VerificationTest, TasksCarryEvidence) {
  manager_.Submit(annotation_,
                  {Candidate(kT1, 0.5, {"gene JW0001", "gene aabX"})});
  ASSERT_EQ(manager_.tasks().size(), 1u);
  EXPECT_EQ(manager_.tasks()[0].evidence.size(), 2u);
  EXPECT_EQ(manager_.tasks()[0].evidence[0], "gene JW0001");
}

TEST_F(VerificationTest, PromotesExistingPredictedEdge) {
  ASSERT_TRUE(
      store_.Attach(annotation_, kT1, AttachmentType::kPredicted, 0.6).ok());
  // Submit skips it (already attached)... so verify via direct task flow:
  // create a fresh annotation without the predicted edge for the manager,
  // then check PromoteToTrue path through ApplyAccept using Submit on a
  // different tuple is covered elsewhere. Here, assert the skip.
  const auto outcome = manager_.Submit(annotation_, {Candidate(kT1, 0.9)});
  EXPECT_EQ(outcome.already_attached, 1u);
}

TEST_F(VerificationTest, BoundsUpdatable) {
  manager_.set_bounds({0.0, 0.0});
  const auto outcome = manager_.Submit(annotation_, {Candidate(kT1, 0.5)});
  EXPECT_EQ(outcome.auto_accepted, 1u);  // everything above upper=0
}

TEST_F(VerificationTest, ComputeStatsTracksLifecycle) {
  manager_.Submit(annotation_, {Candidate(kT1, 0.9), Candidate(kT2, 0.5),
                                Candidate(kT3, 0.1)});
  auto stats = manager_.ComputeStats();
  EXPECT_EQ(stats.auto_accepted, 1u);
  EXPECT_EQ(stats.pending, 1u);
  EXPECT_EQ(stats.auto_rejected, 1u);
  EXPECT_EQ(stats.total(), 3u);
  EXPECT_DOUBLE_EQ(stats.expert_hit_ratio(), 0.0);

  ASSERT_TRUE(manager_.Verify(manager_.PendingTasks()[0]->vid).ok());
  stats = manager_.ComputeStats();
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.expert_accepted, 1u);
  EXPECT_DOUBLE_EQ(stats.expert_hit_ratio(), 1.0);
}

TEST(TaskStateTest, Names) {
  EXPECT_STREQ(TaskStateName(TaskState::kPending), "PENDING");
  EXPECT_STREQ(TaskStateName(TaskState::kAutoAccepted), "AUTO_ACCEPTED");
  EXPECT_STREQ(TaskStateName(TaskState::kExpertRejected), "EXPERT_REJECTED");
}

}  // namespace
}  // namespace nebula
