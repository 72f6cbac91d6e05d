#include <gtest/gtest.h>

#include <limits>

#include "annotation/annotation_store.h"
#include "annotation/quality.h"
#include "common/status.h"
#include "storage/schema.h"

namespace nebula {
namespace {

const TupleId kT0{0, 0};
const TupleId kT1{0, 1};
const TupleId kT2{0, 2};
const TupleId kOther{1, 0};

class AnnotationStoreTest : public ::testing::Test {
 protected:
  AnnotationStore store_;
};

TEST_F(AnnotationStoreTest, AddAndGet) {
  const AnnotationId id = store_.AddAnnotation("hello", "bob");
  EXPECT_EQ(id, 0u);
  auto ann = store_.GetAnnotation(id);
  ASSERT_TRUE(ann.ok());
  EXPECT_EQ((*ann)->text, "hello");
  EXPECT_EQ((*ann)->author, "bob");
  EXPECT_EQ(store_.num_annotations(), 1u);
  EXPECT_EQ(store_.GetAnnotation(99).status().code(), StatusCode::kNotFound);
}

TEST_F(AnnotationStoreTest, AttachTrueEdge) {
  const AnnotationId a = store_.AddAnnotation("x");
  ASSERT_TRUE(store_.Attach(a, kT0).ok());
  EXPECT_TRUE(store_.HasAttachment(a, kT0));
  EXPECT_EQ(store_.num_attachments(), 1u);
  const Attachment* edge = store_.FindAttachment(a, kT0);
  ASSERT_NE(edge, nullptr);
  EXPECT_EQ(edge->type, AttachmentType::kTrue);
  EXPECT_DOUBLE_EQ(edge->weight, 1.0);
}

TEST_F(AnnotationStoreTest, AttachPredictedValidatesWeight) {
  const AnnotationId a = store_.AddAnnotation("x");
  EXPECT_EQ(store_.Attach(a, kT0, AttachmentType::kPredicted, 0.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store_.Attach(a, kT0, AttachmentType::kPredicted, 1.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(store_.Attach(a, kT0, AttachmentType::kPredicted, 0.5).ok());
  EXPECT_DOUBLE_EQ(store_.FindAttachment(a, kT0)->weight, 0.5);
}

TEST_F(AnnotationStoreTest, AttachPredictedRejectsNonFiniteWeight) {
  const AnnotationId a = store_.AddAnnotation("x");
  for (const double w : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(store_.Attach(a, kT0, AttachmentType::kPredicted, w).code(),
              StatusCode::kInvalidArgument)
        << w;
  }
  EXPECT_EQ(store_.num_attachments(), 0u);
}

TEST_F(AnnotationStoreTest, AttachToMissingAnnotationFails) {
  EXPECT_EQ(store_.Attach(3, kT0).code(), StatusCode::kNotFound);
}

TEST_F(AnnotationStoreTest, DuplicateAttachmentRejected) {
  const AnnotationId a = store_.AddAnnotation("x");
  ASSERT_TRUE(store_.Attach(a, kT0).ok());
  EXPECT_EQ(store_.Attach(a, kT0).code(), StatusCode::kAlreadyExists);
}

TEST_F(AnnotationStoreTest, DetachRemovesEdge) {
  const AnnotationId a = store_.AddAnnotation("x");
  ASSERT_TRUE(store_.Attach(a, kT0).ok());
  ASSERT_TRUE(store_.Detach(a, kT0).ok());
  EXPECT_FALSE(store_.HasAttachment(a, kT0));
  EXPECT_EQ(store_.num_attachments(), 0u);
  EXPECT_TRUE(store_.AnnotationsOf(kT0).empty());
  EXPECT_EQ(store_.Detach(a, kT0).code(), StatusCode::kNotFound);
}

TEST_F(AnnotationStoreTest, PromotePredictedToTrue) {
  const AnnotationId a = store_.AddAnnotation("x");
  ASSERT_TRUE(store_.Attach(a, kT0, AttachmentType::kPredicted, 0.7).ok());
  ASSERT_TRUE(store_.PromoteToTrue(a, kT0).ok());
  const Attachment* edge = store_.FindAttachment(a, kT0);
  EXPECT_EQ(edge->type, AttachmentType::kTrue);
  EXPECT_DOUBLE_EQ(edge->weight, 1.0);
  EXPECT_EQ(store_.PromoteToTrue(a, kT1).code(), StatusCode::kNotFound);
}

TEST_F(AnnotationStoreTest, AttachedTuplesFocalSemantics) {
  const AnnotationId a = store_.AddAnnotation("x");
  ASSERT_TRUE(store_.Attach(a, kT0).ok());
  ASSERT_TRUE(store_.Attach(a, kT1, AttachmentType::kPredicted, 0.6).ok());
  EXPECT_EQ(store_.AttachedTuples(a).size(), 2u);
  // Focal (Def 3.5) = True attachments only.
  const auto focal = store_.AttachedTuples(a, /*true_only=*/true);
  ASSERT_EQ(focal.size(), 1u);
  EXPECT_EQ(focal[0], kT0);
}

TEST_F(AnnotationStoreTest, AnnotationsOfTuple) {
  const AnnotationId a = store_.AddAnnotation("a");
  const AnnotationId b = store_.AddAnnotation("b");
  ASSERT_TRUE(store_.Attach(a, kT0).ok());
  ASSERT_TRUE(store_.Attach(b, kT0, AttachmentType::kPredicted, 0.4).ok());
  EXPECT_EQ(store_.AnnotationsOf(kT0).size(), 2u);
  EXPECT_EQ(store_.AnnotationsOf(kT0, /*true_only=*/true).size(), 1u);
  EXPECT_TRUE(store_.AnnotationsOf(kOther).empty());
}

TEST_F(AnnotationStoreTest, PropagateAttachesAnnotationsToAnswers) {
  const AnnotationId a = store_.AddAnnotation("a");
  const AnnotationId b = store_.AddAnnotation("b");
  ASSERT_TRUE(store_.Attach(a, kT0).ok());
  ASSERT_TRUE(store_.Attach(a, kT1).ok());
  ASSERT_TRUE(store_.Attach(b, kT1, AttachmentType::kPredicted, 0.5).ok());

  const auto result = store_.Propagate({kT0, kT1, kT2});
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].second.size(), 1u);  // kT0: {a}
  EXPECT_EQ(result[1].second.size(), 1u);  // kT1: {a} (predicted excluded)
  EXPECT_TRUE(result[2].second.empty());

  const auto with_predicted = store_.Propagate({kT1}, true);
  EXPECT_EQ(with_predicted[0].second.size(), 2u);
}

TEST_F(AnnotationStoreTest, AllAttachmentsDeterministicOrder) {
  const AnnotationId a = store_.AddAnnotation("a");
  const AnnotationId b = store_.AddAnnotation("b");
  ASSERT_TRUE(store_.Attach(b, kT1).ok());
  ASSERT_TRUE(store_.Attach(a, kT2).ok());
  ASSERT_TRUE(store_.Attach(a, kT0).ok());
  const auto all = store_.AllAttachments();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].annotation, a);
  EXPECT_EQ(all[0].tuple, kT0);
  EXPECT_EQ(all[1].tuple, kT2);
  EXPECT_EQ(all[2].annotation, b);
}

TEST_F(AnnotationStoreTest, AnnotatedTuples) {
  const AnnotationId a = store_.AddAnnotation("a");
  ASSERT_TRUE(store_.Attach(a, kT1).ok());
  ASSERT_TRUE(store_.Attach(a, kOther).ok());
  const auto tuples = store_.AnnotatedTuples();
  ASSERT_EQ(tuples.size(), 2u);
  EXPECT_EQ(tuples[0], kT1);
  EXPECT_EQ(tuples[1], kOther);
}

// ------------------------------ quality --------------------------------

TEST(EdgeSetTest, AddContains) {
  EdgeSet set;
  set.Add(1, kT0);
  set.Add(1, kT0);  // idempotent
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.Contains(1, kT0));
  EXPECT_FALSE(set.Contains(1, kT1));
  EXPECT_FALSE(set.Contains(2, kT0));
}

TEST(EdgeSetTest, TuplesOf) {
  EdgeSet set;
  set.Add(1, kT1);
  set.Add(1, kT0);
  set.Add(2, kT2);
  const auto tuples = set.TuplesOf(1);
  ASSERT_EQ(tuples.size(), 2u);
  EXPECT_EQ(tuples[0], kT0);
  EXPECT_TRUE(set.TuplesOf(9).empty());
}

TEST(EdgeSetTest, FromStoreRespectsTrueOnly) {
  AnnotationStore store;
  const AnnotationId a = store.AddAnnotation("a");
  ASSERT_TRUE(store.Attach(a, kT0).ok());
  ASSERT_TRUE(store.Attach(a, kT1, AttachmentType::kPredicted, 0.5).ok());
  EXPECT_EQ(EdgeSet::FromStore(store).size(), 2u);
  EXPECT_EQ(EdgeSet::FromStore(store, true).size(), 1u);
}

TEST(MeasureQualityTest, PerfectDatabase) {
  AnnotationStore store;
  const AnnotationId a = store.AddAnnotation("a");
  ASSERT_TRUE(store.Attach(a, kT0).ok());
  EdgeSet ideal;
  ideal.Add(a, kT0);
  const DatabaseQuality q = MeasureQuality(store, ideal);
  EXPECT_DOUBLE_EQ(q.false_negative_ratio, 0.0);
  EXPECT_DOUBLE_EQ(q.false_positive_ratio, 0.0);
}

TEST(MeasureQualityTest, UnderAnnotatedDatabase) {
  AnnotationStore store;
  const AnnotationId a = store.AddAnnotation("a");
  ASSERT_TRUE(store.Attach(a, kT0).ok());
  EdgeSet ideal;
  ideal.Add(a, kT0);
  ideal.Add(a, kT1);
  ideal.Add(a, kT2);
  ideal.Add(a, kOther);
  const DatabaseQuality q = MeasureQuality(store, ideal);
  EXPECT_DOUBLE_EQ(q.false_negative_ratio, 0.75);  // Eq. 1
  EXPECT_DOUBLE_EQ(q.false_positive_ratio, 0.0);   // no predicted edges
  EXPECT_EQ(q.missing_edges, 3u);
}

TEST(MeasureQualityTest, SpuriousEdges) {
  AnnotationStore store;
  const AnnotationId a = store.AddAnnotation("a");
  ASSERT_TRUE(store.Attach(a, kT0).ok());
  ASSERT_TRUE(store.Attach(a, kT1).ok());
  EdgeSet ideal;
  ideal.Add(a, kT0);
  const DatabaseQuality q = MeasureQuality(store, ideal);
  EXPECT_DOUBLE_EQ(q.false_positive_ratio, 0.5);  // Eq. 2
  EXPECT_EQ(q.spurious_edges, 1u);
  EXPECT_DOUBLE_EQ(q.false_negative_ratio, 0.0);
}

TEST(MeasureQualityTest, EmptyIdealAndEmptyStore) {
  AnnotationStore store;
  EdgeSet ideal;
  const DatabaseQuality q = MeasureQuality(store, ideal);
  EXPECT_DOUBLE_EQ(q.false_negative_ratio, 0.0);
  EXPECT_DOUBLE_EQ(q.false_positive_ratio, 0.0);
}

}  // namespace
}  // namespace nebula
