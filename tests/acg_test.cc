#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "annotation/annotation_store.h"
#include "core/acg.h"
#include "storage/schema.h"

namespace nebula {
namespace {

const TupleId kT0{0, 0};
const TupleId kT1{0, 1};
const TupleId kT2{0, 2};
const TupleId kT3{0, 3};
const TupleId kT4{0, 4};
const TupleId kFar{0, 99};

/// Builds the store: a1 -> {t0, t1}, a2 -> {t1, t2}, a3 -> {t0, t1}.
AnnotationStore MakeStore() {
  AnnotationStore store;
  const AnnotationId a1 = store.AddAnnotation("a1");
  const AnnotationId a2 = store.AddAnnotation("a2");
  const AnnotationId a3 = store.AddAnnotation("a3");
  EXPECT_TRUE(store.Attach(a1, kT0).ok());
  EXPECT_TRUE(store.Attach(a1, kT1).ok());
  EXPECT_TRUE(store.Attach(a2, kT1).ok());
  EXPECT_TRUE(store.Attach(a2, kT2).ok());
  EXPECT_TRUE(store.Attach(a3, kT0).ok());
  EXPECT_TRUE(store.Attach(a3, kT1).ok());
  return store;
}

TEST(AcgTest, BuildFromStoreCreatesNodesAndEdges) {
  const AnnotationStore store = MakeStore();
  Acg acg;
  acg.BuildFromStore(store);
  EXPECT_EQ(acg.num_nodes(), 3u);
  EXPECT_EQ(acg.num_edges(), 2u);  // (t0,t1) and (t1,t2)
  EXPECT_TRUE(acg.HasNode(kT0));
  EXPECT_FALSE(acg.HasNode(kFar));
}

TEST(AcgTest, EdgeWeightIsJaccardOverAnnotationSets) {
  const AnnotationStore store = MakeStore();
  Acg acg;
  acg.BuildFromStore(store);
  // t0 has {a1,a3}; t1 has {a1,a2,a3}; common = 2; union = 3.
  EXPECT_NEAR(acg.EdgeWeight(kT0, kT1), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(acg.EdgeWeight(kT1, kT0), 2.0 / 3.0, 1e-9);  // symmetric
  // t1,t2: common = 1 (a2); union = 3.
  EXPECT_NEAR(acg.EdgeWeight(kT1, kT2), 1.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(acg.EdgeWeight(kT0, kT2), 0.0);  // no common annotation
  EXPECT_DOUBLE_EQ(acg.EdgeWeight(kT0, kFar), 0.0);
}

TEST(AcgTest, PredictedEdgesExcludedFromBuild) {
  AnnotationStore store;
  const AnnotationId a = store.AddAnnotation("a");
  ASSERT_TRUE(store.Attach(a, kT0).ok());
  ASSERT_TRUE(store.Attach(a, kT1, AttachmentType::kPredicted, 0.5).ok());
  Acg acg;
  acg.BuildFromStore(store);
  EXPECT_EQ(acg.num_edges(), 0u);
  EXPECT_TRUE(acg.HasNode(kT0));
  EXPECT_FALSE(acg.HasNode(kT1));
}

TEST(AcgTest, IncrementalAddMatchesBatchBuild) {
  const AnnotationStore store = MakeStore();
  Acg batch;
  batch.BuildFromStore(store);

  Acg incremental;
  for (AnnotationId a = 0; a < store.num_annotations(); ++a) {
    std::vector<TupleId> seen;
    for (const TupleId& t : store.AttachedTuples(a, true)) {
      incremental.AddAttachment(a, t, seen);
      seen.push_back(t);
    }
  }
  EXPECT_EQ(incremental.num_nodes(), batch.num_nodes());
  EXPECT_EQ(incremental.num_edges(), batch.num_edges());
  EXPECT_NEAR(incremental.EdgeWeight(kT0, kT1), batch.EdgeWeight(kT0, kT1),
              1e-9);
  EXPECT_EQ(incremental.Fingerprint(), batch.Fingerprint());

  // Replaying every attachment backwards gives the nodes other ids; the
  // fingerprint must not see that.
  Acg reversed;
  for (AnnotationId a = store.num_annotations(); a-- > 0;) {
    std::vector<TupleId> tuples = store.AttachedTuples(a, true);
    std::reverse(tuples.begin(), tuples.end());
    std::vector<TupleId> seen;
    for (const TupleId& t : tuples) {
      reversed.AddAttachment(a, t, seen);
      seen.push_back(t);
    }
  }
  EXPECT_EQ(reversed.Fingerprint(), batch.Fingerprint());
}

TEST(AcgTest, NeighborsSortedAndWeighted) {
  const AnnotationStore store = MakeStore();
  Acg acg;
  acg.BuildFromStore(store);
  const auto nbrs = acg.Neighbors(kT1);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0].first, kT0);
  EXPECT_EQ(nbrs[1].first, kT2);
  EXPECT_GT(nbrs[0].second, nbrs[1].second);
  EXPECT_TRUE(acg.Neighbors(kFar).empty());
}

TEST(AcgTest, KHopNeighborhood) {
  // Chain: t0 - t1 - t2 - t3 - t4.
  AnnotationStore store;
  for (int i = 0; i < 4; ++i) {
    const AnnotationId a = store.AddAnnotation("x");
    ASSERT_TRUE(store.Attach(a, {0, static_cast<uint64_t>(i)}).ok());
    ASSERT_TRUE(store.Attach(a, {0, static_cast<uint64_t>(i + 1)}).ok());
  }
  Acg acg;
  acg.BuildFromStore(store);

  EXPECT_EQ(acg.KHopNeighborhood({kT0}, 0).size(), 1u);  // focal only
  EXPECT_EQ(acg.KHopNeighborhood({kT0}, 1).size(), 2u);
  EXPECT_EQ(acg.KHopNeighborhood({kT0}, 2).size(), 3u);
  EXPECT_EQ(acg.KHopNeighborhood({kT0}, 10).size(), 5u);
  // Multi-focal: union of both BFS trees.
  EXPECT_EQ(acg.KHopNeighborhood({kT0, kT4}, 1).size(), 4u);
  // Absent focal contributes nothing.
  EXPECT_TRUE(acg.KHopNeighborhood({kFar}, 3).empty());
}

TEST(AcgTest, HopDistance) {
  AnnotationStore store;
  for (int i = 0; i < 3; ++i) {
    const AnnotationId a = store.AddAnnotation("x");
    ASSERT_TRUE(store.Attach(a, {0, static_cast<uint64_t>(i)}).ok());
    ASSERT_TRUE(store.Attach(a, {0, static_cast<uint64_t>(i + 1)}).ok());
  }
  Acg acg;
  acg.BuildFromStore(store);
  EXPECT_EQ(acg.HopDistance({kT0}, kT0), 0);
  EXPECT_EQ(acg.HopDistance({kT0}, kT1), 1);
  EXPECT_EQ(acg.HopDistance({kT0}, kT3), 3);
  EXPECT_EQ(acg.HopDistance({kT0, kT2}, kT3), 1);  // closest focal wins
  EXPECT_EQ(acg.HopDistance({kT0}, kFar), -1);     // not in graph
}

TEST(AcgTest, HopDistanceDisconnected) {
  AnnotationStore store;
  const AnnotationId a = store.AddAnnotation("x");
  ASSERT_TRUE(store.Attach(a, kT0).ok());
  ASSERT_TRUE(store.Attach(a, kT1).ok());
  const AnnotationId b = store.AddAnnotation("y");
  ASSERT_TRUE(store.Attach(b, kT3).ok());
  ASSERT_TRUE(store.Attach(b, kT4).ok());
  Acg acg;
  acg.BuildFromStore(store);
  EXPECT_EQ(acg.HopDistance({kT0}, kT3), -1);
}

// ----------------------------- stability --------------------------------

TEST(AcgStabilityTest, StartsUnstable) {
  Acg acg;
  EXPECT_FALSE(acg.stable());
}

TEST(AcgStabilityTest, BecomesStableWhenFewNewEdges) {
  AcgStabilityConfig config;
  config.batch_size = 3;
  config.mu = 0.5;
  Acg acg(config);
  // Annotations re-attaching to the same pair: the first creates the
  // edge, the rest do not. The batch of the first 3 annotations closes
  // when the 4th annotation's first attachment arrives.
  for (AnnotationId a = 0; a < 4; ++a) {
    acg.AddAttachment(a, kT0, {});
    acg.AddAttachment(a, kT1, {kT0});
  }
  // Closed batch: 3 annotations, 6 attachments, 1 new edge: 1/6 < 0.5.
  EXPECT_TRUE(acg.stable());
  // The 4th annotation opened the next batch.
  EXPECT_EQ(acg.batch_annotations(), 1u);
  EXPECT_EQ(acg.batch_attachments(), 2u);
}

TEST(AcgStabilityTest, StaysUnstableWhenManyNewEdges) {
  AcgStabilityConfig config;
  config.batch_size = 2;
  config.mu = 0.2;
  Acg acg(config);
  // Every attachment creates a brand-new edge.
  acg.AddAttachment(0, kT0, {});
  acg.AddAttachment(0, kT1, {kT0});
  acg.AddAttachment(1, kT2, {});
  acg.AddAttachment(1, kT3, {kT2});
  acg.AddAttachment(2, kT4, {});  // closes the {0,1} batch
  EXPECT_FALSE(acg.stable());
}

TEST(AcgStabilityTest, StabilityReevaluatedPerBatch) {
  AcgStabilityConfig config;
  config.batch_size = 2;
  config.mu = 0.4;
  Acg acg(config);
  // Batch 1: all new edges -> unstable once closed.
  acg.AddAttachment(0, kT0, {});
  acg.AddAttachment(0, kT1, {kT0});
  acg.AddAttachment(1, kT2, {kT0, kT1});
  EXPECT_FALSE(acg.stable());
  // Batch 2: repeats of existing edges only.
  acg.AddAttachment(2, kT0, {});  // closes batch 1 (3 new edges / 3)
  EXPECT_FALSE(acg.stable());
  acg.AddAttachment(2, kT1, {kT0});
  acg.AddAttachment(3, kT1, {});
  acg.AddAttachment(3, kT2, {kT1});
  acg.AddAttachment(4, kT0, {});  // closes batch 2 (0 new edges / 4)
  EXPECT_TRUE(acg.stable());
}

// ------------------------------ profile ---------------------------------

TEST(AcgProfileTest, RecordAndSelectK) {
  Acg acg;
  // Mirror the paper's Figure 7 narrative: 71% within 2 hops, 93% within
  // 3 hops.
  for (int i = 0; i < 40; ++i) acg.RecordProfilePoint(1);
  for (int i = 0; i < 31; ++i) acg.RecordProfilePoint(2);
  for (int i = 0; i < 22; ++i) acg.RecordProfilePoint(3);
  for (int i = 0; i < 7; ++i) acg.RecordProfilePoint(5);
  EXPECT_EQ(acg.SelectK(0.70), 2u);
  EXPECT_EQ(acg.SelectK(0.93), 3u);
  EXPECT_EQ(acg.SelectK(1.00), 5u);
}

TEST(AcgProfileTest, EmptyProfileUsesFallback) {
  Acg acg;
  EXPECT_EQ(acg.SelectK(0.9, 4), 4u);
}

TEST(AcgProfileTest, UnreachableGoesToOverflowBucket) {
  Acg acg;
  acg.RecordProfilePoint(-1);
  acg.RecordProfilePoint(1000);
  EXPECT_EQ(acg.profile().back(), 2u);
}

}  // namespace
}  // namespace nebula
