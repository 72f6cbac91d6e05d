#include <gtest/gtest.h>

#include <unordered_set>

#include "annotation/annotation_store.h"
#include "annotation/quality.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/acg.h"
#include "core/identify.h"
#include "core/verification.h"
#include "meta/nebula_meta.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "text/pattern.h"
#include "workload/generator.h"
#include "workload/oracle.h"
#include "workload/spec.h"
#include "workload/vocab.h"

namespace nebula {
namespace {

/// One Tiny dataset shared by all tests in this file (generation is the
/// expensive part).
class WorkloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto result = GenerateBioDataset(DatasetSpec::Tiny());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    dataset_ = result->release();
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static BioDataset* dataset_;
};

BioDataset* WorkloadTest::dataset_ = nullptr;

TEST_F(WorkloadTest, TableSizesMatchSpec) {
  const DatasetSpec spec = DatasetSpec::Tiny();
  EXPECT_EQ(dataset_->catalog.GetTableById(dataset_->gene_table)->num_rows(),
            spec.num_genes);
  EXPECT_EQ(
      dataset_->catalog.GetTableById(dataset_->protein_table)->num_rows(),
      spec.num_proteins);
  EXPECT_EQ(
      dataset_->catalog.GetTableById(dataset_->publication_table)->num_rows(),
      spec.num_publications);
  EXPECT_EQ(dataset_->store.num_annotations(), spec.num_publications);
}

TEST_F(WorkloadTest, GeneValuesFollowDeclaredPatterns) {
  const Table* gene = dataset_->catalog.GetTableById(dataset_->gene_table);
  auto gid_pattern = ValuePattern::Compile("JW[0-9]{5}");
  auto name_pattern = ValuePattern::Compile("[a-z]{3}[A-Z]");
  ASSERT_TRUE(gid_pattern.ok());
  for (Table::RowId r = 0; r < std::min<uint64_t>(gene->num_rows(), 200);
       ++r) {
    EXPECT_TRUE(gid_pattern->Matches(gene->GetCell(r, 0).AsString()));
    EXPECT_TRUE(name_pattern->Matches(gene->GetCell(r, 1).AsString()));
  }
}

TEST_F(WorkloadTest, IdentifiersUniqueAndPnamesDistinct) {
  const Table* gene = dataset_->catalog.GetTableById(dataset_->gene_table);
  const Table* protein =
      dataset_->catalog.GetTableById(dataset_->protein_table);
  EXPECT_EQ(gene->DistinctCount(0), gene->num_rows());
  EXPECT_EQ(gene->DistinctCount(1), gene->num_rows());
  EXPECT_EQ(protein->DistinctCount(0), protein->num_rows());
  // pname distinctness (first pass stems + suffixed later passes).
  EXPECT_EQ(protein->DistinctCount(1), protein->num_rows());
}

TEST_F(WorkloadTest, ProteinFkPointsAtExistingGene) {
  const Table* gene = dataset_->catalog.GetTableById(dataset_->gene_table);
  const Table* protein =
      dataset_->catalog.GetTableById(dataset_->protein_table);
  for (Table::RowId r = 0; r < std::min<uint64_t>(protein->num_rows(), 100);
       ++r) {
    const Value& gid = protein->GetCell(r, 4);
    EXPECT_EQ(gene->Lookup("gid", gid).size(), 1u);
  }
}

TEST_F(WorkloadTest, PublicationTextColumnsDeclared) {
  const Table* pub =
      dataset_->catalog.GetTableById(dataset_->publication_table);
  const int title = pub->schema().ColumnIndex("title");
  const int abstract = pub->schema().ColumnIndex("abstract");
  EXPECT_TRUE(pub->IsTextColumn(static_cast<size_t>(title)));
  EXPECT_TRUE(pub->IsTextColumn(static_cast<size_t>(abstract)));
}

TEST_F(WorkloadTest, CorpusAnnotationsAttachedToCitedTuples) {
  size_t with_attachments = 0;
  for (AnnotationId a = 0; a < 100; ++a) {
    const auto tuples = dataset_->store.AttachedTuples(a, true);
    if (!tuples.empty()) ++with_attachments;
    for (const TupleId& t : tuples) {
      EXPECT_TRUE(t.table_id == dataset_->gene_table ||
                  t.table_id == dataset_->protein_table);
    }
  }
  EXPECT_GT(with_attachments, 90u);
}

TEST_F(WorkloadTest, WorkloadHasAllSizeAndLinkClasses) {
  const Workload& w = dataset_->workload;
  EXPECT_EQ(w.annotations.size(), 60u);
  for (size_t m : {50u, 100u, 500u, 1000u}) {
    EXPECT_EQ(w.BySizeClass(m).size(), 15u) << "L^" << m;
  }
  // Footnote-3 substitution: no 7-10 class at 50 bytes, extras instead.
  EXPECT_TRUE(w.ByClasses(50, 7, 10).empty());
  EXPECT_EQ(w.ByClasses(50, 1, 3).size(), 8u);
  EXPECT_EQ(w.ByClasses(50, 4, 6).size(), 7u);
  EXPECT_EQ(w.ByClasses(1000, 7, 10).size(), 5u);
}

TEST_F(WorkloadTest, AnnotationsRespectByteBudget) {
  for (const auto& a : dataset_->workload.annotations) {
    EXPECT_LE(a.text.size(), a.size_class + 16)
        << "annotation exceeds its size class " << a.size_class;
  }
}

TEST_F(WorkloadTest, ReferenceCountsWithinLinkClass) {
  for (const auto& a : dataset_->workload.annotations) {
    EXPECT_GE(a.refs.size(), a.link_class_lo);
    EXPECT_LE(a.refs.size(), a.link_class_hi);
    EXPECT_EQ(a.refs.size(), a.ideal_tuples.size());
  }
}

TEST_F(WorkloadTest, GroundTruthSurfacesMatchDatabaseValues) {
  const Table* gene = dataset_->catalog.GetTableById(dataset_->gene_table);
  const Table* protein =
      dataset_->catalog.GetTableById(dataset_->protein_table);
  for (const auto& a : dataset_->workload.annotations) {
    for (const auto& ref : a.refs) {
      ASSERT_FALSE(ref.surface.empty());
      // The first surface keyword must literally appear in the text.
      EXPECT_NE(a.text.find(ref.surface[0]), std::string::npos);
      // And must equal one of the target tuple's cell values.
      const Table* table =
          ref.target.table_id == dataset_->gene_table ? gene : protein;
      bool found = false;
      const auto& row = table->GetRow(ref.target.row);
      for (const auto& cell : row) {
        if (cell.is_string() && cell.AsString() == ref.surface[0]) {
          found = true;
        }
      }
      EXPECT_TRUE(found) << "surface '" << ref.surface[0]
                         << "' not a value of its target tuple";
    }
  }
}

TEST_F(WorkloadTest, MediumStrengthReferencesExist) {
  size_t medium = 0, strong = 0;
  for (const auto& a : dataset_->workload.annotations) {
    for (const auto& ref : a.refs) {
      if (ref.strength == RefStrength::kMedium) {
        ++medium;
      } else {
        ++strong;
      }
    }
  }
  EXPECT_GT(medium, 0u);
  EXPECT_GT(strong, medium);  // strong must dominate
}

TEST_F(WorkloadTest, CalibratedPoolsAreInBand) {
  const ValueColumn* pname =
      dataset_->meta.FindValueColumn("protein", "pname");
  ASSERT_NE(pname, nullptr);
  size_t checked = 0;
  for (const auto& w : dataset_->weak_noise_pool) {
    if (checked++ >= 50) break;
    double best = 0.0;
    for (const auto& vc : dataset_->meta.value_columns()) {
      best = std::max(best, dataset_->meta.DomainMatchScore(w, vc));
    }
    EXPECT_GE(best, 0.4) << w;
    EXPECT_LT(best, 0.6) << w;
  }
  EXPECT_FALSE(dataset_->weak_noise_pool.empty());
}

TEST_F(WorkloadTest, DecoysMatchPatternsButMissFromDb) {
  const Table* gene = dataset_->catalog.GetTableById(dataset_->gene_table);
  const Table* protein =
      dataset_->catalog.GetTableById(dataset_->protein_table);
  for (size_t i = 0; i < std::min<size_t>(dataset_->decoy_pool.size(), 50);
       ++i) {
    const std::string& d = dataset_->decoy_pool[i];
    EXPECT_TRUE(gene->Lookup("gid", Value(d)).empty());
    EXPECT_TRUE(protein->Lookup("pid", Value(d)).empty());
  }
}

TEST_F(WorkloadTest, StrongAndMediumPnameBucketsCalibrated) {
  const ValueColumn* pname =
      dataset_->meta.FindValueColumn("protein", "pname");
  for (size_t i = 0; i < std::min<size_t>(dataset_->strong_pnames.size(), 30);
       ++i) {
    EXPECT_GE(
        dataset_->meta.DomainMatchScore(dataset_->strong_pnames[i], *pname),
        0.8);
  }
  for (size_t i = 0; i < std::min<size_t>(dataset_->medium_pnames.size(), 30);
       ++i) {
    const double s =
        dataset_->meta.DomainMatchScore(dataset_->medium_pnames[i], *pname);
    EXPECT_GE(s, 0.6);
    EXPECT_LT(s, 0.8);
  }
}

TEST_F(WorkloadTest, TrainingSetSamplesHaveIdealTuples) {
  Rng rng(5);
  const auto training = dataset_->SampleTrainingSet(20, &rng);
  EXPECT_GT(training.size(), 10u);
  for (const auto& ta : training) {
    EXPECT_FALSE(ta.ideal_tuples.empty());
    EXPECT_LT(ta.annotation, dataset_->store.num_annotations());
  }
}

TEST_F(WorkloadTest, CorpusIdealEdgesMatchStore) {
  const EdgeSet ideal = dataset_->CorpusIdealEdges();
  EXPECT_EQ(ideal.size(), dataset_->store.num_attachments());
}

TEST(WorkloadDeterminismTest, SameSeedSameDataset) {
  DatasetSpec spec = DatasetSpec::Tiny();
  spec.num_genes = 100;
  spec.num_proteins = 60;
  spec.num_publications = 80;
  auto a = GenerateBioDataset(spec);
  auto b = GenerateBioDataset(spec);
  ASSERT_TRUE(a.ok() && b.ok());
  const Table* ga = (*a)->catalog.GetTableById((*a)->gene_table);
  const Table* gb = (*b)->catalog.GetTableById((*b)->gene_table);
  ASSERT_EQ(ga->num_rows(), gb->num_rows());
  for (Table::RowId r = 0; r < ga->num_rows(); ++r) {
    EXPECT_EQ(ga->GetCell(r, 0), gb->GetCell(r, 0));
    EXPECT_EQ(ga->GetCell(r, 1), gb->GetCell(r, 1));
  }
  ASSERT_EQ((*a)->workload.annotations.size(),
            (*b)->workload.annotations.size());
  for (size_t i = 0; i < (*a)->workload.annotations.size(); ++i) {
    EXPECT_EQ((*a)->workload.annotations[i].text,
              (*b)->workload.annotations[i].text);
  }
}

TEST(WorkloadDeterminismTest, DifferentSeedDifferentText) {
  DatasetSpec spec = DatasetSpec::Tiny();
  spec.num_genes = 100;
  spec.num_proteins = 60;
  spec.num_publications = 80;
  DatasetSpec spec2 = spec;
  spec2.seed = 777;
  auto a = GenerateBioDataset(spec);
  auto b = GenerateBioDataset(spec2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE((*a)->workload.annotations[0].text,
            (*b)->workload.annotations[0].text);
}

// ------------------------------- vocab ---------------------------------

TEST(VocabTest, FillerAvoidsSchemaVocabulary) {
  const std::unordered_set<std::string> forbidden{
      "gene", "protein", "family", "name", "id", "type", "publication"};
  for (const auto& w : Vocab::Filler()) {
    EXPECT_EQ(forbidden.count(w), 0u) << w;
  }
  EXPECT_GT(Vocab::Filler().size(), 100u);
}

TEST(VocabTest, ProteinStemsDistinctAndCapitalized) {
  Rng rng(1);
  const auto stems = Vocab::MakeProteinStems(100, &rng);
  EXPECT_EQ(stems.size(), 100u);
  std::unordered_set<std::string> set(stems.begin(), stems.end());
  EXPECT_EQ(set.size(), 100u);
  for (const auto& s : stems) {
    EXPECT_TRUE(isupper(static_cast<unsigned char>(s[0]))) << s;
    EXPECT_GE(s.size(), 4u);
  }
}

TEST(VocabTest, DnaFragment) {
  Rng rng(1);
  const std::string dna = Vocab::DnaFragment(16, &rng);
  EXPECT_EQ(dna.size(), 16u);
  for (char c : dna) {
    EXPECT_TRUE(c == 'A' || c == 'C' || c == 'G' || c == 'T');
  }
}

TEST(VocabTest, MutateChangesWord) {
  Rng rng(1);
  int changed = 0;
  for (int i = 0; i < 20; ++i) {
    if (Vocab::Mutate("Braktorin", &rng) != "braktorin") ++changed;
  }
  EXPECT_GT(changed, 10);
}

TEST(VocabTest, FillerPhraseWordCount) {
  Rng rng(1);
  const std::string phrase = Vocab::FillerPhrase(5, &rng);
  EXPECT_EQ(SplitWhitespace(phrase).size(), 5u);
}

// ------------------------------- oracle --------------------------------

TEST(OracleTest, AnswersPendingFromGroundTruth) {
  AnnotationStore store;
  Acg acg;
  VerificationManager manager(&store, &acg, {0.3, 0.8});
  const AnnotationId a = store.AddAnnotation("x");
  ASSERT_TRUE(store.Attach(a, {0, 0}).ok());

  EdgeSet ideal;
  ideal.Add(a, {0, 0});
  ideal.Add(a, {0, 1});  // true missing attachment
  // {0,2} is junk.
  CandidateTuple good, bad;
  good.tuple = {0, 1};
  good.confidence = 0.5;
  bad.tuple = {0, 2};
  bad.confidence = 0.5;
  manager.Submit(a, {good, bad});
  ASSERT_EQ(manager.PendingTasks().size(), 2u);

  OracleExpert oracle(&ideal);
  const OracleOutcome outcome = oracle.ProcessPending(&manager);
  EXPECT_EQ(outcome.accepted, 1u);
  EXPECT_EQ(outcome.rejected, 1u);
  EXPECT_TRUE(manager.PendingTasks().empty());
  EXPECT_TRUE(store.HasAttachment(a, {0, 1}));
  EXPECT_FALSE(store.HasAttachment(a, {0, 2}));
}

}  // namespace
}  // namespace nebula
