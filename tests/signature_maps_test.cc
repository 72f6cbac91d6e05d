#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/fault.h"
#include "common/fault_points.h"
#include "core/signature_maps.h"
#include "meta/nebula_meta.h"
#include "text/tokenizer.h"

namespace nebula {
namespace {

class SignatureMapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(meta_.AddConcept("Gene", "gene", {{"gid"}, {"name"}}).ok());
    ASSERT_TRUE(
        meta_.AddConcept("Protein", "protein", {{"pid"}, {"pname", "ptype"}})
            .ok());
    ASSERT_TRUE(meta_.SetColumnPattern("gene", "gid", "JW[0-9]{4}").ok());
    ASSERT_TRUE(meta_.SetColumnPattern("gene", "name", "[a-z]{3}[A-Z]").ok());
    ASSERT_TRUE(meta_.SetColumnPattern("protein", "pid", "P[0-9]{5}").ok());
    ASSERT_TRUE(
        meta_.SetColumnOntology("protein", "ptype", {"kinase", "receptor"})
            .ok());
    builder_ = std::make_unique<SignatureMapBuilder>(&meta_);
  }

  NebulaMeta meta_;
  std::unique_ptr<SignatureMapBuilder> builder_;
};

TEST_F(SignatureMapTest, ConceptMapHighlightsTableAndColumnWords) {
  const auto tokens = Tokenize("the gene gid JW0014 grows");
  const SignatureMap map = builder_->BuildConceptMap(tokens, 0.6);
  ASSERT_EQ(map.words.size(), 5u);
  EXPECT_FALSE(map.words[0].emphasized());  // "the" (stopword)
  EXPECT_TRUE(map.words[1].emphasized());   // "gene" -> table
  EXPECT_TRUE(map.words[1].HasConceptMapping());
  EXPECT_TRUE(map.words[2].emphasized());   // "gid" -> column
  EXPECT_FALSE(map.words[3].emphasized());  // value word: not a concept
  EXPECT_FALSE(map.words[4].emphasized());  // filler
}

TEST_F(SignatureMapTest, ConceptMapKindsAreCorrect) {
  const auto tokens = Tokenize("gene gid");
  const SignatureMap map = builder_->BuildConceptMap(tokens, 0.6);
  ASSERT_TRUE(map.words[0].BestMapping() != nullptr);
  EXPECT_EQ(map.words[0].BestMapping()->kind, WordMapping::Kind::kTable);
  EXPECT_EQ(map.words[1].BestMapping()->kind, WordMapping::Kind::kColumn);
  EXPECT_EQ(map.words[1].BestMapping()->table, "gene");
  EXPECT_EQ(map.words[1].BestMapping()->column, "gid");
}

TEST_F(SignatureMapTest, ValueMapHighlightsPatternMatches) {
  const auto tokens = Tokenize("comparing JW0014 with grpC and banana");
  const SignatureMap map = builder_->BuildValueMap(tokens, 0.6);
  EXPECT_TRUE(map.words[1].emphasized());  // JW0014
  EXPECT_TRUE(map.words[1].HasValueMapping());
  EXPECT_EQ(map.words[1].BestMapping()->column, "gid");
  EXPECT_TRUE(map.words[3].emphasized());  // grpC
  EXPECT_EQ(map.words[3].BestMapping()->column, "name");
  EXPECT_FALSE(map.words[5].emphasized());  // banana
}

TEST_F(SignatureMapTest, ValueMapHighlightsOntologyMembers) {
  const auto tokens = Tokenize("a kinase activity");
  const SignatureMap map = builder_->BuildValueMap(tokens, 0.6);
  EXPECT_TRUE(map.words[1].emphasized());
  EXPECT_EQ(map.words[1].BestMapping()->column, "ptype");
}

TEST_F(SignatureMapTest, EpsilonCutoffFiltersWeakMappings) {
  const auto tokens = Tokenize("locus JW0014");
  // "locus" is a synonym of "gene" scoring 0.7: present at eps 0.6,
  // absent at eps 0.8.
  const SignatureMap at06 = builder_->BuildConceptMap(tokens, 0.6);
  const SignatureMap at08 = builder_->BuildConceptMap(tokens, 0.8);
  EXPECT_TRUE(at06.words[0].emphasized());
  EXPECT_FALSE(at08.words[0].emphasized());
}

TEST_F(SignatureMapTest, StopwordsNeverEmphasized) {
  const auto tokens = Tokenize("it is the and of");
  const SignatureMap cmap = builder_->BuildConceptMap(tokens, 0.1);
  const SignatureMap vmap = builder_->BuildValueMap(tokens, 0.1);
  EXPECT_EQ(cmap.NumEmphasized(), 0u);
  EXPECT_EQ(vmap.NumEmphasized(), 0u);
}

TEST_F(SignatureMapTest, OverlayMergesMappingsPositionWise) {
  const auto tokens = Tokenize("gene JW0014");
  const SignatureMap cmap = builder_->BuildConceptMap(tokens, 0.6);
  const SignatureMap vmap = builder_->BuildValueMap(tokens, 0.6);
  const SignatureMap context = SignatureMapBuilder::Overlay(cmap, vmap);
  ASSERT_EQ(context.words.size(), 2u);
  EXPECT_TRUE(context.words[0].HasConceptMapping());
  EXPECT_FALSE(context.words[0].HasValueMapping());
  EXPECT_TRUE(context.words[1].HasValueMapping());
  EXPECT_FALSE(context.words[1].HasConceptMapping());
}

TEST_F(SignatureMapTest, AmbiguousWordKeepsMultipleMappings) {
  // "P00001" matches the pid pattern only; "kinase" matches the protein
  // table (hyponym) in the concept map AND the ptype ontology in the
  // value map -> after overlay it carries both kinds.
  const auto tokens = Tokenize("kinase P00001");
  const SignatureMap context = SignatureMapBuilder::Overlay(
      builder_->BuildConceptMap(tokens, 0.6),
      builder_->BuildValueMap(tokens, 0.6));
  EXPECT_TRUE(context.words[0].HasConceptMapping());
  EXPECT_TRUE(context.words[0].HasValueMapping());
  EXPECT_GE(context.words[0].mappings.size(), 2u);
}

TEST_F(SignatureMapTest, NumEmphasizedCounts) {
  const auto tokens = Tokenize("gene JW0014 banana");
  const SignatureMap context = SignatureMapBuilder::Overlay(
      builder_->BuildConceptMap(tokens, 0.6),
      builder_->BuildValueMap(tokens, 0.6));
  EXPECT_EQ(context.NumEmphasized(), 2u);
}

TEST_F(SignatureMapTest, BestMappingPicksHighestWeight) {
  SigWord word;
  word.mappings = {{WordMapping::Kind::kValue, "a", "b", 0.5},
                   {WordMapping::Kind::kValue, "c", "d", 0.9},
                   {WordMapping::Kind::kTable, "e", "", 0.7}};
  ASSERT_NE(word.BestMapping(), nullptr);
  EXPECT_EQ(word.BestMapping()->table, "c");
  SigWord empty;
  EXPECT_EQ(empty.BestMapping(), nullptr);
}

/// Every word and mapping of a map, weights as exact hex floats.
std::string Render(const SignatureMap& map) {
  std::string out;
  for (const SigWord& w : map.words) {
    out += w.token.text + "@" + std::to_string(w.token.position) + ":";
    for (const WordMapping& m : w.mappings) {
      char weight[32];
      std::snprintf(weight, sizeof(weight), "%a", m.weight);
      out += " " + std::to_string(static_cast<int>(m.kind)) + "/" + m.table +
             "." + m.column + "=" + weight;
    }
    out += "\n";
  }
  return out;
}

TEST_F(SignatureMapTest, MapsIdenticalColdWarmAndWithMemoFillRefused) {
  const auto tokens = Tokenize(
      "The gene JW0014 (GENE grpC, genes jw0014) encodes the Kinase "
      "protein P00001; the protein's receptor pid P0001 and JW0014 again.");
  const double eps = 0.3;
  ASSERT_EQ(meta_.word_memo_size(), 0u);
  const std::string cold_concept =
      Render(builder_->BuildConceptMap(tokens, eps));
  const std::string cold_value = Render(builder_->BuildValueMap(tokens, eps));
  EXPECT_GT(meta_.word_memo_size(), 0u);
  EXPECT_NE(cold_concept.find("=0x1p+0"), std::string::npos);  // "gene"

  EXPECT_EQ(Render(builder_->BuildConceptMap(tokens, eps)), cold_concept);
  EXPECT_EQ(Render(builder_->BuildValueMap(tokens, eps)), cold_value);

  // A copy starts with an empty memo; with every fill refused each word is
  // scored cold on every call.
  NebulaMeta memo_less(meta_);
  const SignatureMapBuilder builder(&memo_less);
  ScopedFault fault(kFaultMetaWordMemoFill);
  EXPECT_EQ(Render(builder.BuildConceptMap(tokens, eps)), cold_concept);
  EXPECT_EQ(Render(builder.BuildValueMap(tokens, eps)), cold_value);
  EXPECT_EQ(memo_less.word_memo_size(), 0u);
}

TEST_F(SignatureMapTest, EmptyAnnotationYieldsEmptyMaps) {
  const auto tokens = Tokenize("");
  EXPECT_TRUE(builder_->BuildConceptMap(tokens, 0.5).words.empty());
  EXPECT_TRUE(builder_->BuildValueMap(tokens, 0.5).words.empty());
}

}  // namespace
}  // namespace nebula
