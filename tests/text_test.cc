#include <gtest/gtest.h>

#include <string_view>

#include "common/status.h"
#include "text/lexicon.h"
#include "text/pattern.h"
#include "text/similarity.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace nebula {
namespace {

// ------------------------------ tokenizer ------------------------------

TEST(TokenizerTest, BasicSplitWithPositions) {
  const auto toks = Tokenize("gene JW0014 of grpC");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].text, "gene");
  EXPECT_EQ(toks[1].text, "JW0014");
  EXPECT_EQ(toks[1].lower, "jw0014");
  EXPECT_EQ(toks[3].text, "grpC");
  for (size_t i = 0; i < toks.size(); ++i) EXPECT_EQ(toks[i].position, i);
}

TEST(TokenizerTest, KeepsHyphenatedIdentifiersTogether) {
  const auto toks = Tokenize("refers to protein G-Actin here");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[3].text, "G-Actin");
}

TEST(TokenizerTest, TrimsEdgeConnectors) {
  const auto toks = Tokenize("-actin- _x_");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0].text, "actin");
  EXPECT_EQ(toks[1].text, "x");
}

TEST(TokenizerTest, PunctuationDiscarded) {
  const auto toks = Tokenize("genes: JW0013, JW0014 (and grpC).");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[0].text, "genes");
  EXPECT_EQ(toks[4].text, "grpC");
}

TEST(TokenizerTest, CharOffsetsPointIntoOriginal) {
  const std::string text = "see JW0014!";
  const auto toks = Tokenize(text);
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(text.substr(toks[1].char_offset, 6), "JW0014");
}

TEST(TokenizerTest, EmptyAndOnlyPunctuation) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("...---").empty());
}

TEST(TokenizerTest, TokenizeLowerMatches) {
  const auto lows = TokenizeLower("Gene JW0014");
  ASSERT_EQ(lows.size(), 2u);
  EXPECT_EQ(lows[0], "gene");
  EXPECT_EQ(lows[1], "jw0014");
}

// ------------------------------ stopwords ------------------------------

TEST(StopwordsTest, CommonWordsAreStopwords) {
  for (const char* w : {"the", "is", "of", "and", "it", "to", "this"}) {
    EXPECT_TRUE(IsStopword(w)) << w;
  }
}

TEST(StopwordsTest, DomainWordsAreNot) {
  for (const char* w : {"gene", "protein", "jw0014", "grpc", "kinase"}) {
    EXPECT_FALSE(IsStopword(w)) << w;
  }
}

// ------------------------------ similarity ------------------------------

/// Trigram Jaccard of two strings through the scorer's packed sets.
double TrigramJaccard(std::string_view a, std::string_view b) {
  return TrigramJaccardIds(TrigramIdSet(a), TrigramIdSet(b));
}

TEST(TrigramJaccardTest, IdenticalIsOne) {
  EXPECT_DOUBLE_EQ(TrigramJaccard("actin", "actin"), 1.0);
  EXPECT_DOUBLE_EQ(TrigramJaccard("", ""), 1.0);
}

TEST(TrigramJaccardTest, DisjointNearZero) {
  EXPECT_LT(TrigramJaccard("aaaa", "zzzz"), 0.05);
}

TEST(TrigramJaccardTest, VariantsScoreHigh) {
  EXPECT_GT(TrigramJaccard("kinase", "kinase2"), 0.5);
  EXPECT_GT(TrigramJaccard("braktorin", "braktorin3"), 0.6);
}

TEST(TrigramJaccardTest, SymmetricAndBounded) {
  const double a = TrigramJaccard("transport", "transportin");
  const double b = TrigramJaccard("transportin", "transport");
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GE(a, 0.0);
  EXPECT_LE(a, 1.0);
}

TEST(StemLiteTest, SuffixRules) {
  EXPECT_EQ(StemLite("genes"), "gene");
  EXPECT_EQ(StemLite("families"), "family");
  EXPECT_EQ(StemLite("binding"), "bind");
  EXPECT_EQ(StemLite("quickly"), "quick");
  EXPECT_EQ(StemLite("classes"), "class");
}

TEST(StemLiteTest, ShortAndNonSuffixedUnchanged) {
  EXPECT_EQ(StemLite("gas"), "gas");  // too short to strip
  EXPECT_EQ(StemLite("is"), "is");
  EXPECT_EQ(StemLite("gene"), "gene");
  EXPECT_EQ(StemLite("jw0014"), "jw0014");
}

// ------------------------------ lexicon ------------------------------

TEST(LexiconTest, SynonymRing) {
  Lexicon lex;
  lex.AddSynonyms({"gene", "locus"});
  EXPECT_TRUE(lex.AreSynonyms("gene", "locus"));
  EXPECT_TRUE(lex.AreSynonyms("LOCUS", "Gene"));  // case-insensitive
  EXPECT_TRUE(lex.AreSynonyms("gene", "gene"));   // reflexive
  EXPECT_FALSE(lex.AreSynonyms("gene", "protein"));
}

TEST(LexiconTest, RingMerging) {
  Lexicon lex;
  lex.AddSynonyms({"a", "b"});
  lex.AddSynonyms({"c", "d"});
  EXPECT_FALSE(lex.AreSynonyms("a", "c"));
  lex.AddSynonyms({"b", "c"});  // merges the two rings
  EXPECT_TRUE(lex.AreSynonyms("a", "d"));
}

TEST(LexiconTest, SynonymsOfExcludesSelf) {
  Lexicon lex;
  lex.AddSynonyms({"gene", "locus", "cistron"});
  const auto syns = lex.SynonymsOf("gene");
  ASSERT_EQ(syns.size(), 2u);
  EXPECT_EQ(syns[0], "cistron");
  EXPECT_EQ(syns[1], "locus");
  EXPECT_TRUE(lex.SynonymsOf("unknown").empty());
}

TEST(LexiconTest, HyponymsTransitive) {
  Lexicon lex;
  lex.AddHyponym("kinase", "enzyme");
  lex.AddHyponym("enzyme", "protein");
  EXPECT_TRUE(lex.IsHyponymOf("kinase", "enzyme"));
  EXPECT_TRUE(lex.IsHyponymOf("kinase", "protein"));
  EXPECT_FALSE(lex.IsHyponymOf("protein", "kinase"));
  EXPECT_FALSE(lex.IsHyponymOf("unknown", "protein"));
}

TEST(LexiconTest, HyponymThroughSynonym) {
  Lexicon lex;
  lex.AddSynonyms({"protein", "polypeptide"});
  lex.AddHyponym("enzyme", "protein");
  EXPECT_TRUE(lex.IsHyponymOf("enzyme", "polypeptide"));
}

TEST(LexiconTest, BuiltinCoversSchemaVocabulary) {
  const Lexicon lex = Lexicon::BuiltinEnglishBio();
  EXPECT_TRUE(lex.AreSynonyms("gene", "locus"));
  EXPECT_TRUE(lex.AreSynonyms("publication", "article"));
  EXPECT_TRUE(lex.AreSynonyms("id", "accession"));
  EXPECT_TRUE(lex.IsHyponymOf("kinase", "protein"));
  EXPECT_GT(lex.num_words(), 30u);
}

// ------------------------------ pattern ------------------------------

TEST(PatternTest, GeneIdPattern) {
  auto p = ValuePattern::Compile("JW[0-9]{4}");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->Matches("JW0014"));
  EXPECT_FALSE(p->Matches("JW014"));
  EXPECT_FALSE(p->Matches("XJW0014"));  // whole-string semantics
  EXPECT_FALSE(p->Matches("JW00140"));
  EXPECT_FALSE(p->Matches("jw0014"));   // case-sensitive
}

TEST(PatternTest, GeneNamePattern) {
  auto p = ValuePattern::Compile("[a-z]{3}[A-Z]");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->Matches("grpC"));
  EXPECT_TRUE(p->Matches("nhaA"));
  EXPECT_FALSE(p->Matches("grpc"));
  EXPECT_FALSE(p->Matches("grC"));
}

TEST(PatternTest, BadPatternReturnsError) {
  auto p = ValuePattern::Compile("[unclosed");
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
}

TEST(PatternTest, PatternAccessorAndCopy) {
  auto p = ValuePattern::Compile("F[0-9]");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->pattern(), "F[0-9]");
  ValuePattern copy = *p;  // copyable (shared regex)
  EXPECT_TRUE(copy.Matches("F3"));
}

}  // namespace
}  // namespace nebula
