#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "annotation/annotation_store.h"
#include "common/fault.h"
#include "common/fault_points.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "durability/meta_serialize.h"
#include "meta/nebula_meta.h"
#include "obs/metrics.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "storage/value.h"
#include "text/lexicon.h"
#include "text/similarity.h"
#include "text/tokenizer.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace nebula {
namespace {

/// Fixture with the Figure 3 ConceptRefs content on a small catalog.
class MetaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* gene =
        *catalog_.CreateTable("gene",
                              Schema({{"gid", DataType::kString, true},
                                      {"name", DataType::kString, true},
                                      {"family", DataType::kString}}));
    Table* protein =
        *catalog_.CreateTable("protein",
                              Schema({{"pid", DataType::kString, true},
                                      {"pname", DataType::kString},
                                      {"ptype", DataType::kString}}));
    ASSERT_TRUE(gene->Insert({Value("JW0013"), Value("grpC"), Value("F1")})
                    .ok());
    ASSERT_TRUE(gene->Insert({Value("JW0014"), Value("groP"), Value("F6")})
                    .ok());
    ASSERT_TRUE(
        protein->Insert({Value("P00001"), Value("Actin"), Value("kinase")})
            .ok());
    ASSERT_TRUE(
        protein->Insert({Value("P00002"), Value("Tubulin"), Value("receptor")})
            .ok());

    ASSERT_TRUE(meta_.AddConcept("Gene", "gene", {{"gid"}, {"name"}}).ok());
    ASSERT_TRUE(
        meta_.AddConcept("Protein", "protein", {{"pid"}, {"pname", "ptype"}})
            .ok());
    ASSERT_TRUE(meta_.SetColumnPattern("gene", "gid", "JW[0-9]{4}").ok());
    ASSERT_TRUE(meta_.SetColumnPattern("gene", "name", "[a-z]{3}[A-Z]").ok());
    ASSERT_TRUE(meta_.SetColumnPattern("protein", "pid", "P[0-9]{5}").ok());
    ASSERT_TRUE(meta_
                    .SetColumnOntology("protein", "ptype",
                                       {"kinase", "receptor", "transporter"})
                    .ok());
  }

  const SchemaItem* FindItem(SchemaItem::Kind kind,
                             const std::string& name) const {
    for (const auto& item : meta_.schema_items()) {
      if (item.kind == kind && item.name == name) return &item;
    }
    return nullptr;
  }

  Catalog catalog_;
  NebulaMeta meta_;
};

TEST_F(MetaTest, AddConceptRegistersSchemaItems) {
  EXPECT_EQ(meta_.concepts().size(), 2u);
  EXPECT_NE(FindItem(SchemaItem::Kind::kTable, "gene"), nullptr);
  EXPECT_NE(FindItem(SchemaItem::Kind::kTable, "protein"), nullptr);
  EXPECT_NE(FindItem(SchemaItem::Kind::kColumn, "gid"), nullptr);
  EXPECT_NE(FindItem(SchemaItem::Kind::kColumn, "pname"), nullptr);
  // 2 tables + 5 referencing columns.
  EXPECT_EQ(meta_.schema_items().size(), 7u);
  EXPECT_EQ(meta_.value_columns().size(), 5u);
}

TEST_F(MetaTest, AddConceptRejectsEmptyReferencing) {
  NebulaMeta m;
  EXPECT_EQ(m.AddConcept("X", "x", {}).code(), StatusCode::kInvalidArgument);
}

TEST_F(MetaTest, SetPatternOnUnknownColumnFails) {
  EXPECT_EQ(meta_.SetColumnPattern("gene", "seq", "x").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(meta_.SetColumnOntology("gene", "seq", {"a"}).code(),
            StatusCode::kNotFound);
}

TEST_F(MetaTest, SetPatternRejectsBadRegex) {
  EXPECT_EQ(meta_.SetColumnPattern("gene", "gid", "[bad").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MetaTest, FindValueColumn) {
  EXPECT_NE(meta_.FindValueColumn("gene", "gid"), nullptr);
  EXPECT_NE(meta_.FindValueColumn("GENE", "GID"), nullptr);
  EXPECT_EQ(meta_.FindValueColumn("gene", "seq"), nullptr);
}

// ----------------------- ConceptMatchScore p(w,c) -----------------------

TEST_F(MetaTest, ConceptExactMatch) {
  const SchemaItem* gene = FindItem(SchemaItem::Kind::kTable, "gene");
  EXPECT_DOUBLE_EQ(meta_.ConceptMatchScore("gene", *gene), 1.0);
}

TEST_F(MetaTest, ConceptStemmedMatch) {
  const SchemaItem* gene = FindItem(SchemaItem::Kind::kTable, "gene");
  EXPECT_DOUBLE_EQ(meta_.ConceptMatchScore("genes", *gene), 0.95);
}

TEST_F(MetaTest, ConceptAliasMatch) {
  meta_.AddColumnAlias("gene", "gid", "id");
  const SchemaItem* gid = FindItem(SchemaItem::Kind::kColumn, "gid");
  EXPECT_DOUBLE_EQ(meta_.ConceptMatchScore("id", *gid), 0.9);
}

TEST_F(MetaTest, ConceptTableAliasMatch) {
  meta_.AddTableAlias("gene", "genetic locus");
  const SchemaItem* gene = FindItem(SchemaItem::Kind::kTable, "gene");
  // Multi-word aliases match token-wise.
  EXPECT_DOUBLE_EQ(meta_.ConceptMatchScore("genetic", *gene), 0.9);
}

TEST_F(MetaTest, ConceptSynonymMatch) {
  const SchemaItem* gene = FindItem(SchemaItem::Kind::kTable, "gene");
  // "locus" ~ "gene" in the builtin lexicon.
  EXPECT_DOUBLE_EQ(meta_.ConceptMatchScore("locus", *gene), 0.7);
}

TEST_F(MetaTest, ConceptHyponymMatch) {
  const SchemaItem* protein = FindItem(SchemaItem::Kind::kTable, "protein");
  EXPECT_DOUBLE_EQ(meta_.ConceptMatchScore("kinase", *protein), 0.7);
}

TEST_F(MetaTest, ConceptUnrelatedScoresZero) {
  const SchemaItem* gene = FindItem(SchemaItem::Kind::kTable, "gene");
  EXPECT_DOUBLE_EQ(meta_.ConceptMatchScore("banana", *gene), 0.0);
  EXPECT_DOUBLE_EQ(meta_.ConceptMatchScore("jw0013", *gene), 0.0);
}

/// One p(w,c) tier per row, expected score written by hand. Each word is
/// checked through ScoreWord in three spellings and through
/// ConceptMatchScore on its lower-cased form.
TEST(ConceptTiersTest, EveryTierScoresAsWrittenThroughBothEntryPoints) {
  Lexicon lexicon;
  lexicon.AddSynonyms({"gene", "locus", "cistron"});
  lexicon.AddSynonyms({"protein", "polypeptide"});
  lexicon.AddHyponym("oncogene", "gene");
  lexicon.AddHyponym("kinase", "enzyme");
  lexicon.AddHyponym("enzyme", "protein");
  lexicon.AddHyponym("receptor", "polypeptide");
  NebulaMeta meta(std::move(lexicon));
  ASSERT_TRUE(meta.AddConcept("Gene", "gene", {{"gid"}, {"name"}}).ok());
  ASSERT_TRUE(meta.AddConcept("Protein", "protein", {{"pid"}}).ok());
  ASSERT_TRUE(meta.AddConcept("Paper", "papers", {{"authors"}}).ok());
  meta.AddColumnAlias("gene", "gid", "locus tag");
  meta.AddTableAlias("protein", "polypeptide");

  struct Row {
    const char* tier;
    std::string word;  // lower-case
    std::string item;  // SchemaItem::Key()
    double expected;
  };
  const std::vector<Row> rows = {
      {"exact", "gene", "gene", 1.0},
      {"stemmed word", "genes", "gene", 0.95},
      {"stemmed item name", "paper", "papers", 0.95},
      {"stemmed word and item name", "authored", "papers.authors", 0.95},
      {"alias", "tag", "gene.gid", 0.9},
      {"alias before synonym", "polypeptide", "protein", 0.9},
      {"synonym", "locus", "gene", 0.7},
      {"stemmed synonym", "cistrons", "gene", 0.7},
      {"hyponym", "oncogene", "gene", 0.7},
      {"transitive hyponym", "kinase", "protein", 0.7},
      {"hyponym of a synonym", "receptor", "protein", 0.7},
      {"synonym of another item", "locus", "protein", 0.0},
      {"unrelated", "banana", "gene", 0.0},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string(row.tier) + ": " + row.word + " ~ " + row.item);
    size_t index = meta.schema_items().size();
    for (size_t i = 0; i < meta.schema_items().size(); ++i) {
      if (meta.schema_items()[i].Key() == row.item) index = i;
    }
    ASSERT_LT(index, meta.schema_items().size());
    std::string capitalized = row.word;
    capitalized[0] = static_cast<char>(capitalized[0] - 'a' + 'A');
    for (const std::string& spelling :
         {row.word, capitalized, ToUpper(row.word)}) {
      EXPECT_EQ(meta.ScoreWord(spelling)->concept_scores[index], row.expected)
          << spelling;
      EXPECT_EQ(meta.ConceptMatchScore(ToLower(spelling),
                                       meta.schema_items()[index]),
                row.expected)
          << spelling;
    }
  }
  for (double score : meta.ScoreWord("Banana")->concept_scores) {
    EXPECT_EQ(score, 0.0);
  }
}

// ----------------------- DomainMatchScore d(w,c) -----------------------

TEST_F(MetaTest, PatternMatchScoresHigh) {
  const ValueColumn* gid = meta_.FindValueColumn("gene", "gid");
  const double s = meta_.DomainMatchScore("JW0014", *gid);
  EXPECT_GE(s, 0.8);
  // Case matters for the pattern: lowercase misses.
  EXPECT_LT(meta_.DomainMatchScore("jw0014", *gid), 0.4);
}

TEST_F(MetaTest, PatternMismatchScoresLow) {
  const ValueColumn* gid = meta_.FindValueColumn("gene", "gid");
  EXPECT_LT(meta_.DomainMatchScore("hello", *gid), 0.4);
  const ValueColumn* name = meta_.FindValueColumn("gene", "name");
  EXPECT_GE(meta_.DomainMatchScore("grpC", *name), 0.8);
  EXPECT_LT(meta_.DomainMatchScore("grpc", *name), 0.4);
}

TEST_F(MetaTest, OntologyMembership) {
  const ValueColumn* ptype = meta_.FindValueColumn("protein", "ptype");
  EXPECT_GE(meta_.DomainMatchScore("kinase", *ptype), 0.8);
  EXPECT_GE(meta_.DomainMatchScore("KINASE", *ptype), 0.8);  // case-insens.
  EXPECT_LT(meta_.DomainMatchScore("whatever", *ptype), 0.4);
}

TEST_F(MetaTest, TypeGateRejectsNonNumericForIntColumn) {
  // Build a meta with an INT referencing column.
  Catalog catalog;
  Table* t = *catalog.CreateTable(
      "item", Schema({{"code", DataType::kInt64, true}}));
  ASSERT_TRUE(t->Insert({Value(int64_t{12345})}).ok());
  NebulaMeta meta;
  ASSERT_TRUE(meta.AddConcept("Item", "item", {{"code"}}).ok());
  Rng rng(1);
  ASSERT_TRUE(meta.DrawColumnSamples(catalog, 10, &rng).ok());
  const ValueColumn* code = meta.FindValueColumn("item", "code");
  EXPECT_DOUBLE_EQ(meta.DomainMatchScore("abc", *code), 0.0);
  EXPECT_GT(meta.DomainMatchScore("12345", *code), 0.0);
}

TEST_F(MetaTest, SampleExactMatch) {
  Rng rng(7);
  ASSERT_TRUE(meta_.DrawColumnSamples(catalog_, 10, &rng).ok());
  const ValueColumn* pname = meta_.FindValueColumn("protein", "pname");
  ASSERT_FALSE(pname->samples.empty());
  // Both pnames are sampled (only 2 rows, 10 requested).
  EXPECT_GE(meta_.DomainMatchScore("Actin", *pname), 0.8);
  EXPECT_GE(meta_.DomainMatchScore("actin", *pname), 0.8);  // case-insens.
}

TEST_F(MetaTest, SampleFuzzyBands) {
  Rng rng(7);
  ASSERT_TRUE(meta_.DrawColumnSamples(catalog_, 10, &rng).ok());
  const ValueColumn* pname = meta_.FindValueColumn("protein", "pname");
  // A close variant of a sampled name lands in the medium band...
  const double close = meta_.DomainMatchScore("Tubulin2", *pname);
  EXPECT_GE(close, 0.6);
  EXPECT_LT(close, 0.9);
  // ... a distant variant lands in the weak band ("Actin2" vs "Actin"
  // has trigram similarity 0.5, below the hi threshold)...
  const double distant = meta_.DomainMatchScore("Actin2", *pname);
  EXPECT_GE(distant, 0.4);
  EXPECT_LT(distant, 0.6);
  // ... while an unrelated word stays weak.
  EXPECT_LT(meta_.DomainMatchScore("membrane", *pname), 0.45);
}

TEST_F(MetaTest, SamplesSkippedForStructuredColumns) {
  Rng rng(7);
  ASSERT_TRUE(meta_.DrawColumnSamples(catalog_, 10, &rng).ok());
  // gid has a pattern -> no samples drawn.
  EXPECT_TRUE(meta_.FindValueColumn("gene", "gid")->samples.empty());
  EXPECT_TRUE(meta_.FindValueColumn("protein", "ptype")->samples.empty());
  EXPECT_FALSE(meta_.FindValueColumn("protein", "pname")->samples.empty());
}

TEST_F(MetaTest, DrawSamplesFillsColumnTypes) {
  Rng rng(7);
  ASSERT_TRUE(meta_.DrawColumnSamples(catalog_, 10, &rng).ok());
  EXPECT_EQ(meta_.FindValueColumn("gene", "gid")->type, DataType::kString);
}

TEST_F(MetaTest, ScoreCappedAtOne) {
  const ValueColumn* gid = meta_.FindValueColumn("gene", "gid");
  EXPECT_LE(meta_.DomainMatchScore("JW0013", *gid), 1.0);
}

// ----------------------- ScoreWord: the word-score memo -----------------

/// ScoreWord(word) must equal the two scorers, bit for bit, whether the
/// memo serves it cold or warm.
void ExpectScoreWordMatchesScorers(const NebulaMeta& meta,
                                   const std::string& word) {
  SCOPED_TRACE("word of " + std::to_string(word.size()) + " bytes: " +
               word.substr(0, 16));
  for (int pass = 0; pass < 2; ++pass) {
    const auto scores = meta.ScoreWord(word);
    ASSERT_EQ(scores->concept_scores.size(), meta.schema_items().size());
    ASSERT_EQ(scores->domain_scores.size(), meta.value_columns().size());
    for (size_t i = 0; i < meta.schema_items().size(); ++i) {
      EXPECT_EQ(scores->concept_scores[i],
                meta.ConceptMatchScore(ToLower(word), meta.schema_items()[i]))
          << meta.schema_items()[i].Key();
    }
    for (size_t j = 0; j < meta.value_columns().size(); ++j) {
      EXPECT_EQ(scores->domain_scores[j],
                meta.DomainMatchScore(word, meta.value_columns()[j]))
          << meta.value_columns()[j].Key();
    }
  }
}

std::vector<std::string> ScoreWordInputs() {
  return {
      // Case variants, a stem, an alias and a synonym.
      "gene", "Gene", "GENE", "genes", "locus", "id", "JW0014", "jw0014",
      "JW00014", "jw00014",
      // Ontology and sample hits, exact and fuzzy.
      "kinase", "KINASE", "Actin", "actin", "Tubulin2", "Actin2", "membrane",
      // Stopwords, degenerate and hostile tokens.
      "the", "of", "", "a", "7", std::string("gr\0pC", 6), "it's", "\"grpC\"",
      "'; DROP TABLE gene; --", std::string(1 << 20, 'x')};
}

/// Reference d(w,c) of a samples-only column, pairwise: candidates from
/// the inverted index, TrigramJaccardIds per candidate, then the two fuzzy
/// bands. DomainMatchScore's shared-trigram counts must equal it bit for
/// bit.
double PairwiseSampleScore(const MetaScoringParams& p,
                           const ValueColumn& column,
                           const std::string& word) {
  const std::string lower = ToLower(word);
  double best = 0.0;
  if (column.samples_lower.count(lower) > 0) {
    best = p.sample_exact;
  } else {
    const std::vector<uint32_t> word_trigrams = TrigramIdSet(lower);
    std::vector<uint32_t> candidates;
    for (uint32_t gram : word_trigrams) {
      auto it = column.sample_trigram_index.find(gram);
      if (it == column.sample_trigram_index.end()) continue;
      candidates.insert(candidates.end(), it->second.begin(),
                        it->second.end());
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (uint32_t i : candidates) {
      const double sim =
          TrigramJaccardIds(column.sample_trigrams[i], word_trigrams);
      if (sim >= p.sample_fuzzy_hi_threshold) {
        best = std::max(best, p.sample_fuzzy_hi_scale * sim);
      } else if (sim >= p.sample_fuzzy_lo_threshold) {
        best = std::max(best, p.sample_fuzzy_lo_scale * sim);
      }
    }
  }
  return std::min(p.type_compatible + best, 1.0);
}

TEST(SampleMatchTest, TrigramCountsEqualPairwiseJaccardBitForBit) {
  auto dataset = GenerateBioDataset(DatasetSpec::Small());
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  const NebulaMeta& meta = (*dataset)->meta;
  const ValueColumn* pname = meta.FindValueColumn("protein", "pname");
  ASSERT_NE(pname, nullptr);
  ASSERT_EQ(pname->type, DataType::kString);
  ASSERT_FALSE(pname->pattern.has_value());
  ASSERT_TRUE(pname->ontology.empty());
  ASSERT_GT(pname->samples.size(), 50u);

  std::vector<std::string> inputs = ScoreWordInputs();
  // Every sample, and every one-character substitution, deletion and
  // append of it: the hi and lo bands live here.
  for (const std::string& sample : pname->samples) {
    inputs.push_back(sample);
    inputs.push_back(sample + "2");
    for (size_t i = 0; i < sample.size(); ++i) {
      std::string substituted = sample;
      substituted[i] = substituted[i] == 'q' ? 'z' : 'q';
      inputs.push_back(substituted);
      inputs.push_back(sample.substr(0, i) + sample.substr(i + 1));
    }
  }
  // 2,000 distinct words of the annotation stream.
  std::unordered_set<std::string> stream_words;
  const AnnotationStore& store = (*dataset)->store;
  for (AnnotationId id = 0;
       id < store.num_annotations() && stream_words.size() < 2000; ++id) {
    auto annotation = store.GetAnnotation(id);
    ASSERT_TRUE(annotation.ok());
    for (const Token& token : Tokenize((*annotation)->text)) {
      if (stream_words.size() == 2000) break;
      if (stream_words.insert(token.text).second) inputs.push_back(token.text);
    }
  }
  ASSERT_EQ(stream_words.size(), 2000u);
  // Random alphanumeric strings of length 1-40.
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  Rng rng(11);
  for (int n = 0; n < 2000; ++n) {
    std::string word(1 + rng.Uniform(40), ' ');
    for (char& c : word) c = alphabet[rng.Uniform(alphabet.size())];
    inputs.push_back(word);
  }

  size_t fuzzy = 0;
  for (const std::string& word : inputs) {
    const double expected = PairwiseSampleScore(meta.scoring(), *pname, word);
    ASSERT_EQ(meta.DomainMatchScore(word, *pname), expected)
        << "word of " << word.size() << " bytes: " << word.substr(0, 40);
    if (expected != meta.scoring().type_compatible &&
        pname->samples_lower.count(ToLower(word)) == 0) {
      ++fuzzy;
    }
  }
  // The inputs exercise the fuzzy bands, not just exact hits and misses.
  EXPECT_GT(fuzzy, 1000u);
}

TEST_F(MetaTest, ScoreWordEqualsScorersColdAndWarm) {
  Rng rng(7);
  ASSERT_TRUE(meta_.DrawColumnSamples(catalog_, 10, &rng).ok());
  ASSERT_FALSE(meta_.FindValueColumn("protein", "pname")->samples.empty());
  const std::vector<std::string> inputs = ScoreWordInputs();
  for (const std::string& word : inputs) {
    ExpectScoreWordMatchesScorers(meta_, word);
  }
  // Every input is memoized, the 1 MB token included.
  EXPECT_EQ(meta_.word_memo_size(), inputs.size());
  EXPECT_LE(meta_.word_memo_bytes(), NebulaMeta::kWordMemoBudgetBytes);
}

TEST_F(MetaTest, WordMemoNeverKeepsAWordLargerThanTheBudget) {
  (void)meta_.ScoreWord("gene");
  const std::string huge(NebulaMeta::kWordMemoBudgetBytes + 1, 'x');
  ExpectScoreWordMatchesScorers(meta_, huge);
  // Not kept, and the memo it would have overflowed is left alone.
  EXPECT_EQ(meta_.word_memo_size(), 1u);
  EXPECT_LE(meta_.word_memo_bytes(), NebulaMeta::kWordMemoBudgetBytes);
}

uint64_t WordMemoDrops(const std::string& reason) {
  return obs::MetricsRegistry::Global()
      .GetCounter("nebula_meta_word_memo_drops_total", {{"reason", reason}})
      ->Value();
}

TEST_F(MetaTest, WordMemoStaysWithinBudgetPastCapacity) {
  // Fixed-width words carry one charge each, so the memo fills after
  // exactly budget / charge of them and the next fill drops it whole.
  auto word = [](size_t i) { return StrFormat("word%07zu", i); };
  const uint64_t budget_drops = WordMemoDrops("budget");
  (void)meta_.ScoreWord(word(0));
  const size_t charge = meta_.word_memo_bytes();
  ASSERT_GT(charge, 0u);
  const size_t capacity = NebulaMeta::kWordMemoBudgetBytes / charge;
  size_t drops = 0;
  size_t last_size = meta_.word_memo_size();
  for (size_t i = 1; i < capacity + capacity / 2; ++i) {
    (void)meta_.ScoreWord(word(i));
    const size_t size = meta_.word_memo_size();
    if (size < last_size) {
      ++drops;
      EXPECT_EQ(i, capacity);
    }
    last_size = size;
    ASSERT_LE(meta_.word_memo_bytes(), NebulaMeta::kWordMemoBudgetBytes);
  }
  EXPECT_EQ(drops, 1u);
  EXPECT_EQ(meta_.word_memo_size(), capacity / 2);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(WordMemoDrops("budget") - budget_drops, drops);
  }
  ExpectScoreWordMatchesScorers(meta_, word(capacity + capacity / 2 - 1));
  ExpectScoreWordMatchesScorers(meta_, word(0));
}

TEST(WordMemoCapacityTest, HoldsTheVocabularyOfAMidShapedSchemaWithoutADrop) {
  // Every DatasetSpec shares the Mid schema: 8 schema items, 6 value
  // columns.
  auto dataset = GenerateBioDataset(DatasetSpec::Tiny());
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  const NebulaMeta& meta = (*dataset)->meta;
  ASSERT_EQ(meta.schema_items().size(), 8u);
  ASSERT_EQ(meta.value_columns().size(), 6u);

  const uint64_t budget_drops = WordMemoDrops("budget");
  constexpr size_t kWords = 25000;
  for (size_t i = 0; i < kWords; ++i) {
    (void)meta.ScoreWord(StrFormat("stream%06zu", i));
  }
  EXPECT_EQ(meta.word_memo_size(), kWords);
  EXPECT_LE(meta.word_memo_bytes(), NebulaMeta::kWordMemoBudgetBytes);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(WordMemoDrops("budget"), budget_drops);
  }
}

TEST_F(MetaTest, WordMemoDropsOnEveryMutator) {
  const std::vector<std::string> words = {
      // Concept words the alias mutators rescore.
      "gene", "locus", "family", "name", "enzyme",
      // Value words the pattern, ontology and sample mutators rescore.
      "F1", "JW0014", "JW00014", "kinase", "Actin"};
  Rng rng(7);
  const std::vector<std::pair<std::string, std::function<void()>>>
      mutators = {
          {"AddConcept",
           [&] {
             ASSERT_TRUE(meta_.AddConcept("Family", "gene", {{"family"}})
                             .ok());
           }},
          {"AddTableAlias", [&] { meta_.AddTableAlias("gene", "locus"); }},
          {"AddColumnAlias",
           [&] { meta_.AddColumnAlias("gene", "name", "enzyme"); }},
          {"SetColumnPattern",
           [&] {
             ASSERT_TRUE(
                 meta_.SetColumnPattern("gene", "gid", "JW[0-9]{5}").ok());
           }},
          {"SetColumnOntology",
           [&] {
             ASSERT_TRUE(
                 meta_.SetColumnOntology("protein", "ptype", {"enzyme"})
                     .ok());
           }},
          {"DrawColumnSamples",
           [&] {
             ASSERT_TRUE(meta_.DrawColumnSamples(catalog_, 10, &rng).ok());
           }},
      };
  for (const auto& [name, mutate] : mutators) {
    SCOPED_TRACE(name);
    const uint64_t version_drops = WordMemoDrops("version");
    const uint64_t budget_drops = WordMemoDrops("budget");
    // The lookup path: each mutator changes some word's scores, so a memo
    // that outlived it would fail the comparison.
    for (const std::string& w : words) (void)meta_.ScoreWord(w);
    const uint64_t before = meta_.version();
    mutate();
    EXPECT_GT(meta_.version(), before);
    for (const std::string& w : words) ExpectScoreWordMatchesScorers(meta_, w);
    // The drop itself, as the observers see it (every call bumps version).
    ASSERT_EQ(meta_.word_memo_size(), words.size());
    mutate();
    EXPECT_EQ(meta_.word_memo_size(), 0u);
    EXPECT_EQ(meta_.word_memo_bytes(), 0u);
    // One drop per mutation, each of a non-empty memo.
    if constexpr (obs::kEnabled) {
      EXPECT_EQ(WordMemoDrops("version") - version_drops, 2u);
      EXPECT_EQ(WordMemoDrops("budget"), budget_drops);
    }
  }
}

TEST_F(MetaTest, WordMemoIsDerivedStateOnCopyMoveAndLoad) {
  (void)meta_.ScoreWord("gene");
  ASSERT_EQ(meta_.word_memo_size(), 1u);

  NebulaMeta copy(meta_);
  EXPECT_EQ(copy.word_memo_size(), 0u);
  EXPECT_EQ(meta_.word_memo_size(), 1u);
  ExpectScoreWordMatchesScorers(copy, "gene");

  NebulaMeta target;
  (void)target.ScoreWord("gene");
  ASSERT_EQ(target.word_memo_size(), 1u);
  target = std::move(copy);
  EXPECT_EQ(target.word_memo_size(), 0u);
  ExpectScoreWordMatchesScorers(target, "gene");

  // A snapshot blob never carries the memo, and loading drops whatever
  // the fresh meta memoized — even when the blob restores the version
  // the memo was filled under.
  std::string blob = durability::MetaSerializer::SaveToString(meta_);
  const size_t tab = blob.rfind('\t', blob.find('\n'));
  blob = blob.substr(0, tab + 1) + "0" + blob.substr(blob.find('\n'));
  NebulaMeta loaded;
  (void)loaded.ScoreWord("gene");
  ASSERT_EQ(loaded.word_memo_size(), 1u);
  ASSERT_TRUE(durability::MetaSerializer::LoadFromString(blob, &loaded).ok());
  EXPECT_EQ(loaded.version(), 0u);
  EXPECT_EQ(loaded.word_memo_size(), 0u);
  ExpectScoreWordMatchesScorers(loaded, "gene");
}

TEST_F(MetaTest, WordMemoFillFaultServesColdScores) {
  {
    ScopedFault fault(kFaultMetaWordMemoFill);
    ExpectScoreWordMatchesScorers(meta_, "gene");
    ExpectScoreWordMatchesScorers(meta_, "JW0014");
    EXPECT_GT(FaultRegistry::Global().FireCount(kFaultMetaWordMemoFill), 0u);
    EXPECT_EQ(meta_.word_memo_size(), 0u);
  }
  (void)meta_.ScoreWord("gene");
  EXPECT_EQ(meta_.word_memo_size(), 1u);
}

}  // namespace
}  // namespace nebula
