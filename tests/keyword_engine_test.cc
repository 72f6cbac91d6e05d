#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/fault_points.h"
#include "common/random.h"
#include "keyword/engine.h"
#include "keyword/mini_db.h"
#include "keyword/query_types.h"
#include "meta/nebula_meta.h"
#include "storage/catalog.h"
#include "storage/query.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace nebula {
namespace {

/// Fixture: a small Figure-1-style database with gene / protein /
/// publication tables, ConceptRefs metadata, and the publication abstracts
/// declared a text column.
class KeywordEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gene_ = *catalog_.CreateTable(
        "gene", Schema({{"gid", DataType::kString, true},
                        {"name", DataType::kString, true},
                        {"family", DataType::kString}}));
    protein_ = *catalog_.CreateTable(
        "protein", Schema({{"pid", DataType::kString, true},
                           {"pname", DataType::kString},
                           {"ptype", DataType::kString}}));
    pub_ = *catalog_.CreateTable(
        "publication", Schema({{"pubid", DataType::kString, true},
                               {"abstract", DataType::kString}}));

    auto add_gene = [&](const char* gid, const char* name, const char* fam) {
      ASSERT_TRUE(gene_->Insert({Value(gid), Value(name), Value(fam)}).ok());
    };
    add_gene("JW0013", "grpC", "F1");
    add_gene("JW0014", "groP", "F6");
    add_gene("JW0019", "yaaB", "F3");
    ASSERT_TRUE(
        protein_->Insert({Value("P00001"), Value("Actin"), Value("kinase")})
            .ok());
    ASSERT_TRUE(protein_
                    ->Insert({Value("P00002"), Value("Actin"),
                              Value("receptor")})
                    .ok());
    ASSERT_TRUE(pub_->Insert({Value("PUB1"),
                              Value("study of gene JW0014 expression")})
                    .ok());
    ASSERT_TRUE(pub_->Insert({Value("PUB2"),
                              Value("growth rate analysis methods")})
                    .ok());
    ASSERT_TRUE(pub_->DeclareTextColumn(1).ok());

    ASSERT_TRUE(meta_.AddConcept("Gene", "gene", {{"gid"}, {"name"}}).ok());
    ASSERT_TRUE(
        meta_.AddConcept("Protein", "protein", {{"pid"}, {"pname", "ptype"}})
            .ok());
    ASSERT_TRUE(meta_.SetColumnPattern("gene", "gid", "JW[0-9]{4}").ok());
    ASSERT_TRUE(meta_.SetColumnPattern("gene", "name", "[a-z]{3}[A-Z]").ok());
    ASSERT_TRUE(meta_.SetColumnPattern("protein", "pid", "P[0-9]{5}").ok());
    ASSERT_TRUE(meta_
                    .SetColumnOntology("protein", "ptype",
                                       {"kinase", "receptor"})
                    .ok());
    Rng rng(3);
    ASSERT_TRUE(meta_.DrawColumnSamples(catalog_, 10, &rng).ok());
    engine_ = std::make_unique<KeywordSearchEngine>(&catalog_, &meta_);
  }

  bool HasMapping(const std::vector<KeywordMapping>& ms,
                  KeywordMapping::Kind kind, const std::string& table,
                  const std::string& column = "") {
    for (const auto& m : ms) {
      if (m.kind == kind && m.table == table &&
          (column.empty() || m.column == column)) {
        return true;
      }
    }
    return false;
  }

  Catalog catalog_;
  NebulaMeta meta_;
  Table* gene_ = nullptr;
  Table* protein_ = nullptr;
  Table* pub_ = nullptr;
  std::unique_ptr<KeywordSearchEngine> engine_;
};

TEST_F(KeywordEngineTest, MapKeywordTableName) {
  const auto ms = engine_->MapKeyword("gene");
  EXPECT_TRUE(HasMapping(ms, KeywordMapping::Kind::kTableName, "gene"));
}

TEST_F(KeywordEngineTest, MapKeywordColumnName) {
  const auto ms = engine_->MapKeyword("gid");
  EXPECT_TRUE(
      HasMapping(ms, KeywordMapping::Kind::kColumnName, "gene", "gid"));
}

TEST_F(KeywordEngineTest, MapKeywordValueByPattern) {
  const auto ms = engine_->MapKeyword("JW0013");
  ASSERT_FALSE(ms.empty());
  EXPECT_TRUE(HasMapping(ms, KeywordMapping::Kind::kValue, "gene", "gid"));
  // Best mapping should be the declared gid column, not the abstract.
  EXPECT_EQ(ms[0].column, "gid");
  EXPECT_TRUE(ms[0].exact_value);
}

TEST_F(KeywordEngineTest, MapKeywordTextIndexContainment) {
  const auto ms = engine_->MapKeyword("expression");
  EXPECT_TRUE(HasMapping(ms, KeywordMapping::Kind::kValue, "publication",
                         "abstract"));
  for (const auto& m : ms) {
    if (m.table == "publication") {
      EXPECT_FALSE(m.exact_value);
    }
  }
}

TEST_F(KeywordEngineTest, MapKeywordUnknownWordEmpty) {
  EXPECT_TRUE(engine_->MapKeyword("zzzzqqq").empty());
}

TEST_F(KeywordEngineTest, MappingsRespectCap) {
  engine_->params().max_mappings_per_keyword = 1;
  EXPECT_LE(engine_->MapKeyword("JW0014").size(), 1u);
}

TEST_F(KeywordEngineTest, MappingsRespectThreshold) {
  engine_->params().min_mapping_score = 0.95;
  // Pattern-based value mapping scores ~0.9 + unique boost; threshold cuts
  // the text-column mapping but keeps the strong one.
  const auto ms = engine_->MapKeyword("JW0014");
  for (const auto& m : ms) EXPECT_GE(m.score, 0.95);
}

TEST_F(KeywordEngineTest, CompileProducesValueSql) {
  const auto plan = engine_->CompileToSql({{"gene", "JW0013"}, 1.0, ""});
  bool has_gid_eq = false;
  for (const auto& sql : plan) {
    if (sql.query.table == "gene" && sql.query.predicates.size() == 1 &&
        sql.query.predicates[0].column == "gid" &&
        sql.query.predicates[0].op == CompareOp::kEq) {
      has_gid_eq = true;
      EXPECT_GT(sql.confidence, 0.8);
    }
  }
  EXPECT_TRUE(has_gid_eq);
}

TEST_F(KeywordEngineTest, TableContextBoostsConfidence) {
  const auto with_context = engine_->CompileToSql({{"gene", "JW0013"}, 1.0, ""});
  const auto without = engine_->CompileToSql({{"JW0013"}, 1.0, ""});
  double conf_with = 0, conf_without = 0;
  for (const auto& sql : with_context) {
    if (sql.query.table == "gene") conf_with = std::max(conf_with, sql.confidence);
  }
  for (const auto& sql : without) {
    if (sql.query.table == "gene") conf_without = std::max(conf_without, sql.confidence);
  }
  EXPECT_GT(conf_with, conf_without);
}

TEST_F(KeywordEngineTest, ComboSqlForDeclaredColumnPairs) {
  const auto plan =
      engine_->CompileToSql({{"protein", "Actin", "kinase"}, 1.0, ""});
  bool has_combo = false;
  for (const auto& sql : plan) {
    if (sql.query.table == "protein" && sql.query.predicates.size() == 2) {
      has_combo = true;
    }
  }
  EXPECT_TRUE(has_combo);
}

TEST_F(KeywordEngineTest, CompileDeduplicatesStatements) {
  // The same keyword twice must not produce duplicate SQL.
  const auto plan = engine_->CompileToSql({{"JW0013", "JW0013"}, 1.0, ""});
  std::set<std::string> keys;
  for (const auto& sql : plan) {
    EXPECT_TRUE(keys.insert(sql.CanonicalKey()).second);
  }
}

TEST_F(KeywordEngineTest, SearchFindsGeneByIdAndName) {
  auto hits = *engine_->Search({{"gene", "JW0014"}, 1.0, ""});
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].tuple.table_id, gene_->id());
  EXPECT_EQ(hits[0].tuple.row, 1u);

  hits = *engine_->Search({{"gene", "grpC"}, 1.0, ""});
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].tuple.row, 0u);
}

TEST_F(KeywordEngineTest, SearchComboIdentifiesProtein) {
  const auto hits = *engine_->Search({{"protein", "Actin", "kinase"}, 1.0, ""});
  ASSERT_FALSE(hits.empty());
  // The kinase Actin (row 0) must rank above the receptor Actin (row 1):
  // only it satisfies the two-column combo statement.
  EXPECT_EQ(hits[0].tuple.table_id, protein_->id());
  EXPECT_EQ(hits[0].tuple.row, 0u);
}

TEST_F(KeywordEngineTest, SearchHitsCarryQueryIndependentConfidences) {
  const auto hits = *engine_->Search({{"gene", "JW0014"}, 1.0, ""});
  for (const auto& h : hits) {
    EXPECT_GT(h.confidence, 0.0);
    EXPECT_LE(h.confidence, 1.0);
  }
}

TEST_F(KeywordEngineTest, SearchAlsoSurfacesPublicationMentions) {
  // "JW0014" appears in PUB1's abstract: the text-column mapping should
  // surface that publication, at lower confidence than the gene itself.
  const auto hits = *engine_->Search({{"JW0014"}, 1.0, ""});
  bool gene_hit = false, pub_hit = false;
  double gene_conf = 0, pub_conf = 0;
  for (const auto& h : hits) {
    if (h.tuple.table_id == gene_->id()) {
      gene_hit = true;
      gene_conf = h.confidence;
    }
    if (h.tuple.table_id == pub_->id()) {
      pub_hit = true;
      pub_conf = h.confidence;
    }
  }
  EXPECT_TRUE(gene_hit);
  EXPECT_TRUE(pub_hit);
  EXPECT_GT(gene_conf, pub_conf);
}

TEST_F(KeywordEngineTest, MiniDbRestrictsSearch) {
  MiniDb mini;
  mini.Add({gene_->id(), 0});  // only grpC's row allowed
  const auto hits = *engine_->Search({{"gene", "JW0014"}, 1.0, ""}, &mini);
  for (const auto& h : hits) {
    EXPECT_TRUE(mini.Contains(h.tuple));
  }
  // JW0014 is row 1, outside the mini DB: no gene hits at all.
  EXPECT_TRUE(hits.empty());
}

TEST_F(KeywordEngineTest, MiniDbAllowsContainedRows) {
  MiniDb mini;
  mini.Add({gene_->id(), 1});
  const auto hits = *engine_->Search({{"gene", "JW0014"}, 1.0, ""}, &mini);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].tuple.row, 1u);
}

TEST(MiniDbTest, AddKeepsEachTableSortedAndUnique) {
  MiniDb mini;
  for (uint64_t row : {7u, 2u, 9u, 2u, 0u, 7u, 9u, 5u}) mini.Add({1, row});
  mini.Add({3, 4});
  mini.Add({3, 4});
  ASSERT_NE(mini.ForTable(1), nullptr);
  EXPECT_EQ(*mini.ForTable(1), (std::vector<Table::RowId>{0, 2, 5, 7, 9}));
  ASSERT_NE(mini.ForTable(3), nullptr);
  EXPECT_EQ(*mini.ForTable(3), (std::vector<Table::RowId>{4}));
  EXPECT_EQ(mini.size(), 6u);
}

TEST(MiniDbTest, ForTableIsNullWithoutRows) {
  MiniDb mini;
  EXPECT_EQ(mini.ForTable(0), nullptr);
  EXPECT_TRUE(mini.empty());
  mini.Add({2, 1});
  EXPECT_EQ(mini.ForTable(0), nullptr);  // below an added id, no rows
  EXPECT_EQ(mini.ForTable(1), nullptr);
  EXPECT_NE(mini.ForTable(2), nullptr);
  EXPECT_EQ(mini.ForTable(3), nullptr);  // past every id added
  EXPECT_EQ(mini.ForTable(1000), nullptr);
  EXPECT_FALSE(mini.Contains({3, 1}));
}

TEST(MiniDbTest, ContainsAndSizeAgreeWithSetOracle) {
  Rng rng(17);
  MiniDb mini;
  std::set<TupleId> oracle;
  for (int i = 0; i < 400; ++i) {
    const TupleId id{static_cast<uint32_t>(rng.Uniform(4)), rng.Uniform(60)};
    mini.Add(id);
    oracle.insert(id);
    ASSERT_EQ(mini.size(), oracle.size());
  }
  for (uint32_t table = 0; table < 6; ++table) {
    for (uint64_t row = 0; row < 64; ++row) {
      EXPECT_EQ(mini.Contains({table, row}), oracle.count({table, row}) > 0)
          << table << ":" << row;
    }
  }
}

TEST_F(KeywordEngineTest, MergeHitsKeepsMaxPerTuple) {
  const TupleId t{0, 0};
  const auto merged =
      KeywordSearchEngine::MergeHits({{t, 0.3}, {t, 0.8}, {{1, 1}, 0.5}});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_DOUBLE_EQ(merged[0].confidence, 0.8);
  EXPECT_EQ(merged[0].tuple, t);
}

TEST_F(KeywordEngineTest, MergeHitsSortedByConfidenceThenTuple) {
  const auto merged = KeywordSearchEngine::MergeHits(
      {{{0, 2}, 0.5}, {{0, 1}, 0.5}, {{0, 3}, 0.9}});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].tuple.row, 3u);
  EXPECT_EQ(merged[1].tuple.row, 1u);
  EXPECT_EQ(merged[2].tuple.row, 2u);
}

TEST_F(KeywordEngineTest, StatsAccumulate) {
  engine_->ResetStats();
  ASSERT_TRUE(engine_->Search({{"gene", "JW0014"}, 1.0, ""}).ok());
  EXPECT_GT(engine_->stats().index_lookups, 0u);
}

TEST_F(KeywordEngineTest, ConstSearchOverwritesReusedStats) {
  // Regression: the const out-param paths must OVERWRITE `*stats`. When
  // they accumulated instead, a caller reusing one ExecStats across calls
  // and folding each result with AccumulateStats double-folded every
  // earlier call's counters.
  const KeywordQuery query{{"gene", "JW0014"}, 1.0, ""};

  ExecStats once;
  ASSERT_TRUE(engine_->Search(query, nullptr, &once).ok());
  ASSERT_GT(once.index_lookups, 0u);

  // Same query twice through the same (never Reset) ExecStats, folding
  // after each call — exactly the usage the overwrite contract protects.
  engine_->ResetStats();
  ExecStats reused;
  ASSERT_TRUE(engine_->Search(query, nullptr, &reused).ok());
  engine_->AccumulateStats(reused);
  ASSERT_TRUE(engine_->Search(query, nullptr, &reused).ok());
  engine_->AccumulateStats(reused);
  EXPECT_EQ(reused.index_lookups, once.index_lookups);
  EXPECT_EQ(reused.rows_examined, once.rows_examined);
  EXPECT_EQ(engine_->stats().index_lookups, 2 * once.index_lookups);
  EXPECT_EQ(engine_->stats().rows_examined, 2 * once.rows_examined);
}

TEST_F(KeywordEngineTest, ConstExecuteRowsOverwritesReusedStats) {
  const KeywordQuery query{{"gene", "JW0014"}, 1.0, ""};
  const auto plan = engine_->CompileToSql(query);
  ASSERT_FALSE(plan.empty());

  ExecStats once;
  ASSERT_TRUE(engine_->ExecuteRows(plan[0], nullptr, &once).ok());

  ExecStats reused;
  ASSERT_TRUE(engine_->ExecuteRows(plan[0], nullptr, &reused).ok());
  ASSERT_TRUE(engine_->ExecuteRows(plan[0], nullptr, &reused).ok());
  EXPECT_EQ(reused.rows_examined, once.rows_examined);
  EXPECT_EQ(reused.index_lookups, once.index_lookups);
}

TEST_F(KeywordEngineTest, MappingCacheYieldsIdenticalPlans) {
  const KeywordQuery q1{{"gene", "JW0013"}, 1.0, ""};
  const KeywordQuery q2{{"gene", "grpC"}, 1.0, ""};
  KeywordSearchEngine::MappingCache cache;
  const auto plain1 = engine_->CompileToSql(q1);
  const auto cached1 = engine_->CompileToSql(q1, &cache);
  const auto cached2 = engine_->CompileToSql(q2, &cache);  // reuses "gene"
  const auto plain2 = engine_->CompileToSql(q2);
  ASSERT_EQ(plain1.size(), cached1.size());
  for (size_t i = 0; i < plain1.size(); ++i) {
    EXPECT_EQ(plain1[i].CanonicalKey(), cached1[i].CanonicalKey());
    EXPECT_DOUBLE_EQ(plain1[i].confidence, cached1[i].confidence);
  }
  ASSERT_EQ(plain2.size(), cached2.size());
  for (size_t i = 0; i < plain2.size(); ++i) {
    EXPECT_EQ(plain2[i].CanonicalKey(), cached2[i].CanonicalKey());
  }
  // The cache holds one entry per distinct keyword.
  EXPECT_EQ(cache.size(), 3u);
}

/// MapKeyword's output for `words` and the plan for the whole sequence,
/// scores and confidences as exact hex floats.
std::string RenderMappingsAndPlan(const KeywordSearchEngine& engine,
                                  const std::vector<std::string>& words) {
  std::string out;
  char score[32];
  for (const std::string& w : words) {
    out += w + ":";
    for (const KeywordMapping& m : engine.MapKeyword(w)) {
      std::snprintf(score, sizeof(score), "%a", m.score);
      out += " " + std::to_string(static_cast<int>(m.kind)) + "/" + m.table +
             "." + m.column + (m.exact_value ? "=" : "~") + score;
    }
    out += "\n";
  }
  for (const GeneratedSql& sql : engine.CompileToSql({words, 1.0, ""})) {
    std::snprintf(score, sizeof(score), "%a", sql.confidence);
    out += sql.CanonicalKey() + " " + score + "\n";
  }
  return out;
}

TEST_F(KeywordEngineTest, MapKeywordIdenticalColdWarmAndWithMemoFillRefused) {
  const std::vector<std::string> words = {
      // Schema names and declared values, in two cases.
      "gene", "GENE", "protein", "JW0014", "jw0014", "grpC", "Actin", "kinase",
      "P00001",
      // Text-index words, a stopword and a miss.
      "expression", "growth", "the", "nomatch"};
  ASSERT_EQ(meta_.word_memo_size(), 0u);
  const std::string cold = RenderMappingsAndPlan(*engine_, words);
  EXPECT_GT(meta_.word_memo_size(), 0u);
  EXPECT_NE(cold.find("JW0014: 2/gene.gid="), std::string::npos) << cold;
  EXPECT_NE(cold.find("expression: 2/publication.abstract~"),
            std::string::npos)
      << cold;
  EXPECT_EQ(RenderMappingsAndPlan(*engine_, words), cold);

  NebulaMeta memo_less(meta_);
  const KeywordSearchEngine engine(&catalog_, &memo_less);
  ScopedFault fault(kFaultMetaWordMemoFill);
  EXPECT_EQ(RenderMappingsAndPlan(engine, words), cold);
  EXPECT_EQ(memo_less.word_memo_size(), 0u);
}

TEST_F(KeywordEngineTest, ScanContainmentModeSameAnswersMoreWork) {
  KeywordSearchParams scan_params;
  scan_params.scan_containment = true;
  KeywordSearchEngine scan_engine(&catalog_, &meta_, scan_params);
  const KeywordQuery q{{"expression"}, 1.0, ""};
  const auto indexed = *engine_->Search(q);
  const auto scanned = *scan_engine.Search(q);
  ASSERT_EQ(indexed.size(), scanned.size());
  for (size_t i = 0; i < indexed.size(); ++i) {
    EXPECT_EQ(indexed[i].tuple, scanned[i].tuple);
    EXPECT_DOUBLE_EQ(indexed[i].confidence, scanned[i].confidence);
  }
  EXPECT_GT(scan_engine.stats().rows_examined,
            engine_->stats().rows_examined);
}

TEST_F(KeywordEngineTest, GeneratedSqlCanonicalKeyOrderInsensitive) {
  GeneratedSql a;
  a.query.table = "gene";
  a.query.predicates = {{"gid", CompareOp::kEq, Value("x")},
                        {"name", CompareOp::kEq, Value("y")}};
  GeneratedSql b;
  b.query.table = "GENE";
  b.query.predicates = {{"name", CompareOp::kEq, Value("y")},
                        {"gid", CompareOp::kEq, Value("x")}};
  EXPECT_EQ(a.CanonicalKey(), b.CanonicalKey());
  EXPECT_TRUE(a.SameStatement(b));
  EXPECT_EQ(a.StructuralHash(), b.StructuralHash());
}

TEST(GeneratedSqlIdentityTest, StructuralIdentityComparesEveryField) {
  auto sql = [](std::vector<Predicate> preds) {
    GeneratedSql s;
    s.query.table = "m";
    s.query.predicates = std::move(preds);
    return s;
  };
  const GeneratedSql base = sql({{"mass", CompareOp::kEq, Value(1.5)}});
  const double nan = std::nan("");
  const std::vector<GeneratedSql> different = {
      sql({{"mass", CompareOp::kEq, Value(1.5000001)}}),
      sql({{"mass", CompareOp::kNe, Value(1.5)}}),
      sql({{"weight", CompareOp::kEq, Value(1.5)}}),
      sql({{"mass", CompareOp::kEq, Value("1.5")}}),
      sql({{"mass", CompareOp::kEq, Value(1.5)},
           {"mass", CompareOp::kEq, Value(1.5)}}),
      sql({}),
  };
  for (const GeneratedSql& d : different) {
    EXPECT_FALSE(base.SameStatement(d)) << d.query.ToSqlString();
    EXPECT_FALSE(d.SameStatement(base)) << d.query.ToSqlString();
  }
  GeneratedSql other_table = base;
  other_table.query.table = "n";
  EXPECT_FALSE(base.SameStatement(other_table));
  // Doubles compare by bit pattern: -0.0 is not 0.0, and NaN equals
  // itself.
  const GeneratedSql zero = sql({{"mass", CompareOp::kEq, Value(0.0)}});
  EXPECT_FALSE(
      zero.SameStatement(sql({{"mass", CompareOp::kEq, Value(-0.0)}})));
  const GeneratedSql a = sql({{"mass", CompareOp::kEq, Value(nan)}});
  const GeneratedSql b = sql({{"mass", CompareOp::kEq, Value(nan)}});
  EXPECT_TRUE(a.SameStatement(b));
  EXPECT_EQ(a.StructuralHash(), b.StructuralHash());
  // Multisets: {x, x, y} is not {x, y, y}.
  const Predicate x{"c", CompareOp::kEq, Value(int64_t{1})};
  const Predicate y{"c", CompareOp::kEq, Value(int64_t{2})};
  EXPECT_FALSE(sql({x, x, y}).SameStatement(sql({x, y, y})));
  EXPECT_TRUE(sql({x, y, x}).SameStatement(sql({x, x, y})));
  EXPECT_EQ(sql({x, y, x}).StructuralHash(), sql({x, x, y}).StructuralHash());
}

// Two double literals that print alike under Value::ToString's "%.6g" are
// two statements. Deduplicating by CanonicalKey kept only the first, and
// the search lost the second row.
TEST(GeneratedSqlIdentityTest, DistinctDoubleLiteralsFindBothRows) {
  Catalog catalog;
  Table* m = *catalog.CreateTable(
      "m", Schema({{"id", DataType::kString, true},
                   {"mass", DataType::kDouble}}));
  ASSERT_TRUE(m->Insert({Value("r0"), Value(1.0000001)}).ok());
  ASSERT_TRUE(m->Insert({Value("r1"), Value(1.0000002)}).ok());
  NebulaMeta meta;
  ASSERT_TRUE(meta.AddConcept("M", "m", {{"mass"}}).ok());
  ASSERT_TRUE(meta.SetColumnPattern("m", "mass", "[0-9]+\\.[0-9]+").ok());
  KeywordSearchEngine engine(&catalog, &meta);

  const KeywordQuery query{{"1.0000001", "1.0000002"}, 1.0, ""};
  const std::vector<GeneratedSql> plan = engine.CompileToSql(query);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].CanonicalKey(), plan[1].CanonicalKey());
  EXPECT_FALSE(plan[0].SameStatement(plan[1]));

  const auto hits = *engine.Search(query);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ((std::set<TupleId>{hits[0].tuple, hits[1].tuple}),
            (std::set<TupleId>{{m->id(), 0}, {m->id(), 1}}));
}

}  // namespace
}  // namespace nebula
