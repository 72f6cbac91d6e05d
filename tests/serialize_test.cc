#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "annotation/annotation_store.h"
#include "annotation/serialize.h"
#include "common/status.h"
#include "core/engine.h"
#include "meta/nebula_meta.h"
#include "sql/session.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "storage/value.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace nebula {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("nebula_serialize_test_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Builds a small annotated database.
  void Populate(Catalog* catalog, AnnotationStore* store) {
    Table* gene = *catalog->CreateTable(
        "gene", Schema({{"gid", DataType::kString, true},
                        {"length", DataType::kInt64},
                        {"score", DataType::kDouble}}));
    Table* protein = *catalog->CreateTable(
        "protein", Schema({{"pid", DataType::kString, true},
                           {"gene_gid", DataType::kString}}));
    ASSERT_TRUE(gene->Insert({Value("JW0001"), Value(int64_t{100}),
                              Value(0.125)})
                    .ok());
    ASSERT_TRUE(gene->Insert({Value("JW0002"), Value(int64_t{-7}),
                              Value(1.0 / 3.0)})
                    .ok());
    ASSERT_TRUE(protein->Insert({Value("P00001"), Value("JW0001")}).ok());
    ASSERT_TRUE(
        catalog->AddForeignKey("protein", "gene_gid", "gene", "gid").ok());

    const AnnotationId a =
        store->AddAnnotation("text with\ttab and\nnewline", "alice");
    const AnnotationId b = store->AddAnnotation("plain", "");
    ASSERT_TRUE(store->Attach(a, {gene->id(), 0}).ok());
    ASSERT_TRUE(store->Attach(a, {protein->id(), 0}).ok());
    ASSERT_TRUE(
        store->Attach(b, {gene->id(), 1}, AttachmentType::kPredicted, 0.625)
            .ok());
  }

  std::filesystem::path dir_;
};

TEST_F(SerializeTest, EscapeRoundTrip) {
  const std::string nasty = "a\tb\nc\rd\\e'f";
  EXPECT_EQ(UnescapeField(EscapeField(nasty)), nasty);
  EXPECT_EQ(EscapeField("plain"), "plain");
  EXPECT_EQ(UnescapeField("plain"), "plain");
  // Escaped form contains no raw separators.
  EXPECT_EQ(EscapeField(nasty).find('\t'), std::string::npos);
  EXPECT_EQ(EscapeField(nasty).find('\n'), std::string::npos);
}

TEST_F(SerializeTest, SaveLoadRoundTripsCatalog) {
  Catalog catalog;
  AnnotationStore store;
  Populate(&catalog, &store);
  ASSERT_TRUE(DatabaseSerializer::Save(dir_.string(), catalog, &store).ok());

  Catalog loaded;
  AnnotationStore loaded_store;
  ASSERT_TRUE(
      DatabaseSerializer::Load(dir_.string(), &loaded, &loaded_store).ok());

  ASSERT_EQ(loaded.num_tables(), 2u);
  const Table* gene = *loaded.GetTable("gene");
  ASSERT_EQ(gene->num_rows(), 2u);
  EXPECT_EQ(gene->GetCell(0, 0), Value("JW0001"));
  EXPECT_EQ(gene->GetCell(1, 1), Value(int64_t{-7}));
  EXPECT_EQ(gene->GetCell(1, 2), Value(1.0 / 3.0));  // exact round trip
  EXPECT_TRUE(gene->schema().column(0).unique);
  EXPECT_FALSE(gene->schema().column(1).unique);

  ASSERT_EQ(loaded.foreign_keys().size(), 1u);
  const ForeignKey& fk = loaded.foreign_keys()[0];
  EXPECT_EQ(fk.child_table, "protein");
  EXPECT_EQ(fk.child_column, "gene_gid");
  EXPECT_EQ(fk.parent_table, "gene");
  EXPECT_EQ(fk.parent_column, "gid");
  // The key still resolves after reload: protein row 0 references exactly
  // one gene.
  const Table* protein = *loaded.GetTable("protein");
  const int gene_gid = protein->schema().ColumnIndex("gene_gid");
  ASSERT_GE(gene_gid, 0);
  EXPECT_EQ(
      gene->Lookup("gid", protein->GetCell(0, static_cast<size_t>(gene_gid)))
          .size(),
      1u);
}

TEST_F(SerializeTest, SaveLoadRoundTripsAnnotations) {
  Catalog catalog;
  AnnotationStore store;
  Populate(&catalog, &store);
  ASSERT_TRUE(DatabaseSerializer::Save(dir_.string(), catalog, &store).ok());

  Catalog loaded;
  AnnotationStore loaded_store;
  ASSERT_TRUE(
      DatabaseSerializer::Load(dir_.string(), &loaded, &loaded_store).ok());

  ASSERT_EQ(loaded_store.num_annotations(), 2u);
  EXPECT_EQ((*loaded_store.GetAnnotation(0))->text,
            "text with\ttab and\nnewline");
  EXPECT_EQ((*loaded_store.GetAnnotation(0))->author, "alice");
  EXPECT_EQ(loaded_store.num_attachments(), 3u);
  const Table* gene = *loaded.GetTable("gene");
  const Attachment* predicted =
      loaded_store.FindAttachment(1, {gene->id(), 1});
  ASSERT_NE(predicted, nullptr);
  EXPECT_EQ(predicted->type, AttachmentType::kPredicted);
  EXPECT_DOUBLE_EQ(predicted->weight, 0.625);
}

TEST_F(SerializeTest, DoubleEdgeCasesRoundTripBitExact) {
  // The %.17g double encoding must round-trip every representable edge:
  // non-finite values (glibc prints nan/inf/-inf; strtod reads them
  // back), signed zero, both ends of the normal range, a denormal, and
  // fractions that need all 17 significant digits.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double values[] = {std::numeric_limits<double>::quiet_NaN(),
                           kInf,
                           -kInf,
                           0.0,
                           -0.0,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::denorm_min(),
                           0.1,
                           1.0 / 3.0,
                           0.1 + 0.2,
                           std::nextafter(1.0, 0.0)};
  Catalog catalog;
  Table* table = *catalog.CreateTable(
      "edge", Schema({{"d", DataType::kDouble}}));
  for (const double d : values) {
    ASSERT_TRUE(table->Insert({Value(d)}).ok());
  }
  ASSERT_TRUE(DatabaseSerializer::Save(dir_.string(), catalog).ok());

  Catalog loaded;
  ASSERT_TRUE(DatabaseSerializer::Load(dir_.string(), &loaded).ok());
  const Table* back = *loaded.GetTable("edge");
  ASSERT_EQ(back->num_rows(), std::size(values));
  for (size_t i = 0; i < std::size(values); ++i) {
    const double got = back->GetCell(i, 0).AsDouble();
    if (std::isnan(values[i])) {
      EXPECT_TRUE(std::isnan(got)) << "row " << i;
    } else {
      EXPECT_EQ(got, values[i]) << "row " << i;  // exact, not approximate
      EXPECT_EQ(std::signbit(got), std::signbit(values[i])) << "row " << i;
    }
  }
}

TEST_F(SerializeTest, StoreFilesRoundTripViaSaveStoreLoadStore) {
  // SaveStore/LoadStore are the snapshot half of the serializer: only
  // the annotations/attachments files, written into an existing
  // directory. Empty text, empty author, and full-precision attachment
  // weights must survive exactly.
  AnnotationStore store;
  const AnnotationId empty_text = store.AddAnnotation("", "author");
  const AnnotationId empty_author = store.AddAnnotation("some text", "");
  const AnnotationId both_empty = store.AddAnnotation("", "");
  const double weights[] = {0.1 + 0.2, 1.0 / 3.0,
                            std::nextafter(1.0, 0.0),
                            std::numeric_limits<double>::min()};
  for (size_t i = 0; i < std::size(weights); ++i) {
    ASSERT_TRUE(store
                    .Attach(empty_text, {0, i}, AttachmentType::kPredicted,
                            weights[i])
                    .ok());
  }
  ASSERT_TRUE(store.Attach(empty_author, {1, 0}).ok());
  std::filesystem::create_directories(dir_);
  ASSERT_TRUE(DatabaseSerializer::SaveStore(dir_.string(), store).ok());

  AnnotationStore loaded;
  ASSERT_TRUE(DatabaseSerializer::LoadStore(dir_.string(), &loaded).ok());
  ASSERT_EQ(loaded.num_annotations(), 3u);
  EXPECT_EQ((*loaded.GetAnnotation(empty_text))->text, "");
  EXPECT_EQ((*loaded.GetAnnotation(empty_text))->author, "author");
  EXPECT_EQ((*loaded.GetAnnotation(empty_author))->author, "");
  EXPECT_EQ((*loaded.GetAnnotation(both_empty))->text, "");
  ASSERT_EQ(loaded.num_attachments(), store.num_attachments());
  for (size_t i = 0; i < std::size(weights); ++i) {
    const Attachment* att = loaded.FindAttachment(empty_text, {0, i});
    ASSERT_NE(att, nullptr);
    EXPECT_EQ(att->weight, weights[i]);  // bit-exact through %.17g
  }

  // Loading into a non-empty store is refused, and a directory without
  // store files is a legal empty store.
  EXPECT_FALSE(DatabaseSerializer::LoadStore(dir_.string(), &loaded).ok());
  const auto empty_dir = dir_ / "empty";
  std::filesystem::create_directories(empty_dir);
  AnnotationStore none;
  ASSERT_TRUE(DatabaseSerializer::LoadStore(empty_dir.string(), &none).ok());
  EXPECT_EQ(none.num_annotations(), 0u);
}

/// Writes `annotations` and `attachments` store files into `dir`.
void WriteStoreFiles(const std::filesystem::path& dir,
                     const std::string& annotations,
                     const std::string& attachments) {
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "annotations") << annotations;
  std::ofstream(dir / "attachments") << attachments;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST_F(SerializeTest, MalformedStoreFieldsAreCorruption) {
  // Two annotations; each attachments line below breaks one field of the
  // well-formed line "0\t1\t2\tP\t0.5".
  const std::string annotations = "0\talice\tone\n1\tbob\ttwo\n";
  const std::pair<const char*, std::string> cases[] = {
      {"annotation id not a number", "x\t1\t2\tP\t0.5\n"},
      {"annotation id overflows", "18446744073709551616\t1\t2\tP\t0.5\n"},
      {"annotation id unknown", "7\t1\t2\tP\t0.5\n"},
      {"table id past uint32", "0\t4294967297\t1\tP\t0.5\n"},
      {"table id negative", "0\t-1\t2\tP\t0.5\n"},
      {"row trailing bytes", "0\t1\t2x\tP\t0.5\n"},
      {"row empty", "0\t1\t\tP\t0.5\n"},
      {"unknown type", "0\t1\t2\tX\t0.5\n"},
      {"weight nan", "0\t1\t2\tP\tnan\n"},
      {"weight inf", "0\t1\t2\tP\tinf\n"},
      {"weight trailing bytes", "0\t1\t2\tP\t0.5?\n"},
      {"weight outside (0,1)", "0\t1\t2\tP\t1.5\n"},
      {"duplicate attachment",
       "0\t1\t2\tP\t0.5\n0\t1\t2\tP\t0.25\n"},
      {"missing field", "0\t1\t2\tP\n"},
  };
  for (const auto& [what, attachments] : cases) {
    const auto dir = dir_ / "bad";
    std::filesystem::remove_all(dir);
    WriteStoreFiles(dir, annotations, attachments);
    AnnotationStore store;
    EXPECT_EQ(DatabaseSerializer::LoadStore(dir.string(), &store).code(),
              StatusCode::kCorruption)
        << what;
  }
  for (const std::string bad_id : {"x", "-1", "0 ", ""}) {
    const auto dir = dir_ / "bad_annotation";
    std::filesystem::remove_all(dir);
    WriteStoreFiles(dir, bad_id + "\talice\tone\n", "");
    AnnotationStore store;
    EXPECT_EQ(DatabaseSerializer::LoadStore(dir.string(), &store).code(),
              StatusCode::kCorruption)
        << "annotation id '" << bad_id << "'";
  }

  // The well-formed files load, and save back byte for byte.
  const std::string attachments =
      "0\t1\t2\tP\t0.5\n0\t4294967295\t18446744073709551615\tT\t1\n"
      "1\t0\t0\tP\t0.30000000000000004\n";
  const auto good = dir_ / "good";
  WriteStoreFiles(good, annotations, attachments);
  AnnotationStore store;
  ASSERT_TRUE(DatabaseSerializer::LoadStore(good.string(), &store).ok());
  EXPECT_EQ(store.num_annotations(), 2u);
  EXPECT_EQ(store.num_attachments(), 3u);
  const auto again = dir_ / "again";
  std::filesystem::create_directories(again);
  ASSERT_TRUE(DatabaseSerializer::SaveStore(again.string(), store).ok());
  EXPECT_EQ(ReadFile(again / "annotations"), annotations);
  EXPECT_EQ(ReadFile(again / "attachments"), attachments);
}

TEST_F(SerializeTest, MalformedManifestVersionAndCellsAreCorruption) {
  Catalog catalog;
  AnnotationStore store;
  Populate(&catalog, &store);
  ASSERT_TRUE(DatabaseSerializer::Save(dir_.string(), catalog).ok());
  const std::string manifest = ReadFile(dir_ / "MANIFEST");
  const std::string gene_rows = ReadFile(dir_ / "gene.rows");

  // A version with trailing bytes is Corruption; a well-formed unknown
  // one stays NotSupported.
  for (const auto& [header, code] :
       {std::pair<std::string, StatusCode>{"nebula-db\t1x",
                                           StatusCode::kCorruption},
        {"nebula-db\t", StatusCode::kCorruption},
        {"nebula-db\t-1", StatusCode::kCorruption},
        {"nebula-db\t2", StatusCode::kNotSupported}}) {
    std::ofstream(dir_ / "MANIFEST")
        << header << manifest.substr(manifest.find('\n'));
    Catalog loaded;
    EXPECT_EQ(DatabaseSerializer::Load(dir_.string(), &loaded).code(), code)
        << header;
  }
  std::ofstream(dir_ / "MANIFEST") << manifest;

  // gene is (gid string, length int64, score double).
  for (const std::string row :
       {"JW9\t99999999999999999999\t0.5", "JW9\t12abc\t0.5",
        "JW9\t+5\t0.5", "JW9\t5\t0.5x", "JW9\t5\tnan?", "JW9\t5\t0x1p3"}) {
    std::ofstream(dir_ / "gene.rows") << gene_rows << row << "\n";
    Catalog loaded;
    EXPECT_EQ(DatabaseSerializer::Load(dir_.string(), &loaded).code(),
              StatusCode::kCorruption)
        << row;
  }
  std::ofstream(dir_ / "gene.rows") << gene_rows;
  Catalog loaded;
  EXPECT_TRUE(DatabaseSerializer::Load(dir_.string(), &loaded).ok());
}

TEST_F(SerializeTest, CatalogOnlySave) {
  Catalog catalog;
  AnnotationStore store;
  Populate(&catalog, &store);
  ASSERT_TRUE(DatabaseSerializer::Save(dir_.string(), catalog).ok());
  Catalog loaded;
  ASSERT_TRUE(DatabaseSerializer::Load(dir_.string(), &loaded).ok());
  EXPECT_EQ(loaded.num_tables(), 2u);
}

TEST_F(SerializeTest, LoadIntoNonEmptyCatalogFails) {
  Catalog catalog;
  AnnotationStore store;
  Populate(&catalog, &store);
  ASSERT_TRUE(DatabaseSerializer::Save(dir_.string(), catalog).ok());
  Catalog not_empty;
  ASSERT_TRUE(
      not_empty.CreateTable("x", Schema({{"c", DataType::kInt64}})).ok());
  EXPECT_EQ(DatabaseSerializer::Load(dir_.string(), &not_empty).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, LoadMissingDirectoryFails) {
  Catalog catalog;
  EXPECT_EQ(
      DatabaseSerializer::Load("/nonexistent/nebula", &catalog).code(),
      StatusCode::kNotFound);
}

TEST_F(SerializeTest, CorruptManifestFails) {
  std::filesystem::create_directories(dir_);
  {
    std::ofstream out(dir_ / "MANIFEST");
    out << "not-a-nebula-db\n";
  }
  Catalog catalog;
  EXPECT_EQ(DatabaseSerializer::Load(dir_.string(), &catalog).code(),
            StatusCode::kCorruption);
}

TEST_F(SerializeTest, UnsupportedVersionFails) {
  std::filesystem::create_directories(dir_);
  {
    std::ofstream out(dir_ / "MANIFEST");
    out << "nebula-db\t999\n";
  }
  Catalog catalog;
  EXPECT_EQ(DatabaseSerializer::Load(dir_.string(), &catalog).code(),
            StatusCode::kNotSupported);
}

TEST_F(SerializeTest, LoadedDatabaseIsQueryable) {
  Catalog catalog;
  AnnotationStore store;
  Populate(&catalog, &store);
  ASSERT_TRUE(DatabaseSerializer::Save(dir_.string(), catalog, &store).ok());
  Catalog loaded;
  AnnotationStore loaded_store;
  ASSERT_TRUE(
      DatabaseSerializer::Load(dir_.string(), &loaded, &loaded_store).ok());
  // Unique index enforcement survives the round trip.
  Table* gene = *loaded.GetTable("gene");
  EXPECT_FALSE(gene->Insert({Value("JW0001"), Value(int64_t{1}),
                             Value(0.0)})
                   .ok());
  // Annotation propagation works on the loaded store.
  const auto propagated =
      loaded_store.Propagate({{gene->id(), 0}});
  ASSERT_EQ(propagated.size(), 1u);
  EXPECT_EQ(propagated[0].second.size(), 1u);
}

TEST_F(SerializeTest, GeneratedDatasetRoundTripsAndStaysQueryable) {
  // End-to-end: synthesize a dataset, persist it, reload it, and drive
  // the reloaded database through the SQL front-end and the Nebula
  // pipeline.
  DatasetSpec spec = DatasetSpec::Tiny();
  spec.num_genes = 150;
  spec.num_proteins = 90;
  spec.num_publications = 200;
  auto dataset = GenerateBioDataset(spec);
  ASSERT_TRUE(dataset.ok());
  ASSERT_TRUE(DatabaseSerializer::Save(dir_.string(), (*dataset)->catalog,
                                       &(*dataset)->store)
                  .ok());

  Catalog loaded;
  AnnotationStore loaded_store;
  ASSERT_TRUE(
      DatabaseSerializer::Load(dir_.string(), &loaded, &loaded_store).ok());
  EXPECT_EQ(loaded.TotalRows(), (*dataset)->catalog.TotalRows());
  EXPECT_EQ(loaded_store.num_attachments(),
            (*dataset)->store.num_attachments());

  // The loaded database needs its own meta (meta is configuration, not
  // data; re-declare it as the generator does).
  NebulaMeta meta;
  ASSERT_TRUE(meta.AddConcept("Gene", "gene", {{"gid"}, {"name"}}).ok());
  ASSERT_TRUE(meta.SetColumnPattern("gene", "gid", "JW[0-9]{5}").ok());
  ASSERT_TRUE(meta.SetColumnPattern("gene", "name", "[a-z]{3}[A-Z]").ok());
  NebulaEngine engine(&loaded, &loaded_store, &meta);
  engine.RebuildAcg();
  EXPECT_GT(engine.acg().num_nodes(), 0u);

  sql::SqlSession session(&engine);
  auto tables = session.Execute("SHOW TABLES");
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ(tables->rows.size(), 5u);
  auto join = session.Execute(
      "SELECT gene.gid, protein.pid FROM protein JOIN gene");
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join->rows.size(), 90u);

  // The Nebula pipeline works against the reloaded data: annotate a gene
  // by referencing another gene's gid.
  const Table* gene = *loaded.GetTable("gene");
  const std::string target_gid = gene->GetCell(5, 0).AsString();
  auto report = engine.InsertAnnotation("see gene " + target_gid,
                                        {{gene->id(), 0}}, "it");
  ASSERT_TRUE(report.ok());
  bool found = false;
  for (const auto& c : report->candidates) {
    if (c.tuple.table_id == gene->id() && c.tuple.row == 5) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace nebula
