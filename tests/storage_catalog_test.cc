#include <gtest/gtest.h>

#include "common/status.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "storage/value.h"

namespace nebula {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .CreateTable("gene",
                                 Schema({{"gid", DataType::kString, true},
                                         {"name", DataType::kString}}))
                    .ok());
    ASSERT_TRUE(catalog_
                    .CreateTable("protein",
                                 Schema({{"pid", DataType::kString, true},
                                         {"gene_gid", DataType::kString}}))
                    .ok());
  }

  Catalog catalog_;
};

TEST_F(CatalogTest, CreateAndGet) {
  EXPECT_EQ(catalog_.num_tables(), 2u);
  ASSERT_TRUE(catalog_.GetTable("gene").ok());
  ASSERT_TRUE(catalog_.GetTable("GENE").ok());  // case-insensitive
  EXPECT_TRUE(catalog_.HasTable("protein"));
  EXPECT_FALSE(catalog_.HasTable("publication"));
  EXPECT_EQ(catalog_.GetTable("nope").status().code(), StatusCode::kNotFound);
}

TEST_F(CatalogTest, DuplicateTableRejected) {
  auto r = catalog_.CreateTable("Gene", Schema({{"x", DataType::kInt64}}));
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(CatalogTest, GetTableById) {
  const Table* gene = *catalog_.GetTable("gene");
  EXPECT_EQ(catalog_.GetTableById(gene->id()), gene);
}

TEST_F(CatalogTest, ForeignKeyValidation) {
  EXPECT_TRUE(
      catalog_.AddForeignKey("protein", "gene_gid", "gene", "gid").ok());
  EXPECT_EQ(catalog_.AddForeignKey("protein", "nope", "gene", "gid").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog_.AddForeignKey("protein", "gene_gid", "nope", "gid")
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog_.foreign_keys().size(), 1u);
}

TEST_F(CatalogTest, ForeignKeysOf) {
  ASSERT_TRUE(
      catalog_.AddForeignKey("protein", "gene_gid", "gene", "gid").ok());
  EXPECT_EQ(catalog_.ForeignKeysOf("gene").size(), 1u);
  EXPECT_EQ(catalog_.ForeignKeysOf("protein").size(), 1u);
  EXPECT_TRUE(catalog_.ForeignKeysOf("other").empty());
}

TEST_F(CatalogTest, TotalRows) {
  Table* gene = *catalog_.GetTable("gene");
  ASSERT_TRUE(gene->Insert({Value("JW0001"), Value("aaaA")}).ok());
  EXPECT_EQ(catalog_.TotalRows(), 1u);
}

}  // namespace
}  // namespace nebula
