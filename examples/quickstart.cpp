/// Quickstart: the paper's Figure 1 scenario in ~100 lines.
///
/// Builds a small gene/protein database, registers the NebulaMeta
/// knowledge (ConceptRefs, value patterns), and inserts Alice's comment —
/// "From the exp, it seems this gene is correlated to JW0014 of grpC" —
/// attached to gene JW0019. Nebula analyzes the comment, discovers the
/// embedded references to JW0014 and grpC (the name of gene JW0013), and
/// raises verification tasks for the missing attachments.

#include <cstdio>
#include <string>

#include "annotation/annotation_store.h"
#include "annotation/verification_task.h"
#include "core/engine.h"
#include "meta/nebula_meta.h"
#include "sql/session.h"
#include "storage/catalog.h"

using namespace nebula;

namespace {

#define CHECK_OK(expr)                                            \
  do {                                                            \
    ::nebula::Status _st = (expr);                                \
    if (!_st.ok()) {                                              \
      std::fprintf(stderr, "FATAL: %s\n", _st.ToString().c_str()); \
      return 1;                                                   \
    }                                                             \
  } while (0)

}  // namespace

int main() {
  // --- The database of Figure 1 -------------------------------------
  Catalog catalog;
  auto gene_result = catalog.CreateTable(
      "gene", Schema({{"gid", DataType::kString, /*unique=*/true},
                      {"name", DataType::kString, /*unique=*/true},
                      {"length", DataType::kInt64},
                      {"seq", DataType::kString},
                      {"family", DataType::kString}}));
  if (!gene_result.ok()) return 1;
  Table* gene = *gene_result;

  struct Row {
    const char* gid;
    const char* name;
    int64_t length;
    const char* seq;
    const char* family;
  };
  const Row rows[] = {
      {"JW0013", "grpC", 1130, "TGCT", "F1"},
      {"JW0014", "groP", 1916, "GGTT", "F6"},
      {"JW0015", "insL", 1112, "GGCT", "F1"},
      {"JW0018", "nhaA", 1166, "CGTT", "F1"},
      {"JW0019", "yaaB", 905, "TGTG", "F3"},
      {"JW0012", "yaaI", 404, "TTCG", "F1"},
      {"JW0027", "namE", 658, "GTTT", "F4"},
  };
  for (const Row& r : rows) {
    auto inserted = gene->Insert({Value(r.gid), Value(r.name),
                                  Value(r.length), Value(r.seq),
                                  Value(r.family)});
    if (!inserted.ok()) return 1;
  }

  // --- NebulaMeta: the ConceptRefs table of Figure 3 ----------------
  NebulaMeta meta;
  CHECK_OK(meta.AddConcept("Gene", "gene", {{"gid"}, {"name"}}));
  meta.AddColumnAlias("gene", "gid", "id");
  CHECK_OK(meta.SetColumnPattern("gene", "gid", "JW[0-9]{4}"));
  CHECK_OK(meta.SetColumnPattern("gene", "name", "[a-z]{3}[A-Z]"));

  // --- The Nebula engine --------------------------------------------
  AnnotationStore store;
  NebulaConfig config;
  config.bounds = {0.30, 0.85};
  NebulaEngine engine(&catalog, &store, &meta, config);

  // Alice attaches her comment to gene JW0019 (row 4).
  const TupleId alices_gene{gene->id(), 4};
  auto report_result = engine.InsertAnnotation(
      "From the exp, it seems this gene is correlated to JW0014 of grpC",
      {alices_gene}, "alice");
  if (!report_result.ok()) {
    std::fprintf(stderr, "FATAL: %s\n",
                 report_result.status().ToString().c_str());
    return 1;
  }
  const AnnotationReport& report = *report_result;

  std::printf("Alice's comment generated %zu keyword queries:\n",
              report.queries.size());
  for (const auto& q : report.queries) {
    std::printf("  [w=%.2f] %s\n", q.weight, q.ToString().c_str());
  }

  std::printf("\nDiscovered candidate tuples:\n");
  for (const auto& c : report.candidates) {
    const auto& row = gene->GetRow(c.tuple.row);
    std::printf("  gene %s (%s)  confidence=%.2f  evidence: ",
                row[0].AsString().c_str(), row[1].AsString().c_str(),
                c.confidence);
    for (const auto& e : c.evidence) std::printf("{%s} ", e.c_str());
    std::printf("\n");
  }

  std::printf("\nVerification outcome: %zu auto-accepted, %zu pending, "
              "%zu auto-rejected\n",
              report.verification.auto_accepted, report.verification.pending,
              report.verification.auto_rejected);

  // An expert reviews the pending queue through the extended SQL command.
  sql::SqlSession session(&engine);
  for (const VerificationTask* task : engine.verification().PendingTasks()) {
    std::printf("  pending v%llu -> gene row %llu (conf %.2f): VERIFY\n",
                static_cast<unsigned long long>(task->vid),
                static_cast<unsigned long long>(task->tuple.row),
                task->confidence);
    CHECK_OK(session.Execute("VERIFY ATTACHMENT " + std::to_string(task->vid))
                 .status());
  }

  std::printf("\nAnnotation is now attached to %zu tuples (was 1).\n",
              store.AttachedTuples(report.annotation).size());
  return 0;
}
