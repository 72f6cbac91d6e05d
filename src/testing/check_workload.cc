#include "testing/check_workload.h"

#include <algorithm>
#include <set>

#include "annotation/annotation_store.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "meta/nebula_meta.h"
#include "storage/catalog.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace nebula::check {

namespace {

/// Independent RNG streams for universe vs annotation-stream generation:
/// the universe must not shift when stream-generation logic evolves.
constexpr uint64_t kUniverseStream = 0xA5D1CE5EEDull;
constexpr uint64_t kAnnotationStream = 0xB7C0FFEE5Eull;

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  return (seed + 0x9E3779B97F4A7C15ULL) ^ (stream * 0xBF58476D1CE4E5B9ULL);
}

/// Fixed vocabulary pools. Indexed by table id so surface words can be
/// regenerated from a TupleId alone.
struct TableFlavor {
  const char* name;
  const char* alias;
  const char* prefix;  ///< two uppercase letters for id values
};
constexpr TableFlavor kTablePool[] = {
    {"gene", "locus", "GN"},
    {"protein", "factor", "PR"},
    {"sample", "specimen", "SM"},
    {"compound", "agent", "CP"},
};
constexpr size_t kTablePoolSize = sizeof(kTablePool) / sizeof(kTablePool[0]);

const char* const kNameStems[] = {"brakt", "xylo",  "quen", "mirv",
                                  "strel", "vint",  "gorm", "plex"};
const char* const kKindTerms[] = {"kinase",    "ligase",   "promoter",
                                  "inhibitor", "receptor", "transporter"};
const char* const kFillerWords[] = {"observed", "under",    "strong",
                                    "response", "with",     "assay",
                                    "profile",  "baseline", "control",
                                    "series",   "during",   "replicate"};

template <typename T, size_t N>
const T& Pick(const T (&pool)[N], Rng* rng) {
  return pool[rng->Uniform(N)];
}

std::string Capitalize(std::string s) {
  if (!s.empty() && s[0] >= 'a' && s[0] <= 'z') {
    s[0] = static_cast<char>(s[0] - 'a' + 'A');
  }
  return s;
}

std::string IdValue(const TableFlavor& flavor, uint64_t row) {
  return std::string(flavor.prefix) + std::to_string(100 + row);
}

/// A surface name like "Brakt17". The small stem x suffix space makes
/// cross-row duplicates likely by design: equal-confidence candidates are
/// exactly where ranking tie-breaks matter, and the differential runner
/// should exercise them.
std::string NameValue(Rng* rng) {
  return Capitalize(Pick(kNameStems, rng)) +
         std::to_string(rng->UniformRange(1, 60));
}

/// Free-text "notes" cell: filler/kind phrases drawn from the same pools
/// the annotation stream uses, so stream words land in the column's token
/// set. The column is a declared text column but deliberately NOT
/// referenced by any concept, so keywords reach it only through
/// text-containment mappings — the statement shape the value-index fast
/// path accelerates. Without it the check universe would never execute a
/// token-containment query and the index-vs-scan pair would be vacuous.
std::string NotesValue(Rng* rng) {
  std::string text = Pick(kFillerWords, rng);
  text += ' ';
  text += Pick(kKindTerms, rng);
  if (rng->Bernoulli(0.5)) {
    text += ' ';
    text += Pick(kFillerWords, rng);
  }
  return text;
}

}  // namespace

Result<std::unique_ptr<CheckUniverse>> BuildCheckUniverse(
    uint64_t seed, const CheckWorkloadParams& params) {
  Rng rng(DeriveSeed(seed, kUniverseStream));
  auto universe = std::make_unique<CheckUniverse>();
  Catalog& catalog = universe->catalog;
  NebulaMeta& meta = universe->meta;

  const size_t num_tables = static_cast<size_t>(rng.UniformRange(
      static_cast<int64_t>(params.min_tables),
      static_cast<int64_t>(std::min(params.max_tables, kTablePoolSize))));
  const std::string parent_id_column =
      std::string(kTablePool[0].name) + "_id";

  for (size_t t = 0; t < num_tables; ++t) {
    const TableFlavor& flavor = kTablePool[t];
    const std::string id_column = std::string(flavor.name) + "_id";
    std::vector<ColumnDef> columns = {
        ColumnDef(id_column, DataType::kString, /*unique=*/true),
        ColumnDef("name", DataType::kString),
        ColumnDef("kind", DataType::kString),
        ColumnDef("size", DataType::kInt64),
        ColumnDef("notes", DataType::kString),
    };
    // Every non-root table carries an FK to the root table.
    if (t > 0) columns.emplace_back(parent_id_column, DataType::kString);
    NEBULA_ASSIGN_OR_RETURN(Table * table,
                            catalog.CreateTable(flavor.name, Schema(columns)));

    const uint64_t parent_rows =
        t > 0 ? catalog.GetTableById(0)->num_rows() : 0;
    const int64_t rows = rng.UniformRange(
        static_cast<int64_t>(params.min_rows),
        static_cast<int64_t>(params.max_rows));
    for (int64_t r = 0; r < rows; ++r) {
      std::vector<Value> row = {
          Value(IdValue(flavor, static_cast<uint64_t>(r))),
          Value(NameValue(&rng)),
          Value(std::string(Pick(kKindTerms, &rng))),
          Value(rng.UniformRange(1, 5000)),
          Value(NotesValue(&rng)),
      };
      if (t > 0) {
        row.emplace_back(IdValue(kTablePool[0], rng.Uniform(parent_rows)));
      }
      NEBULA_ASSIGN_OR_RETURN(Table::RowId rid, table->Insert(std::move(row)));
      universe->all_tuples.push_back(TupleId{table->id(), rid});
    }
    if (t == 0 && params.hostile_tokens) {
      // One hostile row: SQL metacharacters in every string cell. The id
      // stays pattern-shaped (and unique: one past the generated range) so
      // the row reaches Stage 2 through the same match paths as its
      // siblings. Fixed values, no RNG draws — see the flag's contract.
      std::vector<Value> row = {
          Value(IdValue(flavor, static_cast<uint64_t>(rows))),
          Value(std::string("O'Brien;--")),
          Value(std::string("kin'ase\" or 1=1")),
          Value(static_cast<int64_t>(1337)),
          Value(std::string("observed 'quote' and ;-- marker")),
      };
      NEBULA_ASSIGN_OR_RETURN(Table::RowId rid, table->Insert(std::move(row)));
      universe->all_tuples.push_back(TupleId{table->id(), rid});
    }
    // Declare the free-text column (ordinal 4: after id/name/kind/size) so
    // the keyword engine emits token-containment statements against it.
    NEBULA_RETURN_NOT_OK(
        table->DeclareTextColumn(static_cast<size_t>(
            table->schema().ColumnIndex("notes"))));
    if (t > 0) {
      NEBULA_RETURN_NOT_OK(catalog.AddForeignKey(
          flavor.name, parent_id_column, kTablePool[0].name,
          parent_id_column));
    }

    // Metadata: the concept row, expert aliases, the id-value pattern, and
    // the kind ontology. "name" is left to sampling on purpose.
    NEBULA_RETURN_NOT_OK(meta.AddConcept(
        Capitalize(flavor.name), flavor.name,
        {{id_column}, {"name"}, {"name", "kind"}}));
    meta.AddTableAlias(flavor.name, flavor.alias);
    meta.AddColumnAlias(flavor.name, id_column, "identifier");
    NEBULA_RETURN_NOT_OK(
        meta.SetColumnPattern(flavor.name, id_column, "[A-Z]{2}[0-9]+"));
    NEBULA_RETURN_NOT_OK(meta.SetColumnOntology(
        flavor.name, "kind",
        std::vector<std::string>(std::begin(kKindTerms),
                                 std::end(kKindTerms))));
  }
  NEBULA_RETURN_NOT_OK(
      meta.DrawColumnSamples(catalog, params.samples_per_column, &rng));

  // Curated corpus: Zipf-skewed tuple selection creates hub tuples, so the
  // ACG grows real connectivity (shared annotations => edges) instead of a
  // uniform dust of singletons.
  std::set<TupleId> corpus_tuples;
  for (size_t a = 0; a < params.corpus_annotations; ++a) {
    const size_t fanout = 1 + rng.Uniform(3);
    std::set<TupleId> targets;
    while (targets.size() < fanout) {
      targets.insert(
          universe->all_tuples[rng.Zipf(universe->all_tuples.size(), 0.8)]);
    }
    std::string text = "curated:";
    for (const TupleId& t : targets) {
      const Table* table = catalog.GetTableById(t.table_id);
      text += " " + table->GetCell(t.row, 0).ToString();
    }
    const AnnotationId id =
        universe->store.AddAnnotation(std::move(text), "curator");
    for (const TupleId& t : targets) {
      NEBULA_RETURN_NOT_OK(
          universe->store.Attach(id, t, AttachmentType::kTrue));
      corpus_tuples.insert(t);
    }
  }
  universe->corpus_tuples.assign(corpus_tuples.begin(), corpus_tuples.end());
  return universe;
}

CheckWorkload GenerateCheckWorkload(uint64_t seed,
                                    const CheckUniverse& universe,
                                    const CheckWorkloadParams& params) {
  Rng rng(DeriveSeed(seed, kAnnotationStream));
  CheckWorkload workload;
  workload.seed = seed;

  auto pick_target = [&]() -> TupleId {
    if (!universe.corpus_tuples.empty() &&
        rng.Bernoulli(params.corpus_focal_bias)) {
      return universe.corpus_tuples[rng.Zipf(universe.corpus_tuples.size(),
                                             0.7)];
    }
    return universe.all_tuples[rng.Uniform(universe.all_tuples.size())];
  };

  for (size_t a = 0; a < params.stream_annotations; ++a) {
    CheckAnnotation ann;
    ann.author = "check-" + std::to_string(a);

    const size_t refs = 1 + rng.Uniform(params.max_refs);
    std::vector<std::string> words;
    for (size_t r = 0; r < refs; ++r) {
      const TupleId target = pick_target();
      if (r < 2 &&
          std::find(ann.focal.begin(), ann.focal.end(), target) ==
              ann.focal.end()) {
        ann.focal.push_back(target);
      }
      // Leading filler, then a concept word, then a value reference: the
      // adjacency keeps concept+value inside the context window (alpha)
      // so Type-1/2 context rewards actually fire.
      const size_t lead = 1 + rng.Uniform(3);
      for (size_t f = 0; f < lead; ++f) {
        words.emplace_back(Pick(kFillerWords, &rng));
      }
      const TableFlavor& flavor = kTablePool[target.table_id];
      words.emplace_back(rng.Bernoulli(0.5) ? flavor.name : flavor.alias);
      const Table* table = universe.catalog.GetTableById(target.table_id);
      const double form = rng.NextDouble();
      if (form < 0.4) {
        words.push_back(table->GetCell(target.row, 0).ToString());  // id
      } else if (form < 0.8) {
        words.push_back(table->GetCell(target.row, 1).ToString());  // name
      } else {
        words.push_back(table->GetCell(target.row, 1).ToString());
        words.push_back(table->GetCell(target.row, 2).ToString());  // kind
      }
    }
    for (size_t f = 0, n = rng.Uniform(3); f < n; ++f) {
      words.emplace_back(Pick(kFillerWords, &rng));
    }
    if (rng.Bernoulli(params.noise_rate)) {
      // Id-shaped decoy that exists in no table: the generated query must
      // come back empty without disturbing anything else.
      words.push_back("ZX" + std::to_string(rng.UniformRange(100, 999)));
    }
    if (params.hostile_tokens) {
      // A metacharacter-bearing token in every stream text: it must flow
      // through keyword extraction and (matching the hostile universe row)
      // Stage-2 SQL construction without altering query structure. Fixed
      // token, no RNG draw — the off-path stream stays bit-identical.
      words.push_back("O'Brien;--");
    }
    ann.text = Join(words, " ");
    workload.annotations.push_back(std::move(ann));
  }
  return workload;
}

}  // namespace nebula::check
