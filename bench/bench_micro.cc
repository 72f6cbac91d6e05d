/// Micro-benchmarks (google-benchmark) for the performance-critical
/// building blocks: storage lookups, tokenization, trigram similarity,
/// signature-map generation, query generation, keyword search, and ACG
/// traversal.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "common/string_util.h"
#include "core/acg.h"
#include "core/query_generation.h"
#include "keyword/engine.h"
#include "text/similarity.h"
#include "text/tokenizer.h"
#include "workload/generator.h"

namespace nebula {
namespace {

/// Lazily generated shared fixture (Tiny scale keeps startup fast).
BioDataset* Dataset() {
  static BioDataset* ds = [] {
    DatasetSpec spec = DatasetSpec::Tiny();
    spec.num_genes = 2000;
    spec.num_proteins = 1200;
    spec.num_publications = 3000;
    auto result = GenerateBioDataset(spec);
    return result.ok() ? result->release() : nullptr;
  }();
  return ds;
}

void BM_TableInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Table table(0, "gene",
                Schema({{"gid", DataType::kString, true},
                        {"name", DataType::kString},
                        {"length", DataType::kInt64}}));
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      benchmark::DoNotOptimize(table.Insert({Value(StrFormat("JW%05d", i)),
                                             Value(StrFormat("n%d", i)),
                                             Value(int64_t{i})}));
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TableInsert);

void BM_HashIndexLookup(benchmark::State& state) {
  BioDataset* ds = Dataset();
  const Table* gene = ds->catalog.GetTableById(ds->gene_table);
  const Value probe = gene->GetCell(42, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gene->Lookup(0, probe));
  }
}
BENCHMARK(BM_HashIndexLookup);

void BM_LookupToken(benchmark::State& state) {
  BioDataset* ds = Dataset();
  const Table* pub = ds->catalog.GetTableById(ds->publication_table);
  const size_t abstract =
      static_cast<size_t>(pub->schema().ColumnIndex("abstract"));
  std::vector<Table::RowId> scan;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pub->LookupToken(abstract, "expression", &scan));
  }
}
BENCHMARK(BM_LookupToken);

void BM_Tokenize(benchmark::State& state) {
  BioDataset* ds = Dataset();
  const std::string& text =
      ds->workload.annotations[ds->workload.BySizeClass(1000)[0]].text;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Tokenize(text));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_Tokenize);

void BM_TrigramJaccardIds(benchmark::State& state) {
  const auto a = TrigramIdSet("braktorin2");
  const auto b = TrigramIdSet("braktorin");
  for (auto _ : state) {
    benchmark::DoNotOptimize(TrigramJaccardIds(a, b));
  }
}
BENCHMARK(BM_TrigramJaccardIds);

void BM_SignatureMaps(benchmark::State& state) {
  BioDataset* ds = Dataset();
  const std::string& text =
      ds->workload.annotations[ds->workload
                                   .BySizeClass(state.range(0))[0]].text;
  const auto tokens = Tokenize(text);
  SignatureMapBuilder builder(&ds->meta);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.BuildConceptMap(tokens, 0.6));
    benchmark::DoNotOptimize(builder.BuildValueMap(tokens, 0.6));
  }
}
BENCHMARK(BM_SignatureMaps)->Arg(50)->Arg(100)->Arg(500)->Arg(1000);

void BM_QueryGeneration(benchmark::State& state) {
  BioDataset* ds = Dataset();
  const std::string& text =
      ds->workload.annotations[ds->workload
                                   .BySizeClass(state.range(0))[0]].text;
  QueryGenerator generator(&ds->meta);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.Generate(text));
  }
}
BENCHMARK(BM_QueryGeneration)->Arg(50)->Arg(1000);

void BM_KeywordSearch(benchmark::State& state) {
  BioDataset* ds = Dataset();
  KeywordSearchEngine engine(&ds->catalog, &ds->meta);
  const Table* gene = ds->catalog.GetTableById(ds->gene_table);
  const KeywordQuery query{{"gene", gene->GetCell(7, 0).AsString()}, 1.0,
                           "bm"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Search(query));
  }
}
BENCHMARK(BM_KeywordSearch);

void BM_AcgKHop(benchmark::State& state) {
  BioDataset* ds = Dataset();
  static Acg* acg = [&] {
    auto* g = new Acg();
    g->BuildFromStore(ds->store);
    return g;
  }();
  const std::vector<TupleId> focal{{ds->gene_table, 3}};
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(acg->KHopNeighborhood(focal, k));
  }
}
BENCHMARK(BM_AcgKHop)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

}  // namespace
}  // namespace nebula

BENCHMARK_MAIN();
