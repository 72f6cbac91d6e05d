#include "workload/generator.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "annotation/annotation_store.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/bounds_setting.h"
#include "meta/nebula_meta.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"
#include "workload/spec.h"
#include "workload/vocab.h"

namespace nebula {

namespace {

/// Internal generation context.
struct GenContext {
  const DatasetSpec* spec = nullptr;
  BioDataset* ds = nullptr;
  Rng rng;
  size_t num_topics = 1;

  // Row bookkeeping.
  std::vector<std::string> gene_gids;
  std::vector<std::string> gene_names;
  std::vector<std::string> protein_pids;
  std::vector<std::string> protein_pnames;
  std::vector<std::string> protein_ptypes;
  // topic -> member tuples.
  std::vector<std::vector<TupleId>> topic_members;
  // Calibrated per-protein reference strength when referenced by name.
  std::vector<RefStrength> pname_strength;  // parallel to protein rows
  std::vector<bool> pname_referencable;     // name score >= 0.6
  // Citation marks filled while generating the corpus; the workload
  // prefers cited tuples (scientists annotate studied objects), which is
  // what keeps true references within a few ACG hops of the focal.
  std::vector<bool> gene_cited;
  std::vector<bool> protein_cited;
};

std::string DecodeGeneName(uint64_t idx) {
  // [a-z]{3}[A-Z]: 26^3 * 26 combinations.
  std::string name(4, 'a');
  name[0] = static_cast<char>('a' + idx % 26);
  idx /= 26;
  name[1] = static_cast<char>('a' + idx % 26);
  idx /= 26;
  name[2] = static_cast<char>('a' + idx % 26);
  idx /= 26;
  name[3] = static_cast<char>('A' + idx % 26);
  return name;
}

Status BuildTables(GenContext* ctx) {
  BioDataset& ds = *ctx->ds;

  NEBULA_ASSIGN_OR_RETURN(
      Table * gene,
      ds.catalog.CreateTable(
          "gene", Schema({{"gid", DataType::kString, /*unique=*/true},
                          {"name", DataType::kString, /*unique=*/true},
                          {"length", DataType::kInt64},
                          {"seq", DataType::kString},
                          {"family", DataType::kString},
                          {"organism", DataType::kString}})));
  NEBULA_ASSIGN_OR_RETURN(
      Table * protein,
      ds.catalog.CreateTable(
          "protein", Schema({{"pid", DataType::kString, /*unique=*/true},
                             {"pname", DataType::kString},
                             {"ptype", DataType::kString},
                             {"mass", DataType::kInt64},
                             {"gene_gid", DataType::kString},
                             {"organism", DataType::kString}})));
  NEBULA_ASSIGN_OR_RETURN(
      Table * publication,
      ds.catalog.CreateTable(
          "publication",
          Schema({{"pubid", DataType::kString, /*unique=*/true},
                  {"title", DataType::kString},
                  {"abstract", DataType::kString},
                  {"year", DataType::kInt64},
                  {"journal", DataType::kString}})));
  NEBULA_ASSIGN_OR_RETURN(
      Table * pub_gene,
      ds.catalog.CreateTable("pub_gene",
                             Schema({{"pubid", DataType::kString},
                                     {"gid", DataType::kString}})));
  NEBULA_ASSIGN_OR_RETURN(
      Table * pub_protein,
      ds.catalog.CreateTable("pub_protein",
                             Schema({{"pubid", DataType::kString},
                                     {"pid", DataType::kString}})));
  (void)pub_gene;
  (void)pub_protein;
  ds.gene_table = gene->id();
  ds.protein_table = protein->id();
  ds.publication_table = publication->id();

  NEBULA_RETURN_NOT_OK(
      ds.catalog.AddForeignKey("protein", "gene_gid", "gene", "gid"));
  NEBULA_RETURN_NOT_OK(
      ds.catalog.AddForeignKey("pub_gene", "pubid", "publication", "pubid"));
  NEBULA_RETURN_NOT_OK(ds.catalog.AddForeignKey("pub_gene", "gid", "gene",
                                                "gid"));
  NEBULA_RETURN_NOT_OK(ds.catalog.AddForeignKey("pub_protein", "pubid",
                                                "publication", "pubid"));
  NEBULA_RETURN_NOT_OK(
      ds.catalog.AddForeignKey("pub_protein", "pid", "protein", "pid"));
  return Status::OK();
}

Status PopulateGenes(GenContext* ctx) {
  const DatasetSpec& spec = *ctx->spec;
  BioDataset& ds = *ctx->ds;
  Table* gene = ds.catalog.GetTableById(ds.gene_table);

  // Real gene ids come from [0, 50000); decoys later use [50000, 99999].
  const std::vector<uint64_t> gid_nums =
      ctx->rng.SampleWithoutReplacement(50000, spec.num_genes);
  const std::vector<uint64_t> name_nums =
      ctx->rng.SampleWithoutReplacement(26ULL * 26 * 26 * 26, spec.num_genes);
  const auto& organisms = Vocab::Organisms();
  for (size_t i = 0; i < spec.num_genes; ++i) {
    const std::string gid = StrFormat("JW%05u",
                                      static_cast<unsigned>(gid_nums[i]));
    const std::string name = DecodeGeneName(name_nums[i]);
    const int64_t length = ctx->rng.UniformRange(200, 3000);
    const std::string family =
        StrFormat("F%u", static_cast<unsigned>(1 + ctx->rng.Zipf(8, 0.6)));
    std::vector<Value> row{
        Value(gid),
        Value(name),
        Value(length),
        Value(Vocab::DnaFragment(12, &ctx->rng)),
        Value(family),
        Value(organisms[ctx->rng.Uniform(organisms.size())])};
    NEBULA_ASSIGN_OR_RETURN(Table::RowId r, gene->Insert(std::move(row)));
    (void)r;
    ctx->gene_gids.push_back(gid);
    ctx->gene_names.push_back(name);
  }
  return Status::OK();
}

Status PopulateProteins(GenContext* ctx) {
  const DatasetSpec& spec = *ctx->spec;
  BioDataset& ds = *ctx->ds;
  Table* protein = ds.catalog.GetTableById(ds.protein_table);

  const std::vector<std::string> stems =
      Vocab::MakeProteinStems(spec.num_protein_stems, &ctx->rng);
  const std::vector<uint64_t> pid_nums =
      ctx->rng.SampleWithoutReplacement(50000, spec.num_proteins);
  const auto& types = Vocab::ProteinTypes();
  const auto& organisms = Vocab::Organisms();

  for (size_t j = 0; j < spec.num_proteins; ++j) {
    const std::string pid =
        StrFormat("P%05u", static_cast<unsigned>(pid_nums[j]));
    // Distinct pnames: stem for the first pass over the stem list, then
    // stem + digit suffix on subsequent passes.
    const size_t stem_idx = j % stems.size();
    const size_t pass = j / stems.size();
    std::string pname = stems[stem_idx];
    if (pass > 0) pname += StrFormat("%u", static_cast<unsigned>(pass + 1));
    const std::string ptype = types[ctx->rng.Uniform(types.size())];
    // Link to a same-topic gene for ACG locality.
    const size_t topic = j % ctx->num_topics;
    const size_t genes_in_topic =
        (spec.num_genes + ctx->num_topics - 1 - topic) / ctx->num_topics;
    const size_t gene_idx =
        topic + ctx->num_topics * ctx->rng.Uniform(
                                      std::max<size_t>(1, genes_in_topic));
    const std::string& gene_gid =
        ctx->gene_gids[std::min(gene_idx, ctx->gene_gids.size() - 1)];
    std::vector<Value> row{
        Value(pid),
        Value(pname),
        Value(ptype),
        Value(ctx->rng.UniformRange(5000, 250000)),
        Value(gene_gid),
        Value(organisms[ctx->rng.Uniform(organisms.size())])};
    NEBULA_ASSIGN_OR_RETURN(Table::RowId r, protein->Insert(std::move(row)));
    (void)r;
    ctx->protein_pids.push_back(pid);
    ctx->protein_pnames.push_back(pname);
    ctx->protein_ptypes.push_back(ptype);
  }
  return Status::OK();
}

Status PopulateMeta(GenContext* ctx) {
  BioDataset& ds = *ctx->ds;
  NEBULA_RETURN_NOT_OK(
      ds.meta.AddConcept("Gene", "gene", {{"gid"}, {"name"}}));
  NEBULA_RETURN_NOT_OK(
      ds.meta.AddConcept("Protein", "protein", {{"pid"}, {"pname", "ptype"}}));
  NEBULA_RETURN_NOT_OK(ds.meta.AddConcept("Gene Family", "gene",
                                          {{"family"}}));
  ds.meta.AddColumnAlias("gene", "gid", "id");
  ds.meta.AddColumnAlias("protein", "pid", "id");
  ds.meta.AddColumnAlias("gene", "family", "fam");
  NEBULA_RETURN_NOT_OK(
      ds.meta.SetColumnPattern("gene", "gid", "JW[0-9]{5}"));
  NEBULA_RETURN_NOT_OK(
      ds.meta.SetColumnPattern("gene", "name", "[a-z]{3}[A-Z]"));
  NEBULA_RETURN_NOT_OK(
      ds.meta.SetColumnPattern("protein", "pid", "P[0-9]{5}"));
  NEBULA_RETURN_NOT_OK(ds.meta.SetColumnPattern("gene", "family", "F[0-9]"));
  NEBULA_RETURN_NOT_OK(
      ds.meta.SetColumnOntology("protein", "ptype", Vocab::ProteinTypes()));
  NEBULA_RETURN_NOT_OK(ds.meta.DrawColumnSamples(
      ds.catalog, ctx->spec->meta_sample_per_column, &ctx->rng));
  return Status::OK();
}

/// Buckets every distinct protein name by its calibrated domain score and
/// builds the weak-noise and decoy pools.
void Calibrate(GenContext* ctx) {
  BioDataset& ds = *ctx->ds;
  const ValueColumn* pname_col = ds.meta.FindValueColumn("protein", "pname");
  const size_t n_proteins = ctx->protein_pnames.size();
  ctx->pname_strength.assign(n_proteins, RefStrength::kStrong);
  ctx->pname_referencable.assign(n_proteins, false);

  std::unordered_map<std::string, double> score_cache;
  auto pname_score = [&](const std::string& w) {
    auto it = score_cache.find(w);
    if (it != score_cache.end()) return it->second;
    const double s =
        pname_col == nullptr ? 0.0 : ds.meta.DomainMatchScore(w, *pname_col);
    score_cache.emplace(w, s);
    return s;
  };

  std::unordered_set<std::string> seen_names;
  for (size_t j = 0; j < n_proteins; ++j) {
    const std::string& pname = ctx->protein_pnames[j];
    const double s = pname_score(pname);
    if (s >= 0.8) {
      ctx->pname_strength[j] = RefStrength::kStrong;
      ctx->pname_referencable[j] = true;
      if (seen_names.insert(pname).second) ds.strong_pnames.push_back(pname);
    } else if (s >= 0.6) {
      ctx->pname_strength[j] = RefStrength::kMedium;
      ctx->pname_referencable[j] = true;
      if (seen_names.insert(pname).second) ds.medium_pnames.push_back(pname);
    }
  }

  // Weak-noise pool: mutated stems whose best domain score lands in
  // [0.4, 0.6) — visible only to the epsilon = 0.4 cutoff.
  const std::unordered_set<std::string> real_names(
      ctx->protein_pnames.begin(), ctx->protein_pnames.end());
  size_t attempts = 0;
  const size_t target_pool = 200;
  while (ds.weak_noise_pool.size() < target_pool && attempts < 30000) {
    ++attempts;
    const std::string base =
        ctx->protein_pnames[ctx->rng.Uniform(n_proteins)];
    const std::string candidate = Vocab::Mutate(base, &ctx->rng);
    if (candidate.size() < 4 || real_names.count(candidate) > 0) continue;
    const double s = pname_score(candidate);
    if (s >= 0.4 && s < 0.6) ds.weak_noise_pool.push_back(candidate);
  }
  if (ds.weak_noise_pool.empty()) {
    NEBULA_LOG(kWarn) << "weak-noise calibration produced an empty pool";
  }

  // Decoy pool: pattern-valid identifiers guaranteed absent from the DB
  // (real ids use [0, 50000), decoys use [50000, 100000)).
  for (size_t i = 0; i < 200; ++i) {
    const unsigned num =
        static_cast<unsigned>(50000 + ctx->rng.Uniform(50000));
    ds.decoy_pool.push_back(ctx->rng.Bernoulli(0.5)
                                ? StrFormat("JW%05u", num)
                                : StrFormat("P%05u", num));
  }
}

/// A reference phrase plus its ground truth.
struct RefPhrase {
  std::string text;
  GroundTruthRef ref;
};

/// Renders a reference to gene row `g` (always strong).
RefPhrase MakeGeneRef(GenContext* ctx, uint64_t g, bool prefer_short) {
  RefPhrase out;
  out.ref.target = ctx->ds->GeneTuple(g);
  out.ref.strength = RefStrength::kStrong;
  const std::string& gid = ctx->gene_gids[g];
  const std::string& name = ctx->gene_names[g];
  const uint64_t variant = prefer_short ? 1 : ctx->rng.Uniform(5);
  switch (variant) {
    case 0:
      out.text = "gene " + gid;
      out.ref.surface = {gid};
      break;
    case 1:
      out.text = "gene " + name;
      out.ref.surface = {name};
      break;
    case 2:
      out.text = "the " + name + " gene";
      out.ref.surface = {name};
      break;
    case 3:
      // Dual mention ("gene aabX JW00123"), common in scientific prose;
      // both surfaces identify the same tuple, so the grouping reward of
      // IdentifyRelatedTuples Step 2 has something to reward.
      out.text = "gene " + name + " " + gid;
      out.ref.surface = {name, gid};
      break;
    default:
      out.text = "gene id " + gid;
      out.ref.surface = {gid};
      break;
  }
  return out;
}

/// Renders a reference to protein row `p`. When `by_name`, uses the
/// protein's (calibrated) name, else its pid.
RefPhrase MakeProteinRef(GenContext* ctx, uint64_t p, bool by_name) {
  RefPhrase out;
  out.ref.target = ctx->ds->ProteinTuple(p);
  if (by_name) {
    const std::string& pname = ctx->protein_pnames[p];
    out.ref.strength = ctx->pname_strength[p];
    if (ctx->rng.Bernoulli(0.5)) {
      out.text = "protein " + pname;
      out.ref.surface = {pname};
    } else {
      out.text = "protein " + pname + " " + ctx->protein_ptypes[p];
      out.ref.surface = {pname, ctx->protein_ptypes[p]};
    }
  } else {
    out.ref.strength = RefStrength::kStrong;
    out.text = "protein " + ctx->protein_pids[p];
    out.ref.surface = {ctx->protein_pids[p]};
  }
  return out;
}

/// Picks `n` distinct reference targets from a topic. Returns tuples of
/// (is_gene, row). `gene_prob` controls the gene/protein mix (1.0 = genes
/// only, used when a tight byte budget cannot fit protein surfaces).
std::vector<std::pair<bool, uint64_t>> PickTargets(GenContext* ctx,
                                                   size_t topic, size_t n,
                                                   double gene_prob = 0.6,
                                                   bool prefer_cited = false) {
  const DatasetSpec& spec = *ctx->spec;
  std::vector<std::pair<bool, uint64_t>> out;
  std::unordered_set<uint64_t> used_genes, used_proteins;
  size_t guard = 0;
  const size_t max_guard = n * 30;
  while (out.size() < n && guard++ < max_guard) {
    // Towards the end of the attempt budget, accept uncited tuples too.
    const bool require_cited = prefer_cited && guard < max_guard / 2;
    size_t t = topic;
    if (ctx->rng.Bernoulli(spec.cross_topic_probability)) {
      t = ctx->rng.Uniform(ctx->num_topics);
    }
    const bool is_gene = ctx->rng.Bernoulli(gene_prob);
    // Zipf rank within the topic: curated corpora cite a few popular
    // tuples very often (hub genes), which is what gives the publication
    // text realistic token-frequency skew.
    if (is_gene) {
      const size_t count =
          (spec.num_genes + ctx->num_topics - 1 - t) / ctx->num_topics;
      if (count == 0) continue;
      const uint64_t row = t + ctx->num_topics * ctx->rng.Zipf(count, 0.6);
      if (row >= spec.num_genes) continue;
      if (require_cited &&
          (row >= ctx->gene_cited.size() || !ctx->gene_cited[row])) {
        continue;
      }
      if (!used_genes.insert(row).second) continue;
      out.push_back({true, row});
    } else {
      const size_t count =
          (spec.num_proteins + ctx->num_topics - 1 - t) / ctx->num_topics;
      if (count == 0) continue;
      const uint64_t row = t + ctx->num_topics * ctx->rng.Zipf(count, 0.6);
      if (row >= spec.num_proteins) continue;
      if (require_cited &&
          (row >= ctx->protein_cited.size() || !ctx->protein_cited[row])) {
        continue;
      }
      if (!used_proteins.insert(row).second) continue;
      out.push_back({false, row});
    }
  }
  return out;
}

Status PopulateCorpus(GenContext* ctx) {
  const DatasetSpec& spec = *ctx->spec;
  BioDataset& ds = *ctx->ds;
  ctx->gene_cited.assign(spec.num_genes, false);
  ctx->protein_cited.assign(spec.num_proteins, false);
  Table* publication = ds.catalog.GetTableById(ds.publication_table);
  NEBULA_ASSIGN_OR_RETURN(Table * pub_gene, ds.catalog.GetTable("pub_gene"));
  NEBULA_ASSIGN_OR_RETURN(Table * pub_protein,
                          ds.catalog.GetTable("pub_protein"));
  const auto& journals = Vocab::Journals();

  for (size_t k = 0; k < spec.num_publications; ++k) {
    const std::string pubid = StrFormat("PUB%06u", static_cast<unsigned>(k));
    const size_t topic = ctx->rng.Zipf(ctx->num_topics, 0.4);
    const size_t nrefs =
        spec.min_corpus_refs +
        ctx->rng.Zipf(spec.max_corpus_refs - spec.min_corpus_refs + 1, 0.7);
    const auto targets = PickTargets(ctx, topic, nrefs);

    // Assemble the abstract: filler interleaved with reference phrases.
    const size_t total_words = ctx->rng.UniformRange(
        static_cast<int64_t>(spec.corpus_abstract_words_lo),
        static_cast<int64_t>(spec.corpus_abstract_words_hi));
    std::string abstract;
    std::vector<TupleId> attached;
    size_t emitted_refs = 0;
    size_t words = 0;
    while (words < total_words || emitted_refs < targets.size()) {
      if (emitted_refs < targets.size() &&
          (ctx->rng.Bernoulli(0.25) || words >= total_words)) {
        const auto& [is_gene, row] = targets[emitted_refs];
        const RefPhrase phrase =
            is_gene ? MakeGeneRef(ctx, row, /*prefer_short=*/false)
                    : MakeProteinRef(ctx, row,
                                     /*by_name=*/ctx->rng.Bernoulli(0.4) &&
                                         ctx->pname_referencable[row]);
        if (!abstract.empty()) abstract += ' ';
        abstract += phrase.text;
        attached.push_back(phrase.ref.target);
        ++emitted_refs;
        words += 2;
      } else {
        if (!abstract.empty()) abstract += ' ';
        abstract += Vocab::FillerPhrase(1, &ctx->rng);
        ++words;
      }
    }

    std::vector<Value> row{
        Value(pubid),
        Value(Vocab::FillerPhrase(5, &ctx->rng)),
        Value(abstract),
        Value(ctx->rng.UniformRange(1995, 2015)),
        Value(journals[ctx->rng.Uniform(journals.size())])};
    NEBULA_ASSIGN_OR_RETURN(Table::RowId pub_row,
                            publication->Insert(std::move(row)));
    (void)pub_row;

    // The publication doubles as an annotation over its cited tuples
    // (this is the paper's experimental construction).
    const AnnotationId aid = ds.store.AddAnnotation(abstract, "corpus");
    for (const TupleId& t : attached) {
      if (t.table_id == ds.gene_table) ctx->gene_cited[t.row] = true;
      if (t.table_id == ds.protein_table) ctx->protein_cited[t.row] = true;
      if (ds.store.HasAttachment(aid, t)) continue;
      NEBULA_RETURN_NOT_OK(ds.store.Attach(aid, t, AttachmentType::kTrue));
      // Link tables mirror the citation relationships.
      if (t.table_id == ds.gene_table) {
        NEBULA_RETURN_NOT_OK(
            pub_gene->Insert({Value(pubid), Value(ctx->gene_gids[t.row])})
                .ok()
                ? Status::OK()
                : Status::Internal("pub_gene insert failed"));
      } else if (t.table_id == ds.protein_table) {
        NEBULA_RETURN_NOT_OK(
            pub_protein
                    ->Insert({Value(pubid), Value(ctx->protein_pids[t.row])})
                    .ok()
                ? Status::OK()
                : Status::Internal("pub_protein insert failed"));
      }
    }
  }
  return Status::OK();
}

/// Builds one workload annotation of at most `max_bytes` with a reference
/// count in [lo, hi].
WorkloadAnnotation MakeWorkloadAnnotation(GenContext* ctx, size_t max_bytes,
                                          size_t lo, size_t hi) {
  const DatasetSpec& spec = *ctx->spec;
  WorkloadAnnotation ann;
  ann.size_class = max_bytes;
  ann.link_class_lo = lo;
  ann.link_class_hi = hi;

  const bool tight = max_bytes <= 100;
  const double weak_rate =
      tight ? spec.weak_noise_rate_small : spec.weak_noise_rate_large;
  const double strong_rate = tight ? 0.0 : spec.strong_noise_rate_large;

  const size_t nrefs = lo + ctx->rng.Uniform(hi - lo + 1);
  // 50-byte annotations with 4+ references only fit as a grouped gene
  // name list ("genes aabX aacX ..."): restrict the mix to genes there.
  const double gene_prob = (max_bytes <= 50 && hi >= 4) ? 1.0 : 0.6;
  const size_t topic = ctx->rng.Uniform(ctx->num_topics);
  auto targets =
      PickTargets(ctx, topic, hi + 2, gene_prob, /*prefer_cited=*/true);

  std::string text;
  auto append = [&](const std::string& s) {
    if (!text.empty()) text += ' ';
    text += s;
  };
  auto fits = [&](const std::string& s) {
    return text.size() + s.size() + (text.empty() ? 0 : 1) <= max_bytes;
  };
  auto record = [&](RefPhrase phrase) {
    ann.refs.push_back(phrase.ref);
    ann.ideal_tuples.push_back(phrase.ref.target);
  };

  size_t medium_budget = static_cast<size_t>(
      static_cast<double>(targets.size()) * spec.medium_ref_fraction + 0.5);
  auto pick_by_name = [&](uint64_t row) {
    if (!ctx->pname_referencable[row]) return false;
    if (medium_budget > 0 &&
        ctx->pname_strength[row] == RefStrength::kMedium) {
      --medium_budget;
      return true;
    }
    return ctx->rng.Bernoulli(0.4);
  };

  if (tight) {
    // Grouped layout: one concept word per table, then bare surfaces —
    // the later values rely on the backward-concept search. The backward
    // search stops at the *closest* concept word (paper §5.2.3), so the
    // two groups must not interleave: emit all gene references, then all
    // protein references. Stop adding references once the budget is
    // reached, as long as the link-class floor is met.
    std::stable_partition(targets.begin(), targets.end(),
                          [](const auto& t) { return t.first; });
    bool genes_opened = false, proteins_opened = false;
    for (const auto& [is_gene, row] : targets) {
      if (ann.refs.size() >= nrefs) break;
      if (is_gene) {
        const std::string& surface = ctx->gene_names[row];
        const std::string chunk =
            genes_opened ? surface : "genes " + surface;
        if (!fits(chunk)) {
          if (ann.refs.size() >= lo) break;
          continue;
        }
        append(chunk);
        genes_opened = true;
        RefPhrase phrase;
        phrase.ref.target = ctx->ds->GeneTuple(row);
        phrase.ref.surface = {surface};
        phrase.ref.strength = RefStrength::kStrong;
        record(std::move(phrase));
      } else {
        const bool by_name = pick_by_name(row);
        const std::string& surface =
            by_name ? ctx->protein_pnames[row] : ctx->protein_pids[row];
        const std::string chunk =
            proteins_opened ? surface : "proteins " + surface;
        if (!fits(chunk)) {
          if (ann.refs.size() >= lo) break;
          continue;
        }
        append(chunk);
        proteins_opened = true;
        RefPhrase phrase;
        phrase.ref.target = ctx->ds->ProteinTuple(row);
        phrase.ref.surface = {surface};
        phrase.ref.strength =
            by_name ? ctx->pname_strength[row] : RefStrength::kStrong;
        record(std::move(phrase));
      }
    }
  } else {
    // Phrase-based layout with occasional long filler gaps so that the
    // later value word falls outside the influence range and exercises
    // the backward-concept search.
    for (size_t i = 0; i < targets.size(); ++i) {
      if (ann.refs.size() >= nrefs) break;
      const auto& [is_gene, row] = targets[i];
      const RefPhrase phrase =
          is_gene ? MakeGeneRef(ctx, row, /*prefer_short=*/false)
                  : MakeProteinRef(ctx, row, pick_by_name(row));
      std::string prefix;
      if (i > 0 && ctx->rng.Bernoulli(0.3)) {
        prefix = Vocab::FillerPhrase(6, &ctx->rng) + " ";
      }
      if (!fits(prefix + phrase.text)) {
        if (ann.refs.size() >= lo) break;
        if (!fits(phrase.text)) continue;
        prefix.clear();
      }
      append(prefix + phrase.text);
      record(phrase);
    }
  }

  // Pad with filler + calibrated noise up to the byte budget.
  while (text.size() + 12 < max_bytes) {
    std::string word;
    if (strong_rate > 0.0 && !ctx->ds->decoy_pool.empty() &&
        ctx->rng.Bernoulli(strong_rate)) {
      word = ctx->ds->decoy_pool[ctx->rng.Uniform(
          ctx->ds->decoy_pool.size())];
    } else if (!ctx->ds->weak_noise_pool.empty() &&
               ctx->rng.Bernoulli(weak_rate)) {
      word = ctx->ds->weak_noise_pool[ctx->rng.Uniform(
          ctx->ds->weak_noise_pool.size())];
    } else {
      word = Vocab::FillerPhrase(1, &ctx->rng);
    }
    if (text.size() + word.size() + 1 > max_bytes) break;
    append(word);
  }
  ann.text = std::move(text);
  return ann;
}

void BuildWorkload(GenContext* ctx) {
  BioDataset& ds = *ctx->ds;
  const size_t kSizes[] = {50, 100, 500, 1000};
  const std::pair<size_t, size_t> kLinkClasses[] = {{1, 3}, {4, 6}, {7, 10}};
  for (size_t m : kSizes) {
    for (const auto& [lo, hi] : kLinkClasses) {
      if (m == 50 && lo == 7) {
        // Footnote 3: L^50.L_{7-10} cannot exist (7-10 references do not
        // fit in 50 bytes); substitute with extra annotations in the
        // smaller link classes.
        for (size_t i = 0; i < 3; ++i) {
          ds.workload.annotations.push_back(
              MakeWorkloadAnnotation(ctx, m, 1, 3));
        }
        for (size_t i = 0; i < 2; ++i) {
          ds.workload.annotations.push_back(
              MakeWorkloadAnnotation(ctx, m, 4, 6));
        }
        continue;
      }
      for (size_t i = 0; i < 5; ++i) {
        ds.workload.annotations.push_back(
            MakeWorkloadAnnotation(ctx, m, lo, hi));
      }
    }
  }
}

}  // namespace

std::vector<TrainingAnnotation> BioDataset::SampleTrainingSet(
    size_t n, Rng* rng) const {
  std::vector<TrainingAnnotation> out;
  const size_t total = store.num_annotations();
  if (total == 0) return out;
  for (uint64_t idx :
       rng->SampleWithoutReplacement(total, std::min(n, total))) {
    TrainingAnnotation ta;
    ta.annotation = idx;
    ta.ideal_tuples = store.AttachedTuples(idx, /*true_only=*/true);
    if (!ta.ideal_tuples.empty()) out.push_back(std::move(ta));
  }
  return out;
}

Result<std::unique_ptr<BioDataset>> GenerateBioDataset(
    const DatasetSpec& spec) {
  auto ds = std::make_unique<BioDataset>();
  ds->spec = spec;
  GenContext ctx;
  ctx.spec = &ds->spec;
  ctx.ds = ds.get();
  ctx.rng.Seed(spec.seed);
  ctx.num_topics = std::max<size_t>(
      1, (spec.num_genes + spec.num_proteins) / std::max<size_t>(
                                                    1, spec.topic_size));

  NEBULA_RETURN_NOT_OK(BuildTables(&ctx));
  NEBULA_RETURN_NOT_OK(PopulateGenes(&ctx));
  NEBULA_RETURN_NOT_OK(PopulateProteins(&ctx));
  NEBULA_RETURN_NOT_OK(PopulateMeta(&ctx));
  Calibrate(&ctx);
  NEBULA_RETURN_NOT_OK(PopulateCorpus(&ctx));
  BuildWorkload(&ctx);

  // The publication text columns are free text (the keyword engine's
  // containment mappings need them; they are also what makes the Naive
  // baseline's whole-annotation query explode).
  Table* publication = ds->catalog.GetTableById(ds->publication_table);
  const int title_ord = publication->schema().ColumnIndex("title");
  const int abstract_ord = publication->schema().ColumnIndex("abstract");
  NEBULA_RETURN_NOT_OK(
      publication->DeclareTextColumn(static_cast<size_t>(title_ord)));
  NEBULA_RETURN_NOT_OK(
      publication->DeclareTextColumn(static_cast<size_t>(abstract_ord)));
  return ds;
}

}  // namespace nebula
