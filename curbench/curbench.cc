// Curation benchmark. Replays never-repeated corpus abstracts held
// out of the synthetic BioDataset through the public NebulaEngine /
// SqlSession API as one closed-loop client, and prints every metric by
// name with its unit, then one JSON line. See README.md for the workloads,
// the metric->layer table and the flush policy.
//
//   curbench --workload ingest|spread --seed N --seconds S
//            --trace 0|1 --digests FILE --tmp DIR [--record]
//
// --trace 0: one untraced engine pass; prints the end-to-end metrics.
// --trace 1: the same untraced pass (counters), a traced re-drive of the
//            same stream through each layer's public functions (layer
//            times), and a durability probe over the first inserts with
//            durability on; prints the per-layer metrics.
// --record:  prints the reference digest line of the quality pass and exits.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/engine.h"
#include "core/signature_maps.h"
#include "harness.h"
#include "obs/metrics.h"
#include "sql/session.h"
#include "text/tokenizer.h"
#include "workload/generator.h"

namespace curbench {
namespace {

using nebula::AnnotationId;
using nebula::AnnotationReport;
using nebula::CandidateTuple;
using nebula::NebulaConfig;
using nebula::NebulaEngine;
using nebula::TupleId;
using Clock = std::chrono::steady_clock;

double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}
double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "curbench: %s\n", why.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------- load ---

/// Held-out share of the corpus. Mid has 15,000 abstracts; the first 2,250
/// build the ACG and the remaining 12,750 are the stream. A run ends early
/// rather than repeat a text.
constexpr double kHeldOutShare = 0.85;
/// Inserts of the quality pass, which runs the stream in corpus order for
/// every seed: `recall`, `expert_tasks_per_insert` and the recorded digest
/// cover exactly these, so they repeat on every run and move only when
/// results change. (Over a seeded order they spread ~10% across seeds: a
/// few candidate-heavy abstracts dominate the task count.)
constexpr size_t kQualityInserts = 3000;
/// Inserts at which two passes over the same stream compare digests. Every
/// measured pass completes at least this many.
constexpr size_t kCheckInserts = 400;
/// Inserts replayed under the legacy scan path as an in-run oracle.
constexpr size_t kOracleInserts = 48;
/// Samples each latency series needs for its p99 (10 beyond the rank).
constexpr size_t kMinSamples = 1000;
constexpr size_t kSpreadBatch = 16;
/// One Discover of a random earlier insert per this many inserts.
constexpr size_t kSearchEvery = 3;

struct WorkloadSpec {
  std::string name;
  size_t delta = 1;       // focal = first delta ground-truth tuples
  bool batched = false;   // InsertAnnotations in kSpreadBatch batches
  NebulaConfig config;
};

WorkloadSpec MakeWorkload(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "ingest") return w;
  if (name == "spread") {
    w.delta = 2;
    w.batched = true;
    w.config.num_threads = 2;
    w.config.enable_focal_spreading = true;
    w.config.spreading.selection = nebula::KSelection::kFixed;
    w.config.spreading.fixed_k = 3;
    w.config.spreading.require_stable_acg = false;
    return w;
  }
  Die("unknown workload '" + name + "' (ingest | spread)");
}

struct StreamItem {
  std::string text;
  std::vector<TupleId> truth;
  std::vector<TupleId> focal;
};

/// A fresh, warmed-up system plus the held-out stream.
struct State {
  std::unique_ptr<nebula::BioDataset> ds;
  std::vector<StreamItem> stream;
  std::unique_ptr<NebulaEngine> engine;
  double dataset_gen_s = 0, acg_build_s = 0, index_build_s = 0,
         baseline_snapshot_s = 0;
  double total_s() const {
    return dataset_gen_s + acg_build_s + index_build_s + baseline_snapshot_s;
  }
};

/// The database is the same on every run (Mid at its default seed): what
/// `seed` varies is the request stream, i.e. the order of the held-out
/// abstracts (`shuffle`) and which earlier insert each search reads back.
std::unique_ptr<State> MakeState(uint64_t seed, bool shuffle, size_t delta,
                                 const NebulaConfig& config) {
  auto st = std::make_unique<State>();
  auto t0 = Clock::now();
  auto ds = nebula::GenerateBioDataset(nebula::DatasetSpec::Mid());
  if (!ds.ok()) Die("dataset generation failed: " + ds.status().ToString());
  st->ds = std::move(ds).value();

  // Corpus split: the first part stays annotated, the rest is the stream.
  nebula::AnnotationStore& full = st->ds->store;
  const size_t n = full.num_annotations();
  const size_t keep = n - static_cast<size_t>(kHeldOutShare * n);
  nebula::AnnotationStore kept;
  for (AnnotationId id = 0; id < n; ++id) {
    const nebula::Annotation* ann = full.GetAnnotation(id).value();
    std::vector<TupleId> truth = full.AttachedTuples(id, /*true_only=*/true);
    if (id < keep) {
      const AnnotationId kid = kept.AddAnnotation(ann->text, ann->author);
      for (const TupleId& t : truth) {
        if (!kept.Attach(kid, t, nebula::AttachmentType::kTrue).ok()) {
          Die("corpus split: attach failed");
        }
      }
      continue;
    }
    StreamItem item;
    item.text = ann->text;
    item.focal.assign(truth.begin(),
                      truth.begin() + std::min(delta, truth.size()));
    item.truth = std::move(truth);
    st->stream.push_back(std::move(item));
  }
  full = std::move(kept);
  std::mt19937_64 rng(seed);
  for (size_t i = st->stream.size(); shuffle && i > 1; --i) {  // Fisher-Yates
    std::swap(st->stream[i - 1], st->stream[rng() % i]);
  }
  std::vector<std::string> texts;
  for (const StreamItem& item : st->stream) texts.push_back(item.text);
  if (const long rep = FirstRepeat(texts); rep >= 0) {
    Die("no-repeat check failed: stream text " + std::to_string(rep) +
        " repeats an earlier one");
  }
  auto t1 = Clock::now();
  st->dataset_gen_s = Seconds(t0, t1);

  st->engine = std::make_unique<NebulaEngine>(
      &st->ds->catalog, &st->ds->store, &st->ds->meta, config);
  st->engine->RebuildAcg();
  auto t2 = Clock::now();
  st->acg_build_s = Seconds(t1, t2);

  // Warm-up: force every lazy index build the first statements would
  // otherwise pay for (value index and per-column hash indexes).
  for (const auto& table : st->ds->catalog.tables()) {
    if (table->TryValueIndex() == nullptr) Die("value index build failed");
    for (size_t c = 0; c < table->schema().num_columns(); ++c) {
      (void)table->Lookup(c, nebula::Value());
    }
  }
  auto t3 = Clock::now();
  st->index_build_s = Seconds(t2, t3);
  if (!config.durability_dir.empty()) {
    const nebula::Status s = st->engine->OpenDurability();
    if (!s.ok()) Die("OpenDurability failed: " + s.ToString());
    st->baseline_snapshot_s = Seconds(t3, Clock::now());
  }
  return st;
}

// ------------------------------------------------------------- counters ---

/// Sum of the counter samples of `family` whose labels contain `label`
/// (empty: every sample), from a registry snapshot.
using Snap = std::vector<nebula::obs::MetricsRegistry::Family>;
uint64_t CounterSum(const Snap& snap, const std::string& family,
                    const std::string& label = "") {
  uint64_t sum = 0;
  for (const auto& f : snap) {
    if (f.name != family) continue;
    for (const auto& s : f.samples) {
      bool match = label.empty();
      for (const auto& [k, v] : s.labels) match |= (v == label);
      if (match) sum += s.counter_value;
    }
  }
  return sum;
}

nebula::obs::Histogram::Snapshot HistogramDelta(const Snap& before,
                                                const Snap& after,
                                                const std::string& family) {
  auto find = [&](const Snap& snap) {
    for (const auto& f : snap) {
      if (f.name == family && !f.samples.empty()) {
        return f.samples.front().histogram;
      }
    }
    return nebula::obs::Histogram::Snapshot{};
  };
  return find(after).Delta(find(before));
}

struct OsSample {
  double cpu_s = 0;
  uint64_t wchar = 0;
};

OsSample ReadOs() {
  OsSample os;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  os.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                 1e6;
  std::ifstream io("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") os.wchar = value;
  }
  return os;
}

/// Peak resident set size of the process so far (ru_maxrss).
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --------------------------------------------------------- traced ledger ---

/// Per-insert layer times (µs) and counts of the traced re-drive, summed
/// over the pass. Means of sums add up, so the layers plus the remainder
/// equal the traced total exactly.
struct Ledger {
  double tokenize = 0, concept_map = 0, value_map = 0, context_adjust = 0,
         query_formation = 0, minidb = 0, plan = 0, execute = 0,
         identify = 0, store = 0, acg_update = 0, verify_submit = 0,
         total = 0, decide = 0;
  /// The ledger's own bookkeeping inside a timed insert, taken out of it.
  double excluded = 0;
  std::vector<double> totals;
  uint64_t inserts = 0, decides = 0, tokens = 0, queries = 0, statements = 0,
           shared_statements = 0,
           candidates = 0, minidb_tuples = 0, pending = 0, rows_examined = 0,
           matches = 0;
  std::unordered_set<std::string> words;
  double layer_sum() const {
    return tokenize + concept_map + value_map + context_adjust +
           query_formation + minidb + plan + execute + identify + store +
           acg_update + verify_submit;
  }
};

/// What one insert or search produced, as folded into the digest.
struct OpOutput {
  AnnotationId annotation = 0;
  std::vector<CandidateTuple> candidates;
  nebula::SubmitOutcome outcome;
  bool spam = false;
};

OpOutput FromReport(AnnotationReport r) {
  OpOutput o;
  o.annotation = r.annotation;
  o.candidates = std::move(r.candidates);
  o.outcome = r.verification;
  o.spam = r.spam.spam_suspected;
  return o;
}

/// TupleIdentifier::Identify steps 2-3 (grouping with the multi-query
/// reward, §6.2 direct-edge focal adjustment, normalisation, total-order
/// ranking) for the engine's default IdentifyParams. Identify has no public
/// seam between execution and this merge, so the traced re-drive carries a
/// copy; the digest comparison with the untraced engine proves it exact.
std::vector<CandidateTuple> Merge(
    const std::vector<nebula::KeywordQuery>& queries,
    const std::vector<std::vector<nebula::SearchHit>>& per_query,
    const std::vector<TupleId>& focal, const nebula::Acg& acg) {
  struct Accum {
    double confidence = 0.0;
    std::vector<std::string> evidence;
  };
  std::unordered_map<TupleId, Accum, nebula::TupleIdHash> grouped;
  for (size_t qi = 0; qi < per_query.size(); ++qi) {
    for (const auto& hit : per_query[qi]) {
      Accum& acc = grouped[hit.tuple];
      acc.confidence += hit.confidence * queries[qi].weight;
      acc.evidence.push_back(queries[qi].label.empty()
                                 ? queries[qi].ToString()
                                 : queries[qi].label);
    }
  }
  if (!focal.empty()) {
    for (auto& [tuple, acc] : grouped) {
      double reward = 0.0;
      for (const auto& f : focal) {
        reward += acg.EdgeWeight(tuple, f) * acc.confidence;
      }
      acc.confidence += reward;
    }
  }
  double max_conf = 0.0;
  for (const auto& [_, acc] : grouped) {
    max_conf = std::max(max_conf, acc.confidence);
  }
  std::vector<CandidateTuple> out;
  out.reserve(grouped.size());
  for (auto& [tuple, acc] : grouped) {
    CandidateTuple c;
    c.tuple = tuple;
    c.confidence = max_conf > 0.0 ? acc.confidence / max_conf : 0.0;
    for (auto& e : acc.evidence) {
      if (std::find(c.evidence.begin(), c.evidence.end(), e) ==
          c.evidence.end()) {
        c.evidence.push_back(std::move(e));
      }
    }
    out.push_back(std::move(c));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const CandidateTuple& a, const CandidateTuple& b) {
                     if (a.confidence != b.confidence) {
                       return a.confidence > b.confidence;
                     }
                     return a.tuple < b.tuple;
                   });
  return out;
}

/// Stages 1-2 through the layers' public functions, each call timed from
/// outside into `L`. Mirrors NebulaEngine::Discover(WithQueries).
nebula::Result<std::vector<CandidateTuple>> ComposeDiscover(
    NebulaEngine& e, const std::string& text,
    const std::vector<TupleId>& focal, Ledger& L) {
  const NebulaConfig& cfg = e.config();
  auto mark = Clock::now();
  auto lap = [&](double* slot) {
    const auto now = Clock::now();
    *slot += Micros(mark, now);
    mark = now;
  };

  const std::vector<nebula::Token> tokens = nebula::Tokenize(text);
  lap(&L.tokenize);
  nebula::SignatureMapBuilder builder(e.meta());
  const double eps = cfg.generation.epsilon;
  const nebula::SignatureMap concept_map = builder.BuildConceptMap(tokens, eps);
  lap(&L.concept_map);
  const nebula::SignatureMap value_map = builder.BuildValueMap(tokens, eps);
  lap(&L.value_map);
  nebula::SignatureMap context_map =
      nebula::SignatureMapBuilder::Overlay(concept_map, value_map);
  nebula::ContextBasedAdjustment(&context_map, cfg.generation.context);
  lap(&L.context_adjust);
  const nebula::QueryGenerator generator(e.meta(), cfg.generation);
  const std::vector<nebula::KeywordQuery> queries =
      generator.ConceptMapToQueries(context_map);
  lap(&L.query_formation);

  nebula::FocalSpreading spreading(&e.acg(), cfg.spreading);
  nebula::MiniDb mini;
  const nebula::MiniDb* mini_ptr = nullptr;
  if (cfg.enable_focal_spreading && spreading.ShouldApproximate(focal)) {
    mini = spreading.BuildMiniDb(focal);
    mini_ptr = &mini;
  }
  lap(&L.minidb);

  nebula::KeywordSearchEngine& search = e.search_engine();
  const auto plans = e.plan_cache().GetOrCompileGroup(search, queries);
  lap(&L.plan);

  const nebula::ExecStats before = search.stats();
  std::vector<std::vector<nebula::SearchHit>> per_query;
  per_query.reserve(queries.size());
  for (const auto& plan : plans) {
    nebula::ExecStats one;
    auto hits = search.SearchPlan(plan, mini_ptr, &one);
    search.AccumulateStats(one);
    if (!hits.ok()) return hits.status();
    per_query.push_back(std::move(hits).value());
  }
  lap(&L.execute);

  std::vector<CandidateTuple> candidates = Merge(queries, per_query, focal,
                                                 e.acg());
  lap(&L.identify);

  const auto bookkeeping = Clock::now();
  L.tokens += tokens.size();
  for (const auto& t : tokens) L.words.insert(t.lower);
  L.queries += queries.size();
  std::unordered_set<std::string> keys;
  for (const auto& plan : plans) {
    for (const auto& sql : plan) {
      ++L.statements;
      if (!keys.insert(sql.CanonicalKey()).second) ++L.shared_statements;
    }
  }
  L.candidates += candidates.size();
  L.minidb_tuples += mini.size();
  L.rows_examined += search.stats().rows_examined - before.rows_examined;
  L.matches += search.stats().matches - before.matches;
  L.excluded += Micros(bookkeeping, Clock::now());
  return candidates;
}

/// Stages 0-3 of one insert through the layers' public functions, timed
/// from outside. Mirrors NebulaEngine::InsertAnnotation without durability.
nebula::Result<OpOutput> ComposeInsert(NebulaEngine& e, const StreamItem& item,
                                       Ledger* ledger) {
  const auto begin = Clock::now();
  OpOutput out;
  nebula::AnnotationStore& store = *e.store();
  auto t = Clock::now();
  out.annotation = store.AddAnnotation(item.text, "curator");
  double store_us = Micros(t, Clock::now()), acg_us = 0;
  for (size_t i = 0; i < item.focal.size(); ++i) {
    t = Clock::now();
    const nebula::Status s =
        store.Attach(out.annotation, item.focal[i],
                     nebula::AttachmentType::kTrue);
    const auto t2 = Clock::now();
    store_us += Micros(t, t2);
    if (!s.ok()) return s;
    std::vector<TupleId> siblings(item.focal.begin(), item.focal.begin() + i);
    e.acg().AddAttachment(out.annotation, item.focal[i], siblings);
    acg_us += Micros(t2, Clock::now());
  }
  ledger->store += store_us;
  ledger->acg_update += acg_us;

  NEBULA_ASSIGN_OR_RETURN(out.candidates,
                          ComposeDiscover(e, item.text, item.focal, *ledger));

  t = Clock::now();
  const NebulaConfig& cfg = e.config();
  nebula::SpamVerdict spam;
  if (cfg.enable_spam_guard) {
    spam = nebula::DetectSpam(out.candidates, e.catalog()->TotalRows(),
                              cfg.spam_guard);
  }
  out.spam = spam.spam_suspected;
  if (!out.spam) {
    e.verification().set_bounds(cfg.bounds);
    out.outcome = e.verification().Submit(out.annotation, out.candidates);
  }
  const auto end = Clock::now();
  ledger->verify_submit += Micros(t, end);
  const double total = Micros(begin, end) - ledger->excluded;
  ledger->excluded = 0;
  ledger->total += total;
  ledger->totals.push_back(total);
  ledger->pending += out.outcome.pending;
  ++ledger->inserts;
  return out;
}

// ----------------------------------------------------------------- pass ---

struct PassResult {
  std::vector<double> insert_us, search_us, decide_us;
  uint64_t attempted = 0, failed = 0, inserts = 0, text_bytes = 0;
  uint64_t pending_created_quality = 0;
  double wall_s = 0, cpu_s = 0;
  uint64_t wchar = 0;
  uint64_t digest_oracle = 0, digest_check = 0, digest_quality = 0,
           digest_all = 0;
  double recall_quality = 0;
  Snap before, after;
  uint64_t snapshots_written = 0;
  double snapshot_us = 0;
};

enum class Mode { kEngine, kTraced };

struct PassLimits {
  double seconds = 0;        // keep going at least this long
  uint64_t max_inserts = 0;  // replays stop here (0: no limit)
};

void FoldOutput(Digest* d, const OpOutput& o) {
  d->Add(o.annotation);
  d->Add(static_cast<uint64_t>(o.candidates.size()));
  for (const CandidateTuple& c : o.candidates) {
    d->Add(c.tuple.table_id);
    d->Add(c.tuple.row);
    d->AddDouble(c.confidence);
  }
  d->Add(o.outcome.auto_accepted);
  d->Add(o.outcome.auto_rejected);
  d->Add(o.outcome.pending);
  d->Add(o.outcome.already_attached);
  d->Add(o.spam ? 1 : 0);
}

/// One pass of the closed-loop client over the stream: each insert (or
/// batch of inserts) is followed, per insert, by one Discover of a random
/// earlier insert every kSearchEvery inserts and one expert decision on the
/// oldest pending task.
PassResult RunPass(State& st, const WorkloadSpec& w, Mode mode,
                   const PassLimits& limits, uint64_t seed, Ledger* ledger) {
  NebulaEngine& e = *st.engine;
  nebula::sql::SqlSession session(&e);
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  PassResult r;
  Digest digest;
  std::vector<AnnotationId> ids;             // inserted annotations
  std::vector<size_t> id_item;               // their stream items
  std::unordered_map<AnnotationId, size_t> item_of;
  size_t next_task = 0, next_item = 0;

  auto after_insert = [&](size_t item_idx, const std::optional<OpOutput>& res,
                          double latency_us) {
    ++r.attempted;
    r.insert_us.push_back(latency_us);
    r.text_bytes += st.stream[item_idx].text.size();
    if (!res) {
      ++r.failed;
      digest.Add(uint64_t{4});
    } else {
      digest.Add(uint64_t{1});
      FoldOutput(&digest, *res);
      ids.push_back(res->annotation);
      id_item.push_back(item_idx);
      if (r.inserts < kQualityInserts) {
        r.pending_created_quality += res->outcome.pending;
      }
    }
    ++r.inserts;

    if (r.inserts % kSearchEvery == 0 && !ids.empty()) {
      const size_t j = static_cast<size_t>(rng() % ids.size());
      const StreamItem& item = st.stream[id_item[j]];
      ++r.attempted;
      const auto t0 = Clock::now();
      std::optional<OpOutput> found;
      if (mode == Mode::kEngine) {
        auto rep = e.Discover(ids[j], item.focal);
        if (rep.ok()) found = FromReport(std::move(rep).value());
      } else {
        Ledger scratch;  // searches are not in the per-insert ledger
        auto cands = ComposeDiscover(e, item.text, item.focal, scratch);
        if (cands.ok()) {
          found.emplace();
          found->annotation = ids[j];
          found->candidates = std::move(cands).value();
        }
      }
      r.search_us.push_back(Micros(t0, Clock::now()));
      digest.Add(uint64_t{2});
      if (!found) {
        ++r.failed;
      } else {
        FoldOutput(&digest, *found);
      }
    }

    const auto& tasks = e.verification().tasks();
    while (next_task < tasks.size() &&
           tasks[next_task].state != nebula::TaskState::kPending) {
      ++next_task;
    }
    if (next_task < tasks.size()) {
      const nebula::VerificationTask& task = tasks[next_task];
      const auto& truth = st.stream[item_of.at(task.annotation)].truth;
      const bool accept =
          std::find(truth.begin(), truth.end(), task.tuple) != truth.end();
      const std::string stmt = std::string(accept ? "VERIFY" : "REJECT") +
                               " ATTACHMENT " + std::to_string(task.vid);
      const uint64_t vid = task.vid;
      ++r.attempted;
      const auto t0 = Clock::now();
      const auto res = session.Execute(stmt);
      const double us = Micros(t0, Clock::now());
      r.decide_us.push_back(us);
      if (ledger != nullptr) {
        ledger->decide += us;
        ++ledger->decides;
      }
      if (!res.ok()) ++r.failed;
      digest.Add(uint64_t{3});
      digest.Add(vid);
      digest.Add(accept && res.ok() ? 1 : 0);
      ++next_task;
    }
    if (r.inserts == kOracleInserts) r.digest_oracle = digest.value();
    if (r.inserts == kCheckInserts) r.digest_check = digest.value();
    if (r.inserts == kQualityInserts) r.digest_quality = digest.value();
  };

  auto enough = [&](double elapsed) {
    if (limits.max_inserts != 0) return r.inserts >= limits.max_inserts;
    if (r.inserts < kCheckInserts || elapsed < limits.seconds) return false;
    // Keep going until every p99 has 10 samples beyond it, up to 3x the
    // requested window.
    const bool samples = r.insert_us.size() >= kMinSamples &&
                         r.search_us.size() >= kMinSamples &&
                         r.decide_us.size() >= kMinSamples;
    return samples || elapsed >= 3 * limits.seconds;
  };

  r.before = nebula::obs::MetricsRegistry::Global().Snapshot();
  const OsSample os0 = ReadOs();
  nebula::durability::Manager* dm = e.durability();
  const uint64_t snaps0 = dm != nullptr ? dm->snapshots_written() : 0;
  const auto start = Clock::now();
  while (next_item < st.stream.size() &&
         !enough(Seconds(start, Clock::now()))) {
    // A batch's follow-up searches and decisions run after the whole batch,
    // in both modes, so the traced re-drive sees the same state sequence.
    const size_t n = std::min(w.batched ? kSpreadBatch : size_t{1},
                              st.stream.size() - next_item);
    std::vector<std::optional<OpOutput>> outs(n);
    std::vector<double> latency(n);
    if (mode == Mode::kEngine && w.batched) {
      std::vector<nebula::AnnotationRequest> reqs;
      for (size_t k = 0; k < n; ++k) {
        const StreamItem& item = st.stream[next_item + k];
        reqs.push_back({item.text, item.focal, "curator"});
      }
      const auto t0 = Clock::now();
      auto reps = e.InsertAnnotations(reqs);
      latency.assign(n, Micros(t0, Clock::now()) / static_cast<double>(n));
      for (size_t k = 0; reps.ok() && k < n; ++k) {
        outs[k] = FromReport(std::move((*reps)[k]));
      }
    } else {
      for (size_t k = 0; k < n; ++k) {
        const StreamItem& item = st.stream[next_item + k];
        const auto t0 = Clock::now();
        if (mode == Mode::kEngine) {
          auto rep = e.InsertAnnotation(item.text, item.focal, "curator");
          if (rep.ok()) outs[k] = FromReport(std::move(rep).value());
        } else {
          auto res = ComposeInsert(e, item, ledger);
          if (res.ok()) outs[k] = std::move(res).value();
        }
        latency[k] = Micros(t0, Clock::now());
      }
    }
    // Register the whole batch first: a decision after its first insert
    // may already meet a task of a later one.
    for (size_t k = 0; k < n; ++k) {
      if (outs[k]) item_of[outs[k]->annotation] = next_item + k;
    }
    for (size_t k = 0; k < n; ++k) {
      after_insert(next_item + k, outs[k], latency[k]);
    }
    next_item += n;
  }
  const auto stop = Clock::now();
  const OsSample os1 = ReadOs();
  r.after = nebula::obs::MetricsRegistry::Global().Snapshot();
  r.wall_s = Seconds(start, stop);
  r.cpu_s = os1.cpu_s - os0.cpu_s;
  r.wchar = os1.wchar - os0.wchar;
  r.digest_all = digest.value();
  if (r.inserts <
      (limits.max_inserts != 0 ? limits.max_inserts : kCheckInserts)) {
    Die("stream exhausted before the digest check point");
  }
  if (dm != nullptr) {
    r.snapshots_written = dm->snapshots_written() - snaps0;
    std::vector<double> snap_us;
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      if (!dm->SnapshotNow().ok()) Die("SnapshotNow failed");
      snap_us.push_back(Micros(t0, Clock::now()));
    }
    r.snapshot_us = Percentile(snap_us, 0.5);
  }

  // Recall over the quality inserts: ground-truth tuples outside the focal
  // that a task surfaced (auto-accepted or pending, whether or not an
  // expert has decided it since).
  std::unordered_map<AnnotationId, std::unordered_set<uint64_t>> surfaced;
  for (const auto& task : e.verification().tasks()) {
    if (task.state == nebula::TaskState::kAutoRejected) continue;
    surfaced[task.annotation].insert(
        (uint64_t{task.tuple.table_id} << 40) ^ task.tuple.row);
  }
  uint64_t hit = 0, total = 0;
  for (size_t k = 0; k < std::min<size_t>(ids.size(), kQualityInserts); ++k) {
    const StreamItem& item = st.stream[id_item[k]];
    for (size_t g = item.focal.size(); g < item.truth.size(); ++g) {
      ++total;
      const uint64_t key =
          (uint64_t{item.truth[g].table_id} << 40) ^ item.truth[g].row;
      hit += surfaced[ids[k]].count(key);
    }
  }
  r.recall_quality = total == 0 ? 0 : static_cast<double>(hit) / total;
  return r;
}

// -------------------------------------------------------------- output ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Reference digests of the quality pass: lines "<workload> <hex>".
std::string LookupDigest(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string k, hex;
  while (in >> k >> hex) {
    if (k == key) return hex;
  }
  return "";
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    o << (i ? ", " : "") << "\"" << metrics[i].name
      << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
      << metrics[i].unit << "\"}";
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
}

void PrintLine(const std::string& name, double value, const std::string& unit) {
  std::printf("%-34s %14.4f %s\n", name.c_str(), value, unit.c_str());
}

double PerOp(double v, uint64_t n) {
  return n == 0 ? 0 : v / static_cast<double>(n);
}

struct Args {
  std::string workload, digests, tmp;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false, record = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = next();
    else if (k == "--seed") a.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(next().c_str(), nullptr);
    else if (k == "--trace") a.trace = next() == "1";
    else if (k == "--digests") a.digests = next();
    else if (k == "--tmp") a.tmp = next();
    else if (k == "--record") a.record = true;
    else Die("unknown argument " + k);
  }
  if (a.workload.empty() || a.tmp.empty()) {
    Die("--workload and --tmp are required");
  }
  return a;
}

std::string FreshDir(const Args& a, const std::string& tag) {
  static int counter = 0;
  const std::string dir = a.tmp + "/" + tag + "-" + std::to_string(counter++);
  std::filesystem::remove_all(dir);
  return dir;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec w = MakeWorkload(args.workload);

  auto config_for = [&](bool durable) {
    NebulaConfig c = w.config;
    c.durability_dir = durable ? FreshDir(args, w.name) : "";
    return c;
  };
  auto seeded_state = [&](const NebulaConfig& c) {
    return MakeState(args.seed, /*shuffle=*/true, w.delta, c);
  };

  // Quality pass: the first kQualityInserts inserts of the corpus-order
  // stream with seed 0, in memory (durability never changes results).
  auto quality_pass = [&]() {
    auto st = MakeState(0, /*shuffle=*/false, w.delta, config_for(false));
    PassResult q =
        RunPass(*st, w, Mode::kEngine, {0, kQualityInserts}, 0, nullptr);
    return std::make_pair(st->total_s(), std::move(q));
  };
  if (args.record) {
    std::printf("%s %s\n", w.name.c_str(),
                Hex(quality_pass().second.digest_quality).c_str());
    return 0;
  }

  bool correct = true;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("check %-40s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    correct = correct && ok;
  };

  // --trace 0 sets up five times: the oracle, the quality pass, two set-ups
  // that are only timed, and the measured pass. The oracle replays the first inserts on the legacy
  // scan-and-recompile path without the pool or durability, which the
  // engine guarantees bit-identical to the accelerated path.
  std::vector<double> setups;
  uint64_t oracle_digest = 0;
  PassResult quality;
  double quality_rss_mb = 0;
  if (!args.trace) {
    NebulaConfig c = config_for(false);
    c.use_value_index = false;
    c.num_threads = 0;
    auto st = seeded_state(c);
    setups.push_back(st->total_s());
    oracle_digest = RunPass(*st, w, Mode::kEngine, {0, kOracleInserts},
                            args.seed, nullptr).digest_oracle;
    st.reset();
    auto [setup, q] = quality_pass();
    setups.push_back(setup);
    quality = std::move(q);
    // Memory is read here, over the fixed quality stream: the measured
    // window's peak grows with however many inserts the run got through.
    quality_rss_mb = PeakRssMb();
    // Set-ups that are only timed: one set-up takes about a second and
    // varies by up to a third within a run, so setup_s is a median of five.
    for (int i = 0; i < 2; ++i) {
      setups.push_back(seeded_state(config_for(false))->total_s());
    }
  }
  auto st = seeded_state(config_for(false));
  setups.push_back(st->total_s());
  const double setup_s = Percentile(setups, 0.5);
  PrintLine("setup.dataset_gen_s", st->dataset_gen_s, "s");
  PrintLine("setup.acg_build_s", st->acg_build_s, "s");
  PrintLine("setup.index_build_s", st->index_build_s, "s");

  const PassResult a =
      RunPass(*st, w, Mode::kEngine, {args.seconds, 0}, args.seed, nullptr);
  const Timing ins = Summarize(a.insert_us), srch = Summarize(a.search_us),
               dec = Summarize(a.decide_us);
  const uint64_t ops = a.attempted - a.failed;

  PrintLine("samples.insert", static_cast<double>(ins.n), "count");
  PrintLine("samples.search", static_cast<double>(srch.n), "count");
  PrintLine("samples.decide", static_cast<double>(dec.n), "count");
  PrintLine("window_s", a.wall_s, "s");
  PrintLine("fail_frac", PerOp(static_cast<double>(a.failed), a.attempted),
            "frac");

  if (!args.trace) {
    check(a.digest_oracle == oracle_digest, "oracle digest (legacy scan path)");
    const std::string recorded = LookupDigest(args.digests, w.name);
    check(recorded == Hex(quality.digest_quality),
          "recorded digest " + (recorded.empty() ? "(missing)" : recorded));
    std::printf("digest %s inserts=%zu\n", Hex(quality.digest_quality).c_str(),
                kQualityInserts);
    check(ins.p99_supported && srch.p99_supported,
          ">=10 samples beyond every p99");
    const std::vector<Metric> e2e = {
        {"setup_s", setup_s, "s"},
        {"ops_per_s", static_cast<double>(ops) / a.wall_s, "1/s"},
        {"cpu_us_per_op", PerOp(a.cpu_s * 1e6, ops), "us"},
        {"insert_p50_us", ins.p50, "us"},
        {"insert_p99_us", ins.p99, "us"},
        {"search_p50_us", srch.p50, "us"},
        {"search_p99_us", srch.p99, "us"},
        {"peak_rss_mb", quality_rss_mb, "MB"},
        {"recall", quality.recall_quality, "frac"},
        {"expert_tasks_per_insert",
         PerOp(static_cast<double>(quality.pending_created_quality),
               kQualityInserts),
         "count"},
    };
    for (const Metric& m : e2e) PrintLine(m.name, m.value, m.unit);
    PrintLine("decide_p99_us", dec.p99, "us");
    st.reset();
    PrintJson(correct, a.attempted, a.failed, e2e);
    return correct ? 0 : 1;
  }

  // ---- traced run: counters from pass A, layer times from pass B.
  auto counter_delta = [&](const PassResult& p, const std::string& fam,
                           const std::string& label = "") {
    return static_cast<double>(CounterSum(p.after, fam, label) -
                               CounterSum(p.before, fam, label));
  };
  const double plan_hit = counter_delta(a, "nebula_plan_cache_total", "hit");
  const double plan_all = counter_delta(a, "nebula_plan_cache_total");
  const double memo_hit =
      counter_delta(a, "nebula_sql_result_cache_total", "hit");
  const double memo_all = counter_delta(a, "nebula_sql_result_cache_total");
  const double probe_index =
      counter_delta(a, "nebula_value_index_probe_total", "index");
  const double probe_all = counter_delta(a, "nebula_value_index_probe_total");
  const double pool_tasks =
      counter_delta(a, "nebula_pool_tasks_executed_total");
  const auto pool_wait =
      HistogramDelta(a.before, a.after, "nebula_pool_queue_wait_us");
  PrintLine("base.plan_lookups", plan_all, "count");
  PrintLine("base.memo_lookups", memo_all, "count");
  PrintLine("base.statement_probes", probe_all, "count");
  PrintLine("base.pool_queue_waits", static_cast<double>(pool_wait.count),
            "count");
  st.reset();

  auto b_state = seeded_state(config_for(false));
  Ledger L;
  const PassResult b = RunPass(*b_state, w, Mode::kTraced, {0, a.inserts},
                               args.seed, &L);
  b_state.reset();
  check(b.digest_all == a.digest_all, "traced digest == untraced digest");

  // Durability probe: the first inserts with durability on; it supplies
  // durability.*.
  auto c_state = seeded_state(config_for(true));
  PrintLine("setup.baseline_snapshot_s", c_state->baseline_snapshot_s, "s");
  const PassResult c = RunPass(*c_state, w, Mode::kEngine, {0, kCheckInserts},
                               args.seed, nullptr);
  c_state.reset();
  check(c.digest_check == a.digest_check, "durable digest == in-memory digest");
  // Means, not medians: a cadence snapshot lands on one insert in 64.
  auto mean = [](const std::vector<double>& v, size_t n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) sum += v[i];
    return sum / static_cast<double>(n);
  };
  const double a_mean = mean(a.insert_us, kCheckInserts);
  const double c_mean = mean(c.insert_us, kCheckInserts);
  const uint64_t c_ops = c.attempted - c.failed;
  PrintLine("pass.engine_insert_mean_us", a_mean, "us");
  PrintLine("pass.probe_insert_mean_us", c_mean, "us");
  PrintLine("pass.engine_insert_p50_us", Percentile(a.insert_us, 0.5), "us");
  PrintLine("pass.traced_insert_p50_us", Percentile(L.totals, 0.5), "us");

  const double n = static_cast<double>(L.inserts);
  const double layers = L.layer_sum();
  const std::vector<Metric> per_layer = {
      {"text.tokenize_us", L.tokenize / n, "us"},
      {"text.tokens_per_insert", L.tokens / n, "count"},
      {"text.distinct_word_frac", PerOp(L.words.size(), L.tokens), "frac"},
      {"core.concept_map_us", L.concept_map / n, "us"},
      {"core.value_map_us", L.value_map / n, "us"},
      {"core.context_adjust_us", L.context_adjust / n, "us"},
      {"core.query_formation_us", L.query_formation / n, "us"},
      {"core.queries_per_insert", L.queries / n, "count"},
      {"core.plan_us", L.plan / n, "us"},
      {"core.plan_hit_frac", PerOp(plan_hit, plan_all), "frac"},
      {"keyword.execute_us", L.execute / n, "us"},
      {"keyword.sql_per_insert", L.statements / n, "count"},
      {"keyword.sql_shared_frac", PerOp(L.shared_statements, L.statements),
       "frac"},
      {"keyword.memo_hit_frac", PerOp(memo_hit, memo_all), "frac"},
      {"storage.rows_examined_per_insert", L.rows_examined / n, "count"},
      {"storage.rows_examined_per_match", PerOp(L.rows_examined, L.matches),
       "count"},
      {"storage.index_path_frac", PerOp(probe_index, probe_all), "frac"},
      {"core.identify_us", L.identify / n, "us"},
      {"core.candidates_per_insert", L.candidates / n, "count"},
      {"core.minidb_us", L.minidb / n, "us"},
      {"core.minidb_tuples", L.minidb_tuples / n, "count"},
      {"common.pool_tasks_per_insert", PerOp(pool_tasks, a.inserts), "count"},
      {"common.pool_queue_wait_p99_us",
       static_cast<double>(pool_wait.Quantile(0.99)), "us"},
      {"annotation.store_us", L.store / n, "us"},
      {"core.acg_update_us", L.acg_update / n, "us"},
      {"core.verify_submit_us", L.verify_submit / n, "us"},
      {"core.tasks_pending_per_insert", L.pending / n, "count"},
      {"sql.decide_us", PerOp(L.decide, L.decides), "us"},
      {"sql.decide_p99_us", dec.p99, "us"},
      {"durability.snapshot_us", c.snapshot_us, "us"},
      {"durability.snapshots_per_kop",
       PerOp(1000.0 * static_cast<double>(c.snapshots_written), c_ops),
       "count"},
      {"durability.wal_bytes_per_op",
       PerOp(counter_delta(c, "nebula_wal_bytes_total"), c_ops), "B"},
      {"durability.write_amp",
       PerOp(static_cast<double>(c.wchar), c.text_bytes), "ratio"},
      {"durability.append_us", c_mean - a_mean, "us"},
      {"core.traced_insert_us", L.total / n, "us"},
      {"core.unattributed_us", (L.total - layers) / n, "us"},
      {"core.engine_overhead_us",
       Percentile(a.insert_us, 0.5) - Percentile(L.totals, 0.5), "us"},
  };
  for (const Metric& m : per_layer) PrintLine(m.name, m.value, m.unit);
  PrintJson(correct, a.attempted + b.attempted + c.attempted,
            a.failed + b.failed + c.failed, per_layer);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace curbench

int main(int argc, char** argv) { return curbench::Main(argc, argv); }
