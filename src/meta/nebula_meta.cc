#include "meta/nebula_meta.h"

#include <algorithm>
#include <memory>

#include "common/fault.h"
#include "common/fault_points.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/sync.h"
#include "obs/metrics.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "storage/value.h"
#include "text/lexicon.h"
#include "text/pattern.h"
#include "text/similarity.h"

namespace nebula {

namespace {

/// Process-wide word-score memo instruments, resolved once.
struct WordMemoMetrics {
  obs::Counter* hit;
  obs::Counter* miss;
  obs::Counter* budget_drop;
  obs::Counter* version_drop;
  obs::Gauge* bytes;
};

const WordMemoMetrics& Metrics() {
  static const WordMemoMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    WordMemoMetrics out;
    out.hit = r.GetCounter("nebula_meta_word_memo_total", {{"outcome", "hit"}},
                           "Word-score memo outcomes: hit = scores served "
                           "from the memo, miss = scored cold");
    out.miss =
        r.GetCounter("nebula_meta_word_memo_total", {{"outcome", "miss"}}, "");
    out.budget_drop = r.GetCounter(
        "nebula_meta_word_memo_drops_total", {{"reason", "budget"}},
        "Word-score memo wholesale drops: budget = a fill found it full, "
        "version = the meta changed under a non-empty memo");
    out.version_drop = r.GetCounter("nebula_meta_word_memo_drops_total",
                                    {{"reason", "version"}}, "");
    out.bytes = r.GetGauge("nebula_meta_word_memo_bytes", {},
                           "Resident bytes of the word-score memo");
    return out;
  }();
  return m;
}

}  // namespace

NebulaMeta::NebulaMeta(Lexicon lexicon) : lexicon_(std::move(lexicon)) {}

Status NebulaMeta::AddConcept(
    const std::string& concept_name, const std::string& table_name,
    std::vector<std::vector<std::string>> referenced_by) {
  if (referenced_by.empty()) {
    return Status::InvalidArgument("concept '" + concept_name +
                                   "' has no referencing columns");
  }
  ConceptRef ref;
  ref.concept_name = concept_name;
  ref.table_name = ToLower(table_name);
  for (auto& combo : referenced_by) {
    std::vector<std::string> lowered;
    lowered.reserve(combo.size());
    for (auto& c : combo) lowered.push_back(ToLower(c));
    ref.referenced_by.push_back(std::move(lowered));
  }
  // Register the table as a schema item once.
  const bool table_known =
      std::any_of(schema_items_.begin(), schema_items_.end(),
                  [&](const SchemaItem& it) {
                    return it.kind == SchemaItem::Kind::kTable &&
                           it.table == ref.table_name;
                  });
  if (!table_known) {
    SchemaItem item;
    item.kind = SchemaItem::Kind::kTable;
    item.table = ref.table_name;
    item.name = ref.table_name;
    schema_items_.push_back(item);
  }
  // Register each referencing column as a schema item + value column.
  for (const auto& combo : ref.referenced_by) {
    for (const auto& col : combo) {
      const std::string key = ref.table_name + "." + col;
      if (value_column_index_.count(key) > 0) continue;
      SchemaItem item;
      item.kind = SchemaItem::Kind::kColumn;
      item.table = ref.table_name;
      item.column = col;
      item.name = col;
      schema_items_.push_back(item);

      ValueColumn vc;
      vc.table = ref.table_name;
      vc.column = col;
      value_column_index_.emplace(key, value_columns_.size());
      value_columns_.push_back(std::move(vc));
    }
  }
  concepts_.push_back(std::move(ref));
  ++version_;
  return Status::OK();
}

void NebulaMeta::AddTableAlias(const std::string& table,
                               const std::string& alias) {
  auto& tokens = aliases_[ToLower(table)];
  for (const auto& tok : SplitWhitespace(ToLower(alias))) tokens.insert(tok);
  ++version_;
}

void NebulaMeta::AddColumnAlias(const std::string& table,
                                const std::string& column,
                                const std::string& alias) {
  auto& tokens = aliases_[ToLower(table) + "." + ToLower(column)];
  for (const auto& tok : SplitWhitespace(ToLower(alias))) tokens.insert(tok);
  ++version_;
}

Status NebulaMeta::SetColumnPattern(const std::string& table,
                                    const std::string& column,
                                    const std::string& regex) {
  const std::string key = ToLower(table) + "." + ToLower(column);
  auto it = value_column_index_.find(key);
  if (it == value_column_index_.end()) {
    return Status::NotFound("value column " + key +
                            " (declare it via AddConcept first)");
  }
  NEBULA_ASSIGN_OR_RETURN(ValuePattern pattern, ValuePattern::Compile(regex));
  value_columns_[it->second].pattern = std::move(pattern);
  ++version_;
  return Status::OK();
}

Status NebulaMeta::SetColumnOntology(const std::string& table,
                                     const std::string& column,
                                     const std::vector<std::string>& terms) {
  const std::string key = ToLower(table) + "." + ToLower(column);
  auto it = value_column_index_.find(key);
  if (it == value_column_index_.end()) {
    return Status::NotFound("value column " + key +
                            " (declare it via AddConcept first)");
  }
  auto& onto = value_columns_[it->second].ontology;
  onto.clear();
  for (const auto& t : terms) onto.insert(ToLower(t));
  ++version_;
  return Status::OK();
}

Status NebulaMeta::DrawColumnSamples(const Catalog& catalog,
                                     size_t per_column, Rng* rng) {
  for (auto& vc : value_columns_) {
    NEBULA_ASSIGN_OR_RETURN(const Table* table, catalog.GetTable(vc.table));
    const int ord = table->schema().ColumnIndex(vc.column);
    if (ord < 0) {
      return Status::NotFound("column " + vc.Key());
    }
    vc.type = table->schema().column(static_cast<size_t>(ord)).type;
    if (vc.pattern.has_value() || !vc.ontology.empty()) continue;
    const uint64_t n = table->num_rows();
    if (n == 0) continue;
    const uint64_t k = std::min<uint64_t>(per_column, n);
    vc.samples.clear();
    vc.sample_trigrams.clear();
    vc.sample_trigram_index.clear();
    vc.samples_lower.clear();
    for (uint64_t r : rng->SampleWithoutReplacement(n, k)) {
      vc.samples.push_back(
          table->GetCell(r, static_cast<size_t>(ord)).ToString());
      const std::string lower = ToLower(vc.samples.back());
      vc.samples_lower.insert(lower);
      vc.sample_trigrams.push_back(TrigramIdSet(lower));
      const uint32_t ordinal =
          static_cast<uint32_t>(vc.sample_trigrams.size() - 1);
      for (uint32_t gram : vc.sample_trigrams.back()) {
        vc.sample_trigram_index[gram].push_back(ordinal);
      }
    }
  }
  ++version_;
  return Status::OK();
}

const ValueColumn* NebulaMeta::FindValueColumn(
    const std::string& table, const std::string& column) const {
  auto it = value_column_index_.find(ToLower(table) + "." + ToLower(column));
  return it == value_column_index_.end() ? nullptr
                                         : &value_columns_[it->second];
}

NebulaMeta::ConceptProbe NebulaMeta::MakeConceptProbe(
    const std::string& lower_word) const {
  std::string stem = StemLite(lower_word);
  const size_t stem_ring = lexicon_.RingOf(stem);
  return {lower_word, std::move(stem), lexicon_.RingOf(lower_word), stem_ring,
          lexicon_.HasHypernyms(lower_word)};
}

double NebulaMeta::ConceptScore(const ConceptProbe& probe,
                                const SchemaItem& item) const {
  // (1) Exact / stemmed name match.
  if (probe.word == item.name) return scoring_.exact_name;
  if (probe.stem == item.name || probe.stem == StemLite(item.name)) {
    return scoring_.stemmed_name;
  }
  // (2) Expert-provided equivalent names.
  auto it = aliases_.find(item.Key());
  if (it != aliases_.end() && it->second.count(probe.word) > 0) {
    return scoring_.equivalent_name;
  }
  // (3) Lexicon synonyms (and stemmed synonyms: "loci" is tricky, but
  // "locuses"/"articles" style plurals should still hit), then hyponyms.
  // Equal words were caught by (1), so a shared ring is the whole test.
  if (probe.ring != Lexicon::kNoRing || probe.stem_ring != Lexicon::kNoRing) {
    const size_t item_ring = lexicon_.RingOf(item.name);
    if (item_ring != Lexicon::kNoRing &&
        (item_ring == probe.ring || item_ring == probe.stem_ring)) {
      return scoring_.synonym_name;
    }
  }
  if (probe.has_hypernyms && lexicon_.IsHyponymOf(probe.word, item.name)) {
    return scoring_.synonym_name;
  }
  return 0.0;
}

double NebulaMeta::ConceptMatchScore(const std::string& lower_word,
                                     const SchemaItem& item) const {
  return ConceptScore(MakeConceptProbe(lower_word), item);
}

double NebulaMeta::DomainMatchScore(const std::string& word,
                                    const ValueColumn& column) const {
  // Factor (1): data-type compatibility is a gate. A word that cannot be a
  // value of the column's type scores zero outright.
  bool type_ok = false;
  switch (column.type) {
    case DataType::kInt64:
      type_ok = LooksLikeInteger(word);
      break;
    case DataType::kDouble:
      type_ok = LooksLikeNumber(word);
      break;
    case DataType::kString:
      type_ok = true;
      break;
  }
  if (!type_ok) return 0.0;
  double score = scoring_.type_compatible;

  const std::string lower = ToLower(word);
  bool structured_evidence = false;  // ontology or pattern present

  // Factor (2): ontology membership.
  if (!column.ontology.empty()) {
    structured_evidence = true;
    if (column.ontology.count(lower) > 0) score += scoring_.ontology_member;
  }
  // Factor (3): syntactic pattern.
  if (column.pattern.has_value()) {
    structured_evidence = true;
    if (column.pattern->Matches(word)) score += scoring_.pattern_match;
  }
  // Factor (4): sample matching, only when no structured domain knowledge
  // exists for the column (paper §5.1 (5)).
  if (!structured_evidence && !column.samples.empty()) {
    double best = 0.0;
    if (column.samples_lower.count(lower) > 0) {
      best = scoring_.sample_exact;
    } else {
      // Fuzzy matching by ScanCount (Li, Lu and Lu, ICDE 2008): walking
      // the word's trigrams through the inverted index counts the
      // trigrams each sample shares with the word. That count is the
      // intersection TrigramJaccardIds merges for, so sim below is the
      // same division of the same integers; samples sharing none have
      // similarity 0. The counts are per call: pool workers score
      // concurrently.
      const std::vector<uint32_t> word_trigrams = TrigramIdSet(lower);
      std::vector<uint32_t> shared(column.samples.size(), 0);
      for (uint32_t gram : word_trigrams) {
        auto it = column.sample_trigram_index.find(gram);
        if (it == column.sample_trigram_index.end()) continue;
        for (uint32_t i : it->second) ++shared[i];
      }
      for (size_t i = 0; i < shared.size(); ++i) {
        if (shared[i] == 0) continue;
        const size_t inter = shared[i];
        const size_t uni =
            column.sample_trigrams[i].size() + word_trigrams.size() - inter;
        const double sim =
            static_cast<double>(inter) / static_cast<double>(uni);
        if (sim >= scoring_.sample_fuzzy_hi_threshold) {
          best = std::max(best, scoring_.sample_fuzzy_hi_scale * sim);
        } else if (sim >= scoring_.sample_fuzzy_lo_threshold) {
          best = std::max(best, scoring_.sample_fuzzy_lo_scale * sim);
        }
      }
    }
    score += best;
  }
  return std::min(score, 1.0);
}

std::shared_ptr<const WordScores> NebulaMeta::ScoreWord(
    const std::string& word) const {
  {
    MutexLock lock(word_memo_.mutex);
    word_memo_.Sync(version_);
    auto it = word_memo_.words.find(word);
    if (it != word_memo_.words.end()) {
      if constexpr (obs::kEnabled) Metrics().hit->Increment();
      return it->second;
    }
  }
  if constexpr (obs::kEnabled) Metrics().miss->Increment();
  auto scores = std::make_shared<WordScores>();
  const std::string lower = ToLower(word);
  const ConceptProbe probe = MakeConceptProbe(lower);
  scores->concept_scores.reserve(schema_items_.size());
  for (const SchemaItem& item : schema_items_) {
    scores->concept_scores.push_back(ConceptScore(probe, item));
  }
  scores->domain_scores.reserve(value_columns_.size());
  for (const ValueColumn& column : value_columns_) {
    scores->domain_scores.push_back(DomainMatchScore(word, column));
  }
  // Charged: the key, the scores and the hash node. An entry larger than
  // the whole budget (a hostile token) is not kept; one that would
  // overflow it drops every entry first. A failed fill only costs the
  // next caller a recomputation.
  const size_t charge =
      word.size() + 64 + sizeof(WordScores) +
      sizeof(double) * (schema_items_.size() + value_columns_.size());
  if (!NEBULA_FAULT_SHOULD_FAIL(kFaultMetaWordMemoFill) &&
      charge <= kWordMemoBudgetBytes) {
    MutexLock lock(word_memo_.mutex);
    word_memo_.Sync(version_);
    if (word_memo_.bytes + charge > kWordMemoBudgetBytes) {
      word_memo_.Clear();
      if constexpr (obs::kEnabled) Metrics().budget_drop->Increment();
    }
    if (word_memo_.words.emplace(word, scores).second) {
      word_memo_.bytes += charge;
    }
    if constexpr (obs::kEnabled) {
      Metrics().bytes->Set(static_cast<int64_t>(word_memo_.bytes));
    }
  }
  return scores;
}

void NebulaMeta::WordMemo::Sync(uint64_t meta_version) {
  if (meta_version == version) return;
  if constexpr (obs::kEnabled) {
    if (!words.empty()) Metrics().version_drop->Increment();
  }
  Clear();
  version = meta_version;
}

size_t NebulaMeta::word_memo_size() const {
  MutexLock lock(word_memo_.mutex);
  word_memo_.Sync(version_);
  return word_memo_.words.size();
}

size_t NebulaMeta::word_memo_bytes() const {
  MutexLock lock(word_memo_.mutex);
  word_memo_.Sync(version_);
  return word_memo_.bytes;
}

}  // namespace nebula
