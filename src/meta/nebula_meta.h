#ifndef NEBULA_META_NEBULA_META_H_
#define NEBULA_META_NEBULA_META_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/lock_rank.h"
#include "common/random.h"
#include "common/status.h"
#include "common/sync.h"
#include "storage/catalog.h"
#include "storage/value.h"
#include "text/lexicon.h"
#include "text/pattern.h"

namespace nebula {

namespace durability {
class MetaSerializer;
}  // namespace durability

/// One row of the ConceptRefs system table (paper Figure 3): a key database
/// concept, the table that stores it, and the alternative column
/// combinations by which annotations usually reference it.
struct ConceptRef {
  std::string concept_name;  ///< e.g. "Gene"
  std::string table_name;    ///< e.g. "gene"
  /// Alternatives; each inner vector is a column combination, e.g.
  /// {{"pid"}, {"pname","ptype"}} for Protein.
  std::vector<std::vector<std::string>> referenced_by;
};

/// A schema item that annotation words may reference: a table (rectangle in
/// the paper's Concept-Map rendering) or a column (triangle).
struct SchemaItem {
  enum class Kind { kTable, kColumn };
  Kind kind = Kind::kTable;
  std::string table;   ///< Owning table (lower-case).
  std::string column;  ///< Column name (lower-case); empty for kTable.
  std::string name;    ///< Display/matching name (lower-case).

  std::string Key() const {
    return kind == Kind::kTable ? table : table + "." + column;
  }
};

/// A column eligible to be referenced *by value* inside an annotation —
/// i.e. a column mentioned in some ConceptRef.referenced_by entry —
/// together with everything NebulaMeta knows about its value domain.
struct ValueColumn {
  std::string table;
  std::string column;
  DataType type = DataType::kString;
  /// Syntactic pattern of the column's values, when declared.
  std::optional<ValuePattern> pattern;
  /// Controlled vocabulary for the column, when declared (lower-cased).
  std::unordered_set<std::string> ontology;
  /// Random sample of actual values, drawn by DrawColumnSamples.
  std::vector<std::string> samples;
  /// Precomputed packed trigram sets of the (lower-cased) samples,
  /// parallel to `samples`; filled by DrawColumnSamples so per-word
  /// scoring avoids rebuilding the sample side on every call.
  std::vector<std::vector<uint32_t>> sample_trigrams;
  /// Inverted index: trigram -> ordinals of samples containing it. Lets
  /// the scorer skip samples sharing no trigram with the probed word
  /// (the common case for identifier-shaped words).
  std::unordered_map<uint32_t, std::vector<uint32_t>> sample_trigram_index;
  /// Lower-cased sample values for O(1) exact matching.
  std::unordered_set<std::string> samples_lower;

  std::string Key() const { return table + "." + column; }
};

/// Weights of the individual evidence factors combined by
/// NebulaMeta::DomainMatchScore / ConceptMatchScore. Exposed so tests and
/// the ablation benchmarks can manipulate them.
struct MetaScoringParams {
  // Concept matching p(w,c) — paper §5.2.1 step 1.
  double exact_name = 1.0;        ///< w exactly matches the item name.
  double stemmed_name = 0.95;     ///< stem(w) matches ("genes" -> "gene").
  double equivalent_name = 0.9;   ///< w matches an expert alias.
  double synonym_name = 0.7;      ///< w is a lexicon synonym of the name.
  // Domain matching d(w,c) — paper §5.2.1 step 2 (additive, clamped to 1).
  double type_compatible = 0.25;  ///< w parses as the column's data type.
  double ontology_member = 0.65;  ///< w is in the column's ontology.
  double pattern_match = 0.65;    ///< w matches the column's regex.
  double sample_exact = 0.65;     ///< w equals a sampled value.
  /// Two-segment fuzzy sample matching: close near-misses (e.g. an
  /// unsampled variant "Kinase2" of a sampled "Kinase") land in the
  /// hi band and score near the medium-confidence range; distant
  /// resemblances land in the lo band and score weakly.
  double sample_fuzzy_hi_threshold = 0.55;
  double sample_fuzzy_hi_scale = 0.75;
  double sample_fuzzy_lo_threshold = 0.30;
  double sample_fuzzy_lo_scale = 0.35;
};

/// One surface word scored against the whole metadata (paper §5.2.1):
/// `concept_scores[i]` is p(w, schema_items()[i]) and `domain_scores[j]`
/// is d(w, value_columns()[j]).
struct WordScores {
  std::vector<double> concept_scores;
  std::vector<double> domain_scores;
};

/// NebulaMeta — the auxiliary-information repository of §5.1.
///
/// Aggregates: the ConceptRefs catalog, expert-provided equivalent names
/// for tables/columns, per-column ontologies, syntactic value patterns,
/// drawn value samples, and a lexical knowledge base (WordNet stand-in).
/// The two scoring entry points, `ConceptMatchScore` (p(w,c)) and
/// `DomainMatchScore` (d(w,c)), are what signature-map generation consumes.
class NebulaMeta {
 public:
  explicit NebulaMeta(Lexicon lexicon = Lexicon::BuiltinEnglishBio());

  /// Registers a concept row; also registers its table and referencing
  /// columns as schema items / value columns.
  [[nodiscard]] Status AddConcept(const std::string& concept_name,
                    const std::string& table_name,
                    std::vector<std::vector<std::string>> referenced_by);

  /// Expert-provided equivalent name for a table ("publication" ~ "pub").
  void AddTableAlias(const std::string& table, const std::string& alias);
  /// Expert-provided equivalent name for a column ("gid" ~ "gene id").
  /// Multi-word aliases are matched token-wise.
  void AddColumnAlias(const std::string& table, const std::string& column,
                      const std::string& alias);

  /// Declares the syntactic pattern of a referencing column's values.
  [[nodiscard]] Status SetColumnPattern(const std::string& table, const std::string& column,
                          const std::string& regex);
  /// Declares a controlled vocabulary for a referencing column.
  [[nodiscard]] Status SetColumnOntology(const std::string& table,
                           const std::string& column,
                           const std::vector<std::string>& terms);

  /// Draws up to `per_column` random sample values for every referencing
  /// column that has neither an ontology nor a pattern (paper §5.1 (5)).
  [[nodiscard]] Status DrawColumnSamples(const Catalog& catalog, size_t per_column,
                           Rng* rng);

  /// Monotonic mutation counter: bumped by every successful mutator
  /// (AddConcept, the alias adders, SetColumnPattern, SetColumnOntology,
  /// DrawColumnSamples). Caches keyed on metadata-derived state — the
  /// word-score memo below and the core layer's keyword->configuration
  /// plan cache — compare versions and invalidate wholesale on any change.
  uint64_t version() const { return version_; }

  const std::vector<ConceptRef>& concepts() const { return concepts_; }
  const std::vector<SchemaItem>& schema_items() const { return schema_items_; }
  const std::vector<ValueColumn>& value_columns() const {
    return value_columns_;
  }
  const Lexicon& lexicon() const { return lexicon_; }
  const MetaScoringParams& scoring() const { return scoring_; }

  /// Finds a value column by (table, column); nullptr when absent.
  const ValueColumn* FindValueColumn(const std::string& table,
                                     const std::string& column) const;

  /// p(w,c): probability-like weight that lower-cased word `w` references
  /// schema item `item` (paper step 1). Zero when unrelated.
  double ConceptMatchScore(const std::string& lower_word,
                           const SchemaItem& item) const;

  /// d(w,c): probability-like weight that word `w` (original case — value
  /// patterns are case-sensitive) belongs to `column`'s value domain
  /// (paper step 2). Zero when incompatible.
  double DomainMatchScore(const std::string& word,
                          const ValueColumn& column) const;

  /// Both scorers for surface word `word` against every schema item
  /// (ConceptMatchScore on ToLower(word)) and every value column
  /// (DomainMatchScore on `word` itself), computed once and then served
  /// from a memo that Stage 1 and Stage 2 share. The memo drops
  /// everything when version() moves or when an insert would exceed
  /// kWordMemoBudgetBytes, and counts each drop in
  /// nebula_meta_word_memo_drops_total{reason}. Safe to call concurrently
  /// with other const methods; scoring runs outside the memo lock.
  std::shared_ptr<const WordScores> ScoreWord(const std::string& word) const;

  /// Resident bytes the word-score memo may hold: room for about 36k
  /// words of the Mid schema (about 230 bytes each), so a stream whose
  /// vocabulary is in the tens of thousands of words is scored once.
  static constexpr size_t kWordMemoBudgetBytes = 8 * 1024 * 1024;
  /// Memoized words and their charged bytes, as of version().
  size_t word_memo_size() const;
  size_t word_memo_bytes() const;

 private:
  /// Durability snapshots persist/restore private state (version_, sample
  /// and alias internals) without widening the public mutator surface.
  friend durability::MetaSerializer;

  /// What p(w,c) needs of one lower-cased word, looked up once per word
  /// rather than once per schema item.
  struct ConceptProbe {
    const std::string& word;
    std::string stem;    ///< StemLite(word)
    size_t ring;         ///< lexicon ring of `word`, or Lexicon::kNoRing
    size_t stem_ring;    ///< lexicon ring of `stem`
    bool has_hypernyms;  ///< the lexicon lists hypernyms of `word`
  };
  ConceptProbe MakeConceptProbe(const std::string& lower_word) const;
  /// The per-item half of ConceptMatchScore.
  double ConceptScore(const ConceptProbe& probe, const SchemaItem& item) const;

  Lexicon lexicon_;
  MetaScoringParams scoring_;
  uint64_t version_ = 0;
  std::vector<ConceptRef> concepts_;
  std::vector<SchemaItem> schema_items_;
  std::vector<ValueColumn> value_columns_;
  std::unordered_map<std::string, size_t> value_column_index_;  // by Key()
  // item key -> set of alias tokens (lower-case).
  std::unordered_map<std::string, std::unordered_set<std::string>> aliases_;

  /// Surface word -> its scores, as of meta version `version`; `bytes`
  /// is the charged size of `words`. Derived state: a copy or move of the
  /// meta starts with an empty memo, and snapshots never persist it.
  struct WordMemo {
    WordMemo() = default;
    WordMemo(const WordMemo&) {}
    WordMemo& operator=(const WordMemo&) {
      MutexLock lock(mutex);
      Clear();
      return *this;
    }
    void Clear() REQUIRES(mutex) {
      words.clear();
      bytes = 0;
    }
    /// Drops every entry when the meta's version moved since the last call.
    void Sync(uint64_t meta_version) REQUIRES(mutex);
    Mutex mutex{kLockRankMetaWordMemo};
    uint64_t version GUARDED_BY(mutex) = 0;
    size_t bytes GUARDED_BY(mutex) = 0;
    std::unordered_map<std::string, std::shared_ptr<const WordScores>> words
        GUARDED_BY(mutex);
  };
  mutable WordMemo word_memo_;
};

}  // namespace nebula

#endif  // NEBULA_META_NEBULA_META_H_
