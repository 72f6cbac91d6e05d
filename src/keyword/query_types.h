#ifndef NEBULA_KEYWORD_QUERY_TYPES_H_
#define NEBULA_KEYWORD_QUERY_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/schema.h"

namespace nebula {

/// A keyword query: a short sequence of keywords (typically 2-3 in
/// Nebula-generated queries; the whole annotation in the Naive baseline)
/// plus the generation weight assigned by the query-generation stage.
struct KeywordQuery {
  std::vector<std::string> keywords;
  /// Weight assigned by ConceptMapToQueries, normalized to [0,1].
  double weight = 1.0;
  /// Debugging / evidence label, e.g. "gene JW0014".
  std::string label;

  std::string ToString() const {
    std::string s;
    for (size_t i = 0; i < keywords.size(); ++i) {
      if (i > 0) s += ' ';
      s += keywords[i];
    }
    return s;
  }
};

/// One possible interpretation of a keyword (paper [7]'s keyword->schema /
/// keyword->value mappings).
struct KeywordMapping {
  enum class Kind { kTableName, kColumnName, kValue };
  Kind kind = Kind::kValue;
  std::string table;   ///< Target table (lower-case).
  std::string column;  ///< Target column; empty for kTableName.
  double score = 0.0;  ///< Mapping confidence in [0,1].
  /// For kValue: whether the compiled predicate should be an exact
  /// equality (identifier-style columns) or a token-containment probe
  /// (free-text columns).
  bool exact_value = true;
};

/// A search answer tuple with the engine's confidence.
struct SearchHit {
  TupleId tuple;
  double confidence = 0.0;
};

/// Tuning knobs of the keyword-search engine.
struct KeywordSearchParams {
  /// Mappings scoring below this are discarded.
  double min_mapping_score = 0.30;
  /// Keep at most this many mappings per keyword (best-first).
  size_t max_mappings_per_keyword = 4;
  /// Hard cap on generated SQL statements per keyword query (guards the
  /// Naive baseline from unbounded blowup).
  size_t max_sql_per_query = 200000;
  /// Boost applied to a value mapping when another keyword in the query
  /// maps to the same table's name (configuration-level context in [7]).
  double table_context_boost = 0.25;
  /// Same, for a keyword mapping to the value's column name.
  double column_context_boost = 0.15;
  /// Extra weight for unique (identifier) columns.
  double unique_column_boost = 0.08;
  /// Base + idf scaling for text-column (token containment) mappings.
  double text_score_base = 0.20;
  double text_score_idf_scale = 0.60;
  /// When true, containment probes are executed by scanning (no posting
  /// list on the execution path) — the cost model of the paper's
  /// RDBMS substrate, where the search technique's generated SQL uses
  /// LIKE predicates. Mapping statistics still come from the index.
  bool scan_containment = false;
  /// Serve token-containment statements through the tables' unified
  /// inverted value index (posting-list intersection) instead of
  /// per-tuple matching. Results and ExecStats are bit-identical either
  /// way; off forces the legacy execution path. Composes with
  /// scan_containment: the replayed counters then model the scan.
  bool use_value_index = true;

  bool operator==(const KeywordSearchParams&) const = default;
};

}  // namespace nebula

#endif  // NEBULA_KEYWORD_QUERY_TYPES_H_
