#ifndef NEBULA_CORE_SIGNATURE_MAPS_H_
#define NEBULA_CORE_SIGNATURE_MAPS_H_

#include <string>
#include <vector>

#include "meta/nebula_meta.h"
#include "text/tokenizer.h"

namespace nebula {

/// A potential mapping of an annotation word onto the database, using the
/// paper's shape vocabulary: rectangle = table name, triangle = column
/// name, hexagon = value in a column's domain.
struct WordMapping {
  enum class Kind { kTable, kColumn, kValue };
  Kind kind = Kind::kValue;
  std::string table;   ///< Target table (lower-case).
  std::string column;  ///< Target column; empty for kTable.
  double weight = 0.0;  ///< p(w,c) or d(w,c), adjusted in later phases.

  bool IsConcept() const { return kind != Kind::kValue; }
};

/// One word of a signature map: the token plus its surviving mappings.
/// Words whose best mapping fell below the cutoff threshold epsilon carry
/// no mappings (the '--' placeholder in the paper's Figure 4(b)).
struct SigWord {
  Token token;
  std::vector<WordMapping> mappings;

  bool emphasized() const { return !mappings.empty(); }
  bool HasConceptMapping() const;
  bool HasValueMapping() const;
  /// Highest-weight mapping; nullptr when not emphasized.
  const WordMapping* BestMapping() const;
};

/// A signature map (Concept-Map, Value-Map, or the overlaid Context-Map):
/// one entry per annotation word, in annotation order.
struct SignatureMap {
  std::vector<SigWord> words;

  size_t NumEmphasized() const;
};

/// Builds the three signature maps of §5.2.1 from an annotation's text.
class SignatureMapBuilder {
 public:
  explicit SignatureMapBuilder(const NebulaMeta* meta) : meta_(meta) {}

  /// Step 1 — Concept-Map: words that likely reference a table or column
  /// of ConceptRefs; mappings with p(w,c) >= epsilon survive. Both steps
  /// read each word's scores from NebulaMeta::ScoreWord.
  SignatureMap BuildConceptMap(const std::vector<Token>& tokens,
                               double epsilon) const;

  /// Step 2 — Value-Map: words that likely reference a value of a
  /// referencing column; mappings with d(w,c) >= epsilon survive.
  SignatureMap BuildValueMap(const std::vector<Token>& tokens,
                             double epsilon) const;

  /// Step 3 — Context-Map: overlays the two maps position-wise, putting
  /// concept and value emphases into each other's context.
  static SignatureMap Overlay(const SignatureMap& concept_map,
                              const SignatureMap& value_map);

 private:
  const NebulaMeta* meta_;
};

}  // namespace nebula

#endif  // NEBULA_CORE_SIGNATURE_MAPS_H_
