#include "core/signature_maps.h"

#include <algorithm>

#include "meta/nebula_meta.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace nebula {

bool SigWord::HasConceptMapping() const {
  return std::any_of(mappings.begin(), mappings.end(),
                     [](const WordMapping& m) { return m.IsConcept(); });
}

bool SigWord::HasValueMapping() const {
  return std::any_of(mappings.begin(), mappings.end(),
                     [](const WordMapping& m) { return !m.IsConcept(); });
}

const WordMapping* SigWord::BestMapping() const {
  const WordMapping* best = nullptr;
  for (const auto& m : mappings) {
    if (best == nullptr || m.weight > best->weight) best = &m;
  }
  return best;
}

size_t SignatureMap::NumEmphasized() const {
  size_t n = 0;
  for (const auto& w : words) {
    if (w.emphasized()) ++n;
  }
  return n;
}

SignatureMap SignatureMapBuilder::BuildConceptMap(
    const std::vector<Token>& tokens, double epsilon) const {
  SignatureMap map;
  map.words.reserve(tokens.size());
  const std::vector<SchemaItem>& items = meta_->schema_items();
  for (const auto& token : tokens) {
    SigWord word;
    word.token = token;
    // Stopwords can never be concept references; skip the inner loop.
    if (!IsStopword(token.lower)) {
      const auto scores = meta_->ScoreWord(token.text);
      for (size_t i = 0; i < items.size(); ++i) {
        const double p = scores->concept_scores[i];
        if (p < epsilon) continue;
        const SchemaItem& item = items[i];
        WordMapping m;
        m.kind = item.kind == SchemaItem::Kind::kTable
                     ? WordMapping::Kind::kTable
                     : WordMapping::Kind::kColumn;
        m.table = item.table;
        m.column = item.column;
        m.weight = p;
        word.mappings.push_back(std::move(m));
      }
    }
    map.words.push_back(std::move(word));
  }
  return map;
}

SignatureMap SignatureMapBuilder::BuildValueMap(
    const std::vector<Token>& tokens, double epsilon) const {
  SignatureMap map;
  map.words.reserve(tokens.size());
  const std::vector<ValueColumn>& columns = meta_->value_columns();
  for (const auto& token : tokens) {
    SigWord word;
    word.token = token;
    if (!IsStopword(token.lower)) {
      const auto scores = meta_->ScoreWord(token.text);
      for (size_t j = 0; j < columns.size(); ++j) {
        const double d = scores->domain_scores[j];
        if (d < epsilon) continue;
        const ValueColumn& vc = columns[j];
        WordMapping m;
        m.kind = WordMapping::Kind::kValue;
        m.table = vc.table;
        m.column = vc.column;
        m.weight = d;
        word.mappings.push_back(std::move(m));
      }
    }
    map.words.push_back(std::move(word));
  }
  return map;
}

SignatureMap SignatureMapBuilder::Overlay(const SignatureMap& concept_map,
                                          const SignatureMap& value_map) {
  SignatureMap out;
  const size_t n = std::min(concept_map.words.size(), value_map.words.size());
  out.words.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    SigWord word;
    word.token = concept_map.words[i].token;
    word.mappings = concept_map.words[i].mappings;
    for (const auto& m : value_map.words[i].mappings) {
      word.mappings.push_back(m);
    }
    out.words.push_back(std::move(word));
  }
  return out;
}

}  // namespace nebula
