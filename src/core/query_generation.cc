#include "core/query_generation.h"

#include <algorithm>
#include <unordered_map>

#include "common/stopwatch.h"
#include "core/context_adjust.h"
#include "core/signature_maps.h"
#include "keyword/query_types.h"
#include "text/tokenizer.h"

namespace nebula {

namespace {

/// Builds the keyword query for a found match: the participating words'
/// surface forms, with weight = sum of the selected mappings' weights.
KeywordQuery QueryFromMatch(const SignatureMap& map,
                            const ContextMatch& match) {
  KeywordQuery q;
  double weight = 0.0;
  auto add = [&](size_t pos, size_t mapping) {
    q.keywords.push_back(map.words[pos].token.text);
    weight += map.words[pos].mappings[mapping].weight;
  };
  if (match.type == MatchType::kType1 || match.type == MatchType::kType2) {
    add(match.table_pos, match.table_mapping);
  }
  if (match.type == MatchType::kType1 || match.type == MatchType::kType3) {
    add(match.column_pos, match.column_mapping);
  }
  add(match.value_pos, match.value_mapping);
  q.weight = weight;
  q.label = q.ToString();
  return q;
}

}  // namespace

std::vector<KeywordQuery> QueryGenerator::ConceptMapToQueries(
    const SignatureMap& map) const {
  std::vector<KeywordQuery> queries;

  for (size_t pos = 0; pos < map.words.size(); ++pos) {
    const SigWord& word = map.words[pos];
    if (!word.emphasized()) continue;
    // Only the word's highest-weight mapping is considered (Fig 4(d) L2).
    size_t best_idx = 0;
    for (size_t mi = 1; mi < word.mappings.size(); ++mi) {
      if (word.mappings[mi].weight > word.mappings[best_idx].weight) {
        best_idx = mi;
      }
    }
    const WordMapping& best = word.mappings[best_idx];

    // Form the best possible match within the influence range.
    const ContextMatch match =
        FindBestMatch(map, pos, best_idx, params_.context.alpha);
    if (match.type != MatchType::kNone) {
      // Emit the query only from the value word's perspective, so a single
      // {concept, value} pair does not produce one query per member.
      if (match.value_pos == pos) {
        queries.push_back(QueryFromMatch(map, match));
      }
      continue;
    }

    // Special case (Fig 4(d) L8-12): a value word whose influence range
    // formed no match searches backward for the closest governing concept
    // word ("gene ... JW0014" where "gene" appeared much earlier).
    if (best.kind == WordMapping::Kind::kValue &&
        params_.backward_search_limit > 0 && pos > 0) {
      const size_t limit = params_.backward_search_limit;
      const size_t stop = pos > limit ? pos - limit : 0;
      bool formed = false;
      for (size_t p = pos; p-- > stop && !formed;) {
        const SigWord& prev = map.words[p];
        for (size_t mi = 0; mi < prev.mappings.size() && !formed; ++mi) {
          const WordMapping& cm = prev.mappings[mi];
          if (!cm.IsConcept()) continue;
          // Can best + cm form a Type-2 or Type-3 match?
          const bool type2 = cm.kind == WordMapping::Kind::kTable &&
                             cm.table == best.table;
          const bool type3 = cm.kind == WordMapping::Kind::kColumn &&
                             cm.table == best.table &&
                             cm.column == best.column;
          if (!type2 && !type3) continue;
          KeywordQuery q;
          q.keywords = {prev.token.text, word.token.text};
          q.weight = cm.weight + best.weight;
          q.label = q.ToString();
          queries.push_back(std::move(q));
          formed = true;
        }
        // The paper stops at the *closest* concept word: if this word had
        // concept mappings but none compatible, keep searching further
        // back only when no concept at all was present here.
        if (!formed && prev.HasConceptMapping()) break;
      }
      // Otherwise w is ignored.
    }
  }

  // Eliminate duplicates, keeping the highest-weight variant of each
  // keyword multiset (Fig 4(d) L15).
  std::unordered_map<std::string, size_t> by_key;
  std::vector<KeywordQuery> deduped;
  for (auto& q : queries) {
    std::vector<std::string> sorted = q.keywords;
    std::sort(sorted.begin(), sorted.end());
    std::string key;
    for (const auto& k : sorted) {
      key += k;
      key += '\x1f';
    }
    auto it = by_key.find(key);
    if (it == by_key.end()) {
      by_key.emplace(key, deduped.size());
      deduped.push_back(std::move(q));
    } else if (q.weight > deduped[it->second].weight) {
      deduped[it->second] = std::move(q);
    }
  }

  // Normalize weights into [0,1] relative to the maximum (Fig 4(d) L16).
  double max_weight = 0.0;
  for (const auto& q : deduped) max_weight = std::max(max_weight, q.weight);
  if (max_weight > 0.0) {
    for (auto& q : deduped) q.weight /= max_weight;
  }
  return deduped;
}

QueryGenerationResult QueryGenerator::Generate(
    const std::string& annotation_text) const {
  QueryGenerationResult result;
  // Phase 1: pre-processing (tokenization) and signature-map generation.
  Stopwatch watch;
  const std::vector<Token> tokens = Tokenize(annotation_text);
  SignatureMapBuilder builder(meta_);
  SignatureMap concept_map = builder.BuildConceptMap(tokens, params_.epsilon);
  SignatureMap value_map = builder.BuildValueMap(tokens, params_.epsilon);
  result.timing.map_generation_us = watch.ElapsedMicros();

  // Phase 2: overlay + context-based weight adjustment.
  watch.Restart();
  result.context_map = SignatureMapBuilder::Overlay(concept_map, value_map);
  ContextBasedAdjustment(&result.context_map, params_.context);
  result.timing.context_adjust_us = watch.ElapsedMicros();

  // Phase 3: query formation.
  watch.Restart();
  result.queries = ConceptMapToQueries(result.context_map);
  result.timing.query_formation_us = watch.ElapsedMicros();
  return result;
}

}  // namespace nebula
