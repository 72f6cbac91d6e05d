#ifndef NEBULA_CORE_QUERY_GENERATION_H_
#define NEBULA_CORE_QUERY_GENERATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/context_adjust.h"
#include "core/signature_maps.h"
#include "keyword/query_types.h"
#include "meta/nebula_meta.h"

namespace nebula {

/// Parameters of Stage 1 (annotation -> keyword queries).
struct QueryGenerationParams {
  /// Cutoff threshold epsilon for signature-map membership.
  double epsilon = 0.6;
  /// Context-adjustment knobs (alpha, beta1..3).
  ContextAdjustParams context;
  /// How far the backward search for a governing concept word may look
  /// when a value word has no concept in its influence range (the
  /// "gene ... JW0014 ... grpC" special case). 0 disables the search.
  size_t backward_search_limit = 64;
};

/// Timing breakdown of the three generation phases (Figure 11(a)).
struct QueryGenerationTiming {
  uint64_t map_generation_us = 0;      ///< Tokenize + Concept/Value-Map.
  uint64_t context_adjust_us = 0;      ///< Overlay + weight adjustment.
  uint64_t query_formation_us = 0;     ///< Context-Map -> queries.
  uint64_t total_us() const {
    return map_generation_us + context_adjust_us + query_formation_us;
  }
};

/// Output of QueryGeneration: the weighted keyword queries plus the final
/// Context-Map (kept for evidence and tests) and phase timings.
struct QueryGenerationResult {
  std::vector<KeywordQuery> queries;
  SignatureMap context_map;
  QueryGenerationTiming timing;
};

/// Stage 1 of the Nebula pipeline (paper Fig. 4(a)): pre-processes an
/// annotation, identifies potential embedded references, and forms
/// concise weighted keyword queries.
class QueryGenerator {
 public:
  QueryGenerator(const NebulaMeta* meta, QueryGenerationParams params = {})
      : meta_(meta), params_(params) {}

  /// Runs all three phases on the annotation text.
  QueryGenerationResult Generate(const std::string& annotation_text) const;

  /// Phase 3 in isolation (paper Fig. 4(d)): forms queries from an
  /// adjusted Context-Map. Exposed for tests.
  std::vector<KeywordQuery> ConceptMapToQueries(
      const SignatureMap& context_map) const;

  const QueryGenerationParams& params() const { return params_; }
  QueryGenerationParams& params() { return params_; }

 private:
  const NebulaMeta* meta_;
  QueryGenerationParams params_;
};

}  // namespace nebula

#endif  // NEBULA_CORE_QUERY_GENERATION_H_
