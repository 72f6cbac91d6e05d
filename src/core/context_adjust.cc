#include "core/context_adjust.h"

#include <algorithm>

#include "core/signature_maps.h"

namespace nebula {

namespace {

/// Range [lo, hi] of word indices within alpha of pos (clamped).
void InfluenceRange(const SignatureMap& map, size_t pos, size_t alpha,
                    size_t* lo, size_t* hi) {
  *lo = pos >= alpha ? pos - alpha : 0;
  *hi = std::min(map.words.size() - 1, pos + alpha);
}

struct ShapeRef {
  size_t pos = 0;
  size_t mapping = 0;
  const WordMapping* m = nullptr;
};

/// Collects, within the influence range of `pos` (excluding `pos` itself
/// and `exclude2`), all mappings of the given kind consistent with the
/// (table[, column]) constraint. `column` empty = any column.
std::vector<ShapeRef> CollectShapes(const SignatureMap& map, size_t pos,
                                    size_t alpha, WordMapping::Kind kind,
                                    const std::string& table,
                                    const std::string& column,
                                    size_t exclude2 = static_cast<size_t>(-1)) {
  size_t lo, hi;
  InfluenceRange(map, pos, alpha, &lo, &hi);
  std::vector<ShapeRef> out;
  for (size_t p = lo; p <= hi; ++p) {
    if (p == pos || p == exclude2) continue;
    const auto& word = map.words[p];
    for (size_t mi = 0; mi < word.mappings.size(); ++mi) {
      const WordMapping& m = word.mappings[mi];
      if (m.kind != kind) continue;
      if (m.table != table) continue;
      if (!column.empty() && m.column != column) continue;
      out.push_back({p, mi, &m});
    }
  }
  return out;
}

double CombinedWeight(const SignatureMap& map, const ContextMatch& match) {
  double w = 0.0;
  if (match.type == MatchType::kType1 || match.type == MatchType::kType2) {
    w += map.words[match.table_pos].mappings[match.table_mapping].weight;
  }
  if (match.type == MatchType::kType1 || match.type == MatchType::kType3) {
    w += map.words[match.column_pos].mappings[match.column_mapping].weight;
  }
  w += map.words[match.value_pos].mappings[match.value_mapping].weight;
  return w;
}

}  // namespace

std::vector<ContextMatch> FindMatchesOfType(const SignatureMap& map,
                                            size_t pos, size_t mapping_idx,
                                            size_t alpha, MatchType type) {
  std::vector<ContextMatch> out;
  if (pos >= map.words.size()) return out;
  const auto& word = map.words[pos];
  if (mapping_idx >= word.mappings.size()) return out;
  const WordMapping& m = word.mappings[mapping_idx];
  const std::string& table = m.table;

  switch (m.kind) {
    case WordMapping::Kind::kValue: {
      if (type == MatchType::kType1) {
        // Need: table shape on T, column shape on (T, m.column).
        for (const auto& t :
             CollectShapes(map, pos, alpha, WordMapping::Kind::kTable, table,
                           "")) {
          for (const auto& c :
               CollectShapes(map, pos, alpha, WordMapping::Kind::kColumn,
                             table, m.column, t.pos)) {
            ContextMatch match;
            match.type = MatchType::kType1;
            match.table_pos = t.pos;
            match.table_mapping = t.mapping;
            match.column_pos = c.pos;
            match.column_mapping = c.mapping;
            match.value_pos = pos;
            match.value_mapping = mapping_idx;
            out.push_back(match);
          }
        }
      } else if (type == MatchType::kType2) {
        for (const auto& t :
             CollectShapes(map, pos, alpha, WordMapping::Kind::kTable, table,
                           "")) {
          ContextMatch match;
          match.type = MatchType::kType2;
          match.table_pos = t.pos;
          match.table_mapping = t.mapping;
          match.value_pos = pos;
          match.value_mapping = mapping_idx;
          out.push_back(match);
        }
      } else if (type == MatchType::kType3) {
        for (const auto& c :
             CollectShapes(map, pos, alpha, WordMapping::Kind::kColumn, table,
                           m.column)) {
          ContextMatch match;
          match.type = MatchType::kType3;
          match.column_pos = c.pos;
          match.column_mapping = c.mapping;
          match.value_pos = pos;
          match.value_mapping = mapping_idx;
          out.push_back(match);
        }
      }
      break;
    }
    case WordMapping::Kind::kTable: {
      if (type == MatchType::kType1) {
        // Need: a column shape (T, c) and a value shape (T, c) with the
        // same column c, on two distinct other words.
        for (const auto& c : CollectShapes(
                 map, pos, alpha, WordMapping::Kind::kColumn, table, "")) {
          for (const auto& v :
               CollectShapes(map, pos, alpha, WordMapping::Kind::kValue,
                             table, c.m->column, c.pos)) {
            ContextMatch match;
            match.type = MatchType::kType1;
            match.table_pos = pos;
            match.table_mapping = mapping_idx;
            match.column_pos = c.pos;
            match.column_mapping = c.mapping;
            match.value_pos = v.pos;
            match.value_mapping = v.mapping;
            out.push_back(match);
          }
        }
      } else if (type == MatchType::kType2) {
        for (const auto& v : CollectShapes(
                 map, pos, alpha, WordMapping::Kind::kValue, table, "")) {
          ContextMatch match;
          match.type = MatchType::kType2;
          match.table_pos = pos;
          match.table_mapping = mapping_idx;
          match.value_pos = v.pos;
          match.value_mapping = v.mapping;
          out.push_back(match);
        }
      }
      // Type-3 matches contain no table shape.
      break;
    }
    case WordMapping::Kind::kColumn: {
      if (type == MatchType::kType1) {
        for (const auto& t : CollectShapes(
                 map, pos, alpha, WordMapping::Kind::kTable, table, "")) {
          for (const auto& v :
               CollectShapes(map, pos, alpha, WordMapping::Kind::kValue,
                             table, m.column, t.pos)) {
            ContextMatch match;
            match.type = MatchType::kType1;
            match.table_pos = t.pos;
            match.table_mapping = t.mapping;
            match.column_pos = pos;
            match.column_mapping = mapping_idx;
            match.value_pos = v.pos;
            match.value_mapping = v.mapping;
            out.push_back(match);
          }
        }
      } else if (type == MatchType::kType3) {
        for (const auto& v :
             CollectShapes(map, pos, alpha, WordMapping::Kind::kValue, table,
                           m.column)) {
          ContextMatch match;
          match.type = MatchType::kType3;
          match.column_pos = pos;
          match.column_mapping = mapping_idx;
          match.value_pos = v.pos;
          match.value_mapping = v.mapping;
          out.push_back(match);
        }
      }
      // Type-2 matches contain no column shape.
      break;
    }
  }
  return out;
}

ContextMatch FindBestMatch(const SignatureMap& map, size_t pos,
                           size_t mapping_idx, size_t alpha) {
  for (MatchType type :
       {MatchType::kType1, MatchType::kType2, MatchType::kType3}) {
    auto matches = FindMatchesOfType(map, pos, mapping_idx, alpha, type);
    if (matches.empty()) continue;
    // Highest combined mapping weight wins.
    const auto best = std::max_element(
        matches.begin(), matches.end(),
        [&](const ContextMatch& a, const ContextMatch& b) {
          return CombinedWeight(map, a) < CombinedWeight(map, b);
        });
    return *best;
  }
  ContextMatch none;
  none.type = MatchType::kNone;
  return none;
}

void ContextBasedAdjustment(SignatureMap* context_map,
                            const ContextAdjustParams& params) {
  // Matches never read weights (FindMatchesOfType looks only at mapping
  // kinds, tables and columns) and the loop writes only weights, so the
  // map serves as its own pre-adjustment snapshot: the rewards do not
  // depend on word order.
  SignatureMap& map = *context_map;
  for (size_t pos = 0; pos < map.words.size(); ++pos) {
    for (size_t mi = 0; mi < map.words[pos].mappings.size(); ++mi) {
      double beta = 0.0;
      size_t count = 0;
      for (MatchType type :
           {MatchType::kType1, MatchType::kType2, MatchType::kType3}) {
        const auto matches =
            FindMatchesOfType(map, pos, mi, params.alpha, type);
        if (matches.empty()) continue;
        count = std::min(matches.size(), params.max_matches_counted);
        beta = type == MatchType::kType1
                   ? params.beta1
                   : (type == MatchType::kType2 ? params.beta2 : params.beta3);
        break;  // exclusive cascade: stronger type suppresses weaker ones
      }
      if (count > 0) {
        auto& target = map.words[pos].mappings[mi];
        target.weight = std::min(
            1.0, target.weight * (1.0 + beta * static_cast<double>(count)));
      }
    }
  }
}

}  // namespace nebula
