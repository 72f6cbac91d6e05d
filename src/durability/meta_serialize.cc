#include "durability/meta_serialize.h"

#include <algorithm>
#include <vector>

#include "annotation/serialize.h"
#include "common/status.h"
#include "common/string_util.h"
#include "durability/journal.h"
#include "meta/nebula_meta.h"
#include "storage/value.h"
#include "text/pattern.h"
#include "text/similarity.h"

namespace nebula::durability {

namespace {

constexpr uint64_t kMetaFormatVersion = 1;

const char* TypeTag(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "?";
}

Result<DataType> ParseTypeTag(const std::string& tag) {
  if (tag == "int64") return DataType::kInt64;
  if (tag == "double") return DataType::kDouble;
  if (tag == "string") return DataType::kString;
  return Status::Corruption("unknown meta column type tag '" + tag + "'");
}

void AppendScoring(std::string* out, const MetaScoringParams& s) {
  const double values[] = {
      s.exact_name,      s.stemmed_name,
      s.equivalent_name, s.synonym_name,
      s.type_compatible, s.ontology_member,
      s.pattern_match,   s.sample_exact,
      s.sample_fuzzy_hi_threshold, s.sample_fuzzy_hi_scale,
      s.sample_fuzzy_lo_threshold, s.sample_fuzzy_lo_scale,
  };
  *out += "scoring";
  for (double v : values) *out += '\t' + StrFormat("%.17g", v);
  *out += '\n';
}

Status ParseScoring(const std::vector<std::string>& fields,
                    MetaScoringParams* s) {
  if (fields.size() != 13) return Status::Corruption("bad meta scoring line");
  double* const slots[] = {
      &s->exact_name,      &s->stemmed_name,
      &s->equivalent_name, &s->synonym_name,
      &s->type_compatible, &s->ontology_member,
      &s->pattern_match,   &s->sample_exact,
      &s->sample_fuzzy_hi_threshold, &s->sample_fuzzy_hi_scale,
      &s->sample_fuzzy_lo_threshold, &s->sample_fuzzy_lo_scale,
  };
  for (size_t i = 0; i < 12; ++i) {
    NEBULA_ASSIGN_OR_RETURN(*slots[i], ParseDoubleField(fields[i + 1]));
  }
  return Status::OK();
}

/// Appends one drawn sample to a value column, rebuilding the derived
/// trigram state exactly as NebulaMeta::DrawColumnSamples does.
void RestoreSample(ValueColumn* vc, const std::string& value) {
  vc->samples.push_back(value);
  const std::string lower = ToLower(value);
  vc->samples_lower.insert(lower);
  vc->sample_trigrams.push_back(TrigramIdSet(lower));
  const uint32_t ordinal = static_cast<uint32_t>(vc->sample_trigrams.size() -
                                                 1);
  for (uint32_t gram : vc->sample_trigrams.back()) {
    vc->sample_trigram_index[gram].push_back(ordinal);
  }
}

}  // namespace

std::string MetaSerializer::SaveToString(const NebulaMeta& meta) {
  std::string out = "nebula-meta\t" + std::to_string(kMetaFormatVersion) +
                    '\t' + std::to_string(meta.version_) + '\n';
  AppendScoring(&out, meta.scoring_);

  for (const ConceptRef& c : meta.concepts_) {
    out += "concept\t" + EscapeField(c.concept_name) + '\t' +
           EscapeField(c.table_name) + '\t' +
           std::to_string(c.referenced_by.size()) + '\n';
    for (const auto& combo : c.referenced_by) {
      out += "combo";
      for (const auto& col : combo) out += '\t' + EscapeField(col);
      out += '\n';
    }
  }

  for (const ValueColumn& vc : meta.value_columns_) {
    out += "vcol\t" + EscapeField(vc.table) + '\t' + EscapeField(vc.column) +
           '\t' + TypeTag(vc.type) + '\n';
    if (vc.pattern.has_value()) {
      out += "pattern\t" + EscapeField(vc.pattern->pattern()) + '\n';
    }
    if (!vc.ontology.empty()) {
      std::vector<std::string> terms(vc.ontology.begin(), vc.ontology.end());
      std::sort(terms.begin(), terms.end());
      out += "onto";
      for (const auto& t : terms) out += '\t' + EscapeField(t);
      out += '\n';
    }
    if (!vc.samples.empty()) {
      out += "samples\t" + std::to_string(vc.samples.size());
      for (const auto& s : vc.samples) out += '\t' + EscapeField(s);
      out += '\n';
    }
  }

  std::vector<std::string> keys;
  keys.reserve(meta.aliases_.size());
  for (const auto& [key, tokens] : meta.aliases_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (const auto& key : keys) {
    const auto& tokens = meta.aliases_.at(key);
    std::vector<std::string> sorted(tokens.begin(), tokens.end());
    std::sort(sorted.begin(), sorted.end());
    out += "alias\t" + EscapeField(key);
    for (const auto& t : sorted) out += '\t' + EscapeField(t);
    out += '\n';
  }
  return out;
}

Status MetaSerializer::LoadFromString(const std::string& blob,
                                      NebulaMeta* meta) {
  if (!meta->concepts_.empty() || meta->version_ != 0) {
    return Status::InvalidArgument("meta must be fresh before LoadFromString");
  }
  const std::vector<std::string> lines = Split(blob, '\n');
  if (lines.empty()) return Status::Corruption("empty meta blob");

  uint64_t saved_version = 0;
  {
    const auto header = Split(lines[0], '\t');
    if (header.size() != 3 || header[0] != "nebula-meta") {
      return Status::Corruption("bad meta blob header");
    }
    NEBULA_ASSIGN_OR_RETURN(const uint64_t format, ParseU64Field(header[1]));
    if (format != kMetaFormatVersion) {
      return Status::NotSupported("unsupported meta format " + header[1]);
    }
    NEBULA_ASSIGN_OR_RETURN(saved_version, ParseU64Field(header[2]));
  }

  // A concept line opens a group of `combo` lines; the AddConcept replay
  // happens once the declared combo count has been read.
  std::string pending_name;
  std::string pending_table;
  size_t pending_combos = 0;
  std::vector<std::vector<std::string>> combos;
  ValueColumn* vc = nullptr;  // target of pattern/onto/samples lines

  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const auto fields = Split(lines[i], '\t');
    const std::string& tag = fields[0];
    if (pending_combos > 0 && tag != "combo") {
      return Status::Corruption("truncated concept '" + pending_name + "'");
    }
    if (tag == "scoring") {
      NEBULA_RETURN_NOT_OK(ParseScoring(fields, &meta->scoring_));
    } else if (tag == "concept" && fields.size() == 4) {
      pending_name = UnescapeField(fields[1]);
      pending_table = UnescapeField(fields[2]);
      NEBULA_ASSIGN_OR_RETURN(pending_combos, ParseU64Field(fields[3]));
      if (pending_combos == 0) {
        return Status::Corruption("concept '" + pending_name +
                                  "' has no combos");
      }
      combos.clear();
    } else if (tag == "combo" && fields.size() >= 2) {
      std::vector<std::string> combo;
      for (size_t f = 1; f < fields.size(); ++f) {
        combo.push_back(UnescapeField(fields[f]));
      }
      combos.push_back(std::move(combo));
      if (combos.size() == pending_combos) {
        NEBULA_RETURN_NOT_OK(
            meta->AddConcept(pending_name, pending_table, std::move(combos)));
        combos = {};
        pending_combos = 0;
      }
    } else if (tag == "vcol" && fields.size() == 4) {
      const std::string key =
          UnescapeField(fields[1]) + "." + UnescapeField(fields[2]);
      auto it = meta->value_column_index_.find(key);
      if (it == meta->value_column_index_.end()) {
        return Status::Corruption("meta blob vcol '" + key +
                                  "' not declared by any concept");
      }
      vc = &meta->value_columns_[it->second];
      NEBULA_ASSIGN_OR_RETURN(vc->type, ParseTypeTag(fields[3]));
    } else if (tag == "pattern" && fields.size() == 2 && vc != nullptr) {
      NEBULA_ASSIGN_OR_RETURN(
          ValuePattern pattern, ValuePattern::Compile(UnescapeField(fields[1])));
      vc->pattern = std::move(pattern);
    } else if (tag == "onto" && vc != nullptr) {
      for (size_t f = 1; f < fields.size(); ++f) {
        vc->ontology.insert(UnescapeField(fields[f]));
      }
    } else if (tag == "samples" && fields.size() >= 2 && vc != nullptr) {
      NEBULA_ASSIGN_OR_RETURN(const uint64_t count, ParseU64Field(fields[1]));
      if (fields.size() != count + 2) {
        return Status::Corruption("bad meta samples arity for " + vc->Key());
      }
      for (size_t f = 2; f < fields.size(); ++f) {
        RestoreSample(vc, UnescapeField(fields[f]));
      }
    } else if (tag == "alias" && fields.size() >= 3) {
      auto& tokens = meta->aliases_[UnescapeField(fields[1])];
      for (size_t f = 2; f < fields.size(); ++f) {
        tokens.insert(UnescapeField(fields[f]));
      }
    } else {
      return Status::Corruption("bad meta blob line '" + lines[i] + "'");
    }
  }
  if (pending_combos > 0) {
    return Status::Corruption("truncated concept '" + pending_name + "'");
  }
  meta->version_ = saved_version;
  // Whatever the fresh meta memoized scored an empty schema, and a blob
  // may restore the version it was memoized under.
  meta->word_memo_ = {};
  return Status::OK();
}

}  // namespace nebula::durability
