#include "keyword/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/hash.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "keyword/mini_db.h"
#include "keyword/query_types.h"
#include "meta/nebula_meta.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "sql/escape.h"
#include "storage/catalog.h"
#include "storage/query.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace nebula {

namespace {

/// Process-wide value-index instruments, resolved once.
struct KeywordEngineMetrics {
  obs::Counter* probe_index;
  obs::Counter* probe_legacy;
  obs::Histogram* index_lookup_us;
  obs::Histogram* sql_duration_us;
};

const KeywordEngineMetrics& Metrics() {
  static const KeywordEngineMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    KeywordEngineMetrics out;
    out.probe_index = r.GetCounter(
        "nebula_value_index_probe_total", {{"path", "index"}},
        "Statement executions by access path: index = value-index "
        "posting-list intersection, legacy = hash index, posting list or "
        "scan");
    out.probe_legacy = r.GetCounter("nebula_value_index_probe_total",
                                    {{"path", "legacy"}}, "");
    out.index_lookup_us =
        r.GetHistogram("nebula_value_index_lookup_us", {},
                       "Wall time of one value-index-served statement");
    out.sql_duration_us =
        r.GetHistogram("nebula_sql_duration_us", {},
                       "Wall time of one SQL statement execution");
    return out;
  }();
  return m;
}

/// Literal identity for statement dedup: Value equality, except that a
/// double compares by bit pattern. Value::Hash agrees with it.
bool SameLiteral(const Value& a, const Value& b) {
  if (a.is_double() && b.is_double()) {
    return std::bit_cast<uint64_t>(a.AsDouble()) ==
           std::bit_cast<uint64_t>(b.AsDouble());
  }
  return a == b;
}

bool SamePredicate(const Predicate& a, const Predicate& b) {
  return a.op == b.op && a.column == b.column && SameLiteral(a.value, b.value);
}

/// (confidence desc, tuple asc): a total order over distinct tuples.
bool RanksBefore(const SearchHit& a, const SearchHit& b) {
  if (a.confidence != b.confidence) return a.confidence > b.confidence;
  return a.tuple < b.tuple;
}

}  // namespace

uint64_t GeneratedSql::StructuralHash() const {
  // A sum is the same for every order of the predicates, which is what
  // hashing them in (column, op, value) order buys, without the sort.
  uint64_t predicates = 0;
  for (const Predicate& p : query.predicates) {
    predicates += HashCombine(
        HashCombine(Fnv1a(p.column), static_cast<uint64_t>(p.op)),
        p.value.Hash());
  }
  return HashCombine(HashCombine(Fnv1a(ToLower(query.table)), predicates),
                     query.predicates.size());
}

bool GeneratedSql::SameStatement(const GeneratedSql& other) const {
  const std::vector<Predicate>& a = query.predicates;
  const std::vector<Predicate>& b = other.query.predicates;
  if (a.size() != b.size() ||
      !EqualsIgnoreCase(query.table, other.query.table)) {
    return false;
  }
  // Multiset equality: each predicate occurs as often in `b` as in `a`.
  for (const Predicate& p : a) {
    auto same = [&p](const Predicate& q) { return SamePredicate(p, q); };
    if (std::count_if(a.begin(), a.end(), same) !=
        std::count_if(b.begin(), b.end(), same)) {
      return false;
    }
  }
  return true;
}

std::string GeneratedSql::CanonicalKey() const {
  std::vector<std::string> preds;
  preds.reserve(query.predicates.size());
  for (const auto& p : query.predicates) preds.push_back(p.ToString());
  std::sort(preds.begin(), preds.end());
  // Escaped pieces keep the key injective: a hostile table name or
  // predicate value carrying '|' / '&' / quotes can no longer merge two
  // distinct statements into one. Identity for the alphanumeric names
  // the check universe generates.
  std::string key = sql::QuoteIdent(ToLower(query.table));
  key += "|";
  for (size_t i = 0; i < preds.size(); ++i) {
    if (i > 0) key += "&";
    key += preds[i];
  }
  return key;
}

KeywordSearchEngine::KeywordSearchEngine(const Catalog* catalog,
                                         const NebulaMeta* meta,
                                         KeywordSearchParams params)
    : catalog_(catalog), meta_(meta), params_(params), executor_(catalog) {}

double KeywordSearchEngine::TextMappingScore(const Table& table,
                                             size_t column,
                                             const std::string& token) const {
  std::vector<Table::RowId> scan;
  const auto& postings = table.LookupToken(column, token, &scan);
  if (postings.empty()) return 0.0;
  const double n = static_cast<double>(table.num_rows());
  const double df = static_cast<double>(postings.size());
  // idf normalized to (0,1]: rare tokens approach 1, ubiquitous tokens
  // approach 0.
  const double idf = std::log(1.0 + n / df) / std::log(1.0 + n);
  return params_.text_score_base + params_.text_score_idf_scale * idf;
}

std::vector<KeywordMapping> KeywordSearchEngine::MapKeyword(
    const std::string& word) const {
  std::vector<KeywordMapping> mappings;
  const std::string lower = ToLower(word);
  const auto scores = meta_->ScoreWord(word);

  // (a) Schema-item mappings (table / column names) via NebulaMeta.
  const std::vector<SchemaItem>& items = meta_->schema_items();
  for (size_t i = 0; i < items.size(); ++i) {
    const double score = scores->concept_scores[i];
    if (score < params_.min_mapping_score) continue;
    const SchemaItem& item = items[i];
    KeywordMapping m;
    m.kind = item.kind == SchemaItem::Kind::kTable
                 ? KeywordMapping::Kind::kTableName
                 : KeywordMapping::Kind::kColumnName;
    m.table = item.table;
    m.column = item.column;
    m.score = score;
    mappings.push_back(m);
  }

  // (b) Declared value-domain mappings (ConceptRefs referencing columns).
  const std::vector<ValueColumn>& columns = meta_->value_columns();
  for (size_t j = 0; j < columns.size(); ++j) {
    const ValueColumn& vc = columns[j];
    double score = scores->domain_scores[j];
    if (score < params_.min_mapping_score) continue;
    auto table_result = catalog_->GetTable(vc.table);
    bool unique_col = false;
    if (table_result.ok()) {
      const int ord = (*table_result)->schema().ColumnIndex(vc.column);
      if (ord >= 0) {
        unique_col = (*table_result)->schema().column(
            static_cast<size_t>(ord)).unique;
      }
    }
    if (unique_col) score = std::min(1.0, score + params_.unique_column_boost);
    KeywordMapping m;
    m.kind = KeywordMapping::Kind::kValue;
    m.table = vc.table;
    m.column = vc.column;
    m.score = score;
    m.exact_value = true;
    mappings.push_back(m);
  }

  // (c) Token-containment mappings over every declared text column (this
  // is what makes the Naive whole-annotation query explode: ordinary
  // English words map into publication titles/abstracts).
  for (const auto& table : catalog_->tables()) {
    for (size_t c = 0; c < table->schema().num_columns(); ++c) {
      if (!table->IsTextColumn(c)) continue;
      // Skip columns already covered by a declared value mapping for this
      // word: the declared mapping is strictly more informative.
      const ValueColumn* declared =
          meta_->FindValueColumn(table->name(), table->schema().column(c).name);
      const double score = TextMappingScore(*table, c, lower);
      if (score < params_.min_mapping_score) continue;
      if (declared != nullptr &&
          scores->domain_scores[declared - columns.data()] >=
              params_.min_mapping_score) {
        continue;
      }
      KeywordMapping m;
      m.kind = KeywordMapping::Kind::kValue;
      m.table = ToLower(table->name());
      m.column = ToLower(table->schema().column(c).name);
      m.score = score;
      m.exact_value = false;
      mappings.push_back(m);
    }
  }

  // Total order: the (table, column) tie-break alone is not enough — a
  // table-name mapping and a value mapping can land on the same key with
  // the same score, and truncation below must then be deterministic.
  std::stable_sort(mappings.begin(), mappings.end(),
                   [](const KeywordMapping& a, const KeywordMapping& b) {
                     if (a.score != b.score) return a.score > b.score;
                     if (a.table != b.table) return a.table < b.table;
                     if (a.column != b.column) return a.column < b.column;
                     if (a.kind != b.kind) return a.kind < b.kind;
                     return a.exact_value < b.exact_value;
                   });
  if (mappings.size() > params_.max_mappings_per_keyword) {
    mappings.resize(params_.max_mappings_per_keyword);
  }
  return mappings;
}

std::vector<GeneratedSql> KeywordSearchEngine::CompileToSql(
    const KeywordQuery& query, MappingCache* cache) const {
  // Map every keyword (memoized across the group when a cache is given).
  std::vector<std::vector<KeywordMapping>> all;
  all.reserve(query.keywords.size());
  for (const auto& kw : query.keywords) {
    if (cache == nullptr) {
      all.push_back(MapKeyword(kw));
      continue;
    }
    auto it = cache->find(kw);
    if (it == cache->end()) {
      it = cache->emplace(kw, MapKeyword(kw)).first;
    }
    all.push_back(it->second);
  }

  // Collect configuration context: which tables / columns have a
  // schema-item keyword in this query.
  std::unordered_set<std::string> context_tables;
  std::unordered_set<std::string> context_columns;  // "table.column"
  for (const auto& mappings : all) {
    for (const auto& m : mappings) {
      if (m.kind == KeywordMapping::Kind::kTableName) {
        context_tables.insert(m.table);
      } else if (m.kind == KeywordMapping::Kind::kColumnName) {
        context_columns.insert(m.table + "." + m.column);
      }
    }
  }

  auto contextual_score = [&](const KeywordMapping& m) {
    double s = m.score;
    if (context_tables.count(m.table) > 0) {
      s *= 1.0 + params_.table_context_boost;
    }
    if (context_columns.count(m.table + "." + m.column) > 0) {
      s *= 1.0 + params_.column_context_boost;
    }
    return std::min(s, 0.99);
  };

  auto make_predicates = [&](const std::string& keyword,
                             const KeywordMapping& m) {
    std::vector<Predicate> preds;
    if (m.exact_value) {
      Predicate p;
      p.column = m.column;
      p.op = CompareOp::kEq;
      // Typed literal: integer columns need integer values.
      auto table_result = catalog_->GetTable(m.table);
      DataType type = DataType::kString;
      if (table_result.ok()) {
        const int ord = (*table_result)->schema().ColumnIndex(m.column);
        if (ord >= 0) {
          type = (*table_result)->schema().column(
              static_cast<size_t>(ord)).type;
        }
      }
      switch (type) {
        case DataType::kInt64:
          p.value = Value(static_cast<int64_t>(std::strtoll(
              keyword.c_str(), nullptr, 10)));
          break;
        case DataType::kDouble:
          p.value = Value(std::strtod(keyword.c_str(), nullptr));
          break;
        case DataType::kString:
          p.value = Value(keyword);
          break;
      }
      preds.push_back(std::move(p));
    } else {
      // Containment probes, one per token of the keyword ("G-Actin" ->
      // tokens {"g","actin"}), conjunctive.
      for (const auto& tok : TokenizeForIndex(keyword)) {
        Predicate p;
        p.column = m.column;
        p.op = CompareOp::kContainsToken;
        p.value = Value(tok);
        preds.push_back(std::move(p));
      }
    }
    return preds;
  };

  std::vector<GeneratedSql> out;
  // (1) One statement per value mapping of each keyword.
  // Track, per table.column, the keywords that mapped there (for combos).
  std::unordered_map<std::string, std::vector<std::pair<std::string, double>>>
      by_column;  // "table.column" -> [(keyword, score)]
  for (size_t i = 0; i < query.keywords.size(); ++i) {
    for (const auto& m : all[i]) {
      if (m.kind != KeywordMapping::Kind::kValue) continue;
      if (out.size() >= params_.max_sql_per_query) break;
      GeneratedSql sql;
      sql.query.table = m.table;
      sql.query.predicates = make_predicates(query.keywords[i], m);
      if (sql.query.predicates.empty()) continue;
      sql.confidence = contextual_score(m);
      by_column[m.table + "." + m.column].push_back(
          {query.keywords[i], sql.confidence});
      out.push_back(std::move(sql));
    }
  }

  // (2) Combo statements for multi-column referencing combinations
  // declared in ConceptRefs (e.g. Protein referenced by PName & PType):
  // when every column of a declared combo received some keyword, emit the
  // conjunctive statement with a confidence bonus.
  for (const auto& cref : meta_->concepts()) {
    for (const auto& combo : cref.referenced_by) {
      if (combo.size() < 2) continue;
      std::vector<std::pair<std::string, double>> chosen;  // (keyword, score)
      bool complete = true;
      for (const auto& col : combo) {
        auto it = by_column.find(cref.table_name + "." + col);
        if (it == by_column.end() || it->second.empty()) {
          complete = false;
          break;
        }
        // Best keyword for this column.
        const auto best = *std::max_element(
            it->second.begin(), it->second.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
        chosen.push_back(best);
      }
      if (!complete || out.size() >= params_.max_sql_per_query) continue;
      GeneratedSql sql;
      sql.query.table = cref.table_name;
      double sum = 0.0;
      bool ok = true;
      for (size_t c = 0; c < combo.size(); ++c) {
        KeywordMapping m;
        m.kind = KeywordMapping::Kind::kValue;
        m.table = cref.table_name;
        m.column = combo[c];
        m.exact_value = true;
        auto preds = make_predicates(chosen[c].first, m);
        if (preds.empty()) {
          ok = false;
          break;
        }
        for (auto& p : preds) sql.query.predicates.push_back(std::move(p));
        sum += chosen[c].second;
      }
      if (!ok) continue;
      sql.confidence =
          std::min(0.99, sum / static_cast<double>(combo.size()) + 0.10);
      out.push_back(std::move(sql));
    }
  }

  // Deduplicate identical statements, keeping the highest confidence.
  std::unordered_multimap<uint64_t, size_t> seen;  // StructuralHash -> index
  std::vector<GeneratedSql> deduped;
  for (auto& sql : out) {
    const uint64_t hash = sql.StructuralHash();
    auto [it, end] = seen.equal_range(hash);
    while (it != end && !deduped[it->second].SameStatement(sql)) ++it;
    if (it == end) {
      seen.emplace(hash, deduped.size());
      deduped.push_back(std::move(sql));
    } else if (sql.confidence > deduped[it->second].confidence) {
      deduped[it->second].confidence = sql.confidence;
    }
  }
  return deduped;
}

std::vector<std::vector<GeneratedSql>> KeywordSearchEngine::CompileGroup(
    const std::vector<KeywordQuery>& queries) const {
  std::vector<std::vector<GeneratedSql>> plans;
  plans.reserve(queries.size());
  MappingCache cache;
  for (const KeywordQuery& q : queries) {
    plans.push_back(CompileToSql(q, &cache));
  }
  return plans;
}

Result<KeywordSearchEngine::StatementRows> KeywordSearchEngine::ExecuteRows(
    const GeneratedSql& sql, const MiniDb* mini_db, ExecStats* stats) const {
  NEBULA_ASSIGN_OR_RETURN(const Table* table,
                          catalog_->GetTable(sql.query.table));
  StatementRows out;
  out.table_id = table->id();
  const std::vector<Table::RowId>* restrict = nullptr;
  if (mini_db != nullptr) {
    restrict = mini_db->ForTable(table->id());
    if (restrict == nullptr) {
      // No rows of this table inside the mini database.
      if (stats != nullptr) stats->Reset();
      return out;
    }
  }

  // A per-call executor keeps this path free of shared mutable state, so
  // concurrent const Search callers can run it at once.
  QueryExecutor executor(catalog_);
  executor.set_use_value_index(params_.use_value_index);
  Stopwatch watch;
  Result<std::vector<Table::RowId>> rows_result =
      executor.Execute(sql.query, restrict,
                       /*allow_text_index=*/!params_.scan_containment);
  const uint64_t elapsed_us = watch.ElapsedMicros();
  // Overwrite, never +=: a stale out-param must not survive into the
  // caller's AccumulateStats fold (see the header contract).
  if (stats != nullptr) *stats = executor.stats();
  if constexpr (obs::kEnabled) {
    if (obs::EventContext* ctx = obs::CurrentEventContext()) {
      const ExecStats& exec = executor.stats();
      ++ctx->sql_executed;
      ctx->rows_examined += exec.rows_examined;
      ctx->index_lookups += exec.index_lookups;
    }
    const IndexPathStats& paths = executor.path_stats();
    const KeywordEngineMetrics& m = Metrics();
    m.sql_duration_us->Observe(elapsed_us);
    if (paths.index_path > 0) {
      m.probe_index->Increment(paths.index_path);
      m.index_lookup_us->Observe(elapsed_us);
    }
    if (paths.legacy_path > 0) m.probe_legacy->Increment(paths.legacy_path);
  }
  NEBULA_ASSIGN_OR_RETURN(out.rows, std::move(rows_result));
  return out;
}

std::vector<SearchHit> KeywordSearchEngine::MergeHits(
    std::vector<SearchHit> hits) {
  // The stable sort keeps each tuple's hits in statement order, and only
  // a strictly larger confidence replaces the kept one, so of equal
  // maxima the first statement's stays.
  std::stable_sort(hits.begin(), hits.end(),
                   [](const SearchHit& a, const SearchHit& b) {
                     return a.tuple < b.tuple;
                   });
  size_t kept = 0;
  for (size_t i = 0; i < hits.size();) {
    SearchHit best = hits[i];
    for (++i; i < hits.size() && hits[i].tuple == best.tuple; ++i) {
      if (hits[i].confidence > best.confidence) {
        best.confidence = hits[i].confidence;
      }
    }
    hits[kept++] = best;
  }
  hits.resize(kept);
  std::sort(hits.begin(), hits.end(), RanksBefore);
  return hits;
}

Result<std::vector<SearchHit>> KeywordSearchEngine::Search(
    const KeywordQuery& query, const MiniDb* mini_db) {
  ExecStats local;
  Result<std::vector<SearchHit>> hits = Search(query, mini_db, &local);
  executor_.AccumulateStats(local);
  return hits;
}

Result<std::vector<SearchHit>> KeywordSearchEngine::Search(
    const KeywordQuery& query, const MiniDb* mini_db,
    ExecStats* stats) const {
  return SearchPlan(CompileToSql(query), mini_db, stats);
}

Result<std::vector<SearchHit>> KeywordSearchEngine::SearchPlan(
    const std::vector<GeneratedSql>& plan, const MiniDb* mini_db,
    ExecStats* stats) const {
  std::vector<SearchHit> hits;
  // Aggregate the per-statement counters locally and assign once at the
  // end: the out-param is overwrite-semantics (see header), and an error
  // return must leave it untouched.
  ExecStats total;
  for (const auto& sql : plan) {
    ExecStats one;
    NEBULA_ASSIGN_OR_RETURN(StatementRows selected,
                            ExecuteRows(sql, mini_db, &one));
    total += one;
    for (Table::RowId r : selected.rows) {
      hits.push_back({TupleId{selected.table_id, r}, sql.confidence});
    }
  }
  if (stats != nullptr) *stats = total;
  return MergeHits(std::move(hits));
}

}  // namespace nebula
