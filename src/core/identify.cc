#include "core/identify.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/fault_points.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/acg.h"
#include "keyword/engine.h"
#include "keyword/mini_db.h"
#include "keyword/query_types.h"
#include "keyword/shared_executor.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "sql/escape.h"
#include "storage/query.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace nebula {

namespace {

/// Process-wide plan-cache instruments, resolved once.
struct PlanCacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Gauge* entries;
  obs::Gauge* bytes;
};

const PlanCacheMetrics& Metrics() {
  static const PlanCacheMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    PlanCacheMetrics out;
    out.hits = r.GetCounter("nebula_plan_cache_total", {{"outcome", "hit"}},
                            "Keyword->configuration plan cache outcomes");
    out.misses =
        r.GetCounter("nebula_plan_cache_total", {{"outcome", "miss"}}, "");
    out.entries = r.GetGauge("nebula_plan_cache_entries", {},
                             "Resident keyword->configuration plans");
    out.bytes = r.GetGauge("nebula_plan_cache_bytes", {},
                           "Resident bytes of the plan cache");
    return out;
  }();
  return m;
}

/// Charged size of a cache entry: the key, the statements and their
/// predicates (short names and keyword values live inline in those), and
/// the hash node.
size_t EntryBytes(const std::string& key,
                  const std::vector<GeneratedSql>& plan) {
  size_t bytes = key.size() + 64 + plan.size() * sizeof(GeneratedSql);
  for (const GeneratedSql& sql : plan) {
    bytes += sql.query.predicates.size() * sizeof(Predicate);
  }
  return bytes;
}

/// One tuple after the fold: its confidence, its §6.2 reward, and its
/// evidence as the label ids evidence[evidence_begin, evidence_end).
struct Candidate {
  TupleId tuple;
  double confidence = 0.0;
  double reward = 0.0;
  uint32_t evidence_begin = 0;
  uint32_t evidence_end = 0;
};

/// The evidence label of each query: its label, or its keywords when it
/// has none, rendered once. id(qi) is the first query whose label equals
/// qi's, so deduping ids dedupes labels by string equality.
class EvidenceLabels {
 public:
  explicit EvidenceLabels(const std::vector<KeywordQuery>& queries)
      : queries_(queries), rendered_(queries.size()), ids_(queries.size()) {
    for (uint32_t qi = 0; qi < queries.size(); ++qi) {
      if (queries[qi].label.empty()) rendered_[qi] = queries[qi].ToString();
      ids_[qi] = qi;
      for (uint32_t qj = 0; qj < qi; ++qj) {
        if (ids_[qj] == qj && text(qj) == text(qi)) {
          ids_[qi] = qj;
          break;
        }
      }
    }
  }

  uint32_t id(uint32_t qi) const { return ids_[qi]; }
  const std::string& text(uint32_t qi) const {
    return queries_[qi].label.empty() ? rendered_[qi] : queries_[qi].label;
  }

 private:
  const std::vector<KeywordQuery>& queries_;
  std::vector<std::string> rendered_;
  std::vector<uint32_t> ids_;
};

/// Step 2 of the paper's algorithm over the flat entries, which arrive in
/// ascending query order and, within a query, in plan order. One stable
/// sort by tuple keeps that order inside each tuple's run; then the run
/// takes the max per query (MergeHits' rule: the first of equal maxima),
/// scales it by the query weight, and adds the products from 0.0 in
/// ascending query order (or, under the ablation, keeps their max).
/// Candidates come out in TupleId order; each one's evidence label ids, in
/// ascending query order without repeats, go to `evidence`.
std::vector<Candidate> Fold(const std::vector<KeywordQuery>& queries,
                            const EvidenceLabels& labels, bool group_reward,
                            std::vector<GroupRow>* entries,
                            std::vector<uint32_t>* evidence) {
  std::stable_sort(entries->begin(), entries->end(),
                   [](const GroupRow& a, const GroupRow& b) {
                     if (a.table_id != b.table_id) {
                       return a.table_id < b.table_id;
                     }
                     return a.row < b.row;
                   });
  std::vector<Candidate> out;
  // The candidate that last took each label id, to skip repeats.
  std::vector<uint32_t> taken_by(queries.size(), UINT32_MAX);
  const std::vector<GroupRow>& e = *entries;
  for (size_t i = 0; i < e.size();) {
    const uint32_t index = static_cast<uint32_t>(out.size());
    Candidate c;
    c.tuple = e[i].tuple();
    c.evidence_begin = static_cast<uint32_t>(evidence->size());
    while (i < e.size() && e[i].tuple() == c.tuple) {
      const uint32_t qi = e[i].query;
      double best = e[i].confidence;
      for (++i; i < e.size() && e[i].tuple() == c.tuple && e[i].query == qi;
           ++i) {
        if (e[i].confidence > best) best = e[i].confidence;
      }
      const double contribution = best * queries[qi].weight;
      c.confidence = group_reward ? c.confidence + contribution
                                  : std::max(c.confidence, contribution);
      const uint32_t id = labels.id(qi);
      if (taken_by[id] != index) {
        taken_by[id] = index;
        evidence->push_back(id);
      }
    }
    c.evidence_end = static_cast<uint32_t>(evidence->size());
    out.push_back(c);
  }
  return out;
}

/// §6.2 direct-edge reward: each ACG edge between a candidate and a focal
/// tuple adds edge_weight * conf, over the focal tuples in focal order (a
/// repeated focal tuple counts again). The candidates are in TupleId
/// order, as is each focal tuple's Neighbors list, whose weights equal
/// EdgeWeight's bit for bit; so one merge-join per focal tuple finds every
/// edge. A missing edge would add 0 * conf = +0.0 and is skipped.
void AddDirectEdgeReward(const Acg& acg, const std::vector<TupleId>& focal,
                         std::vector<Candidate>* candidates) {
  std::vector<Candidate>& cands = *candidates;
  for (const TupleId& f : focal) {
    size_t c = 0;
    for (const auto& [tuple, w] : acg.Neighbors(f)) {
      while (c < cands.size() && cands[c].tuple < tuple) ++c;
      if (c == cands.size()) break;
      if (cands[c].tuple == tuple) cands[c].reward += w * cands[c].confidence;
    }
  }
}

}  // namespace

std::string PlanCache::KeyOf(const KeywordQuery& query) {
  // Each keyword rides as an escaped SQL literal plus a separator, which
  // keeps the key injective for ARBITRARY keyword bytes — a keyword
  // carrying a separator or quote can never collide two distinct keyword
  // sequences onto one cached plan (untrusted annotation text feeds this
  // once the engine serves a socket).
  sql::SqlFragment key;
  for (const auto& w : query.keywords) {
    key.Literal(w);
    key.Raw(",");
  }
  return key.str();
}

std::vector<std::vector<GeneratedSql>> PlanCache::GetOrCompileGroup(
    const KeywordSearchEngine& engine,
    const std::vector<KeywordQuery>& queries) {
  MutexLock lock(mutex_);
  // Wholesale invalidation: any metadata mutation or search-knob change
  // since the last fill makes every cached plan suspect.
  const uint64_t version = meta_ != nullptr ? meta_->version() : 0;
  if (version != seen_version_ || !(engine.params() == seen_params_)) {
    plans_.clear();
    bytes_ = 0;
    seen_version_ = version;
    seen_params_ = engine.params();
  }
  std::vector<std::vector<GeneratedSql>> out;
  out.reserve(queries.size());
  KeywordSearchEngine::MappingCache mapping_cache;
  for (const KeywordQuery& q : queries) {
    std::string key = KeyOf(q);
    auto it = plans_.find(key);
    if (it != plans_.end()) {
      if constexpr (obs::kEnabled) {
        Metrics().hits->Increment();
        if (obs::EventContext* ctx = obs::CurrentEventContext()) {
          ++ctx->plan_cache_hits;
        }
      }
      out.push_back(it->second);
      continue;
    }
    if constexpr (obs::kEnabled) {
      Metrics().misses->Increment();
      if (obs::EventContext* ctx = obs::CurrentEventContext()) {
        ++ctx->plan_cache_misses;
      }
    }
    std::vector<GeneratedSql> compiled = engine.CompileToSql(q, &mapping_cache);
    // Fault injection: a failed fill degrades to compile-every-time, it
    // must never poison the cache or the returned plans.
    const size_t charge = EntryBytes(key, compiled);
    if (!NEBULA_FAULT_SHOULD_FAIL(kFaultCorePlanCacheFill) &&
        charge <= budget_bytes_) {
      if (bytes_ + charge > budget_bytes_) {
        plans_.clear();
        bytes_ = 0;
      }
      bytes_ += charge;
      plans_.emplace(std::move(key), compiled);
    }
    out.push_back(std::move(compiled));
  }
  if constexpr (obs::kEnabled) {
    Metrics().entries->Set(static_cast<int64_t>(plans_.size()));
    Metrics().bytes->Set(static_cast<int64_t>(bytes_));
  }
  return out;
}

size_t PlanCache::size() const {
  MutexLock lock(mutex_);
  return plans_.size();
}

size_t PlanCache::bytes() const {
  MutexLock lock(mutex_);
  return bytes_;
}

void PlanCache::Clear() {
  MutexLock lock(mutex_);
  plans_.clear();
  bytes_ = 0;
}

Result<std::vector<CandidateTuple>> TupleIdentifier::Identify(
    const std::vector<KeywordQuery>& queries,
    const std::vector<TupleId>& focal, const MiniDb* mini_db) {
  // Step 1: compile the group once and execute it: one entry (tuple,
  // query, statement confidence) per returned row per query holding the
  // statement, in query order and, within a query, in plan order.
  const std::vector<std::vector<GeneratedSql>> plans =
      plan_cache_ != nullptr ? plan_cache_->GetOrCompileGroup(*engine_, queries)
                             : engine_->CompileGroup(queries);
  SharedKeywordExecutor executor(engine_);
  std::vector<GroupRow> entries;
  NEBULA_RETURN_NOT_OK(executor.ExecuteGroup(plans, mini_db, &entries));

  // Step 2: one fold groups the entries by tuple.
  const EvidenceLabels labels(queries);
  std::vector<uint32_t> evidence;
  std::vector<Candidate> candidates =
      Fold(queries, labels, params_.group_reward, &entries, &evidence);

  // §6.2: focal-based confidence adjustment through the ACG.
  if (params_.focal_adjustment && acg_ != nullptr && !focal.empty()) {
    if (params_.focal_reward_mode == FocalRewardMode::kDirectEdge) {
      AddDirectEdgeReward(*acg_, focal, &candidates);
    } else {
      // Shortest-path extension: one reward from the best path to any
      // focal tuple (summing per focal would double-count shared path
      // prefixes).
      for (Candidate& c : candidates) {
        c.reward = acg_->PathWeight(focal, c.tuple, params_.path_max_hops) *
                   c.confidence;
      }
    }
    for (Candidate& c : candidates) c.confidence += c.reward;
  }

  // Step 3: normalize relative to the maximum confidence, then rank.
  double max_conf = 0.0;
  for (const Candidate& c : candidates) {
    max_conf = std::max(max_conf, c.confidence);
  }
  for (Candidate& c : candidates) {
    c.confidence = max_conf > 0.0 ? c.confidence / max_conf : 0.0;
  }
  // (confidence desc, tuple id asc): the tuple-id tie-break makes the
  // ranking a total order, so equal-confidence candidates can never flake
  // across runs or configurations (the differential harness compares
  // rankings bit-for-bit). The candidates are in TupleId order, so their
  // index stands in for the tuple.
  struct RankKey {
    double confidence;
    uint32_t index;
  };
  std::vector<RankKey> ranked;
  ranked.reserve(candidates.size());
  for (uint32_t i = 0; i < candidates.size(); ++i) {
    ranked.push_back({candidates[i].confidence, i});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankKey& a, const RankKey& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              return a.index < b.index;
            });
  std::vector<CandidateTuple> out(candidates.size());
  for (size_t k = 0; k < ranked.size(); ++k) {
    const Candidate& c = candidates[ranked[k].index];
    out[k].tuple = c.tuple;
    out[k].confidence = c.confidence;
    out[k].evidence.reserve(c.evidence_end - c.evidence_begin);
    for (uint32_t j = c.evidence_begin; j < c.evidence_end; ++j) {
      out[k].evidence.push_back(labels.text(evidence[j]));
    }
  }
  return out;
}

}  // namespace nebula
