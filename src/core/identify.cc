#include "core/identify.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/fault.h"
#include "common/fault_points.h"
#include "common/status.h"
#include "common/sync.h"
#include "keyword/engine.h"
#include "keyword/mini_db.h"
#include "keyword/query_types.h"
#include "keyword/shared_executor.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "sql/escape.h"
#include "storage/query.h"
#include "storage/schema.h"

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
  // Step 1: execute every keyword query; each answer tuple's confidence is
  // scaled by its query's generation weight.
  //
  // With a plan cache attached, the whole group's compilation is resolved
  // up front (cached or cold) and every execution path below consumes the
  // precompiled plans; candidates are identical either way.
  const bool use_plans = plan_cache_ != nullptr;
  std::vector<std::vector<GeneratedSql>> plans;
  if (use_plans) {
    plans = plan_cache_->GetOrCompileGroup(*engine_, queries);
  }
  std::vector<std::vector<SearchHit>> per_query;
  if (params_.shared_execution) {
    SharedKeywordExecutor shared(engine_);
    NEBULA_RETURN_NOT_OK(shared.ExecuteGroup(queries, &per_query, mini_db,
                                             use_plans ? &plans : nullptr));
  } else {
    per_query.reserve(queries.size());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      Result<std::vector<SearchHit>> hits = std::vector<SearchHit>{};
      if (use_plans) {
        ExecStats one;
        hits = engine_->SearchPlan(plans[qi], mini_db, &one);
        engine_->AccumulateStats(one);
      } else {
        hits = engine_->Search(queries[qi], mini_db);
      }
      NEBULA_RETURN_NOT_OK(hits.status());
      per_query.push_back(std::move(hits).value());
    }
  }

  // Step 2: group identical tuples across queries; reward multi-query
  // tuples by summing (or keep the max under the ablation setting).
  struct Accum {
    double confidence = 0.0;
    std::vector<std::string> evidence;
  };
  std::unordered_map<TupleId, Accum, TupleIdHash> grouped;
  for (size_t qi = 0; qi < per_query.size(); ++qi) {
    const double qweight = queries[qi].weight;
    for (const auto& hit : per_query[qi]) {
      const double contribution = hit.confidence * qweight;
      Accum& acc = grouped[hit.tuple];
      if (params_.group_reward) {
        acc.confidence += contribution;
      } else {
        acc.confidence = std::max(acc.confidence, contribution);
      }
      acc.evidence.push_back(queries[qi].label.empty()
                                 ? queries[qi].ToString()
                                 : queries[qi].label);
    }
  }

  // §6.2: focal-based confidence adjustment through the ACG — each direct
  // edge to a focal tuple rewards the candidate by edge_weight * conf.
  if (params_.focal_adjustment && acg_ != nullptr && !focal.empty()) {
    // nebula-lint: order-insensitive — per-candidate adjustment, no cross-element state
    for (auto& [tuple, acc] : grouped) {
      double reward = 0.0;
      if (params_.focal_reward_mode == FocalRewardMode::kDirectEdge) {
        for (const auto& f : focal) {
          const double w = acg_->EdgeWeight(tuple, f);
          reward += w * acc.confidence;
        }
      } else {
        // Shortest-path extension: one reward from the best path to any
        // focal tuple (summing per focal would double-count shared path
        // prefixes).
        const double w =
            acg_->PathWeight(focal, tuple, params_.path_max_hops);
        reward = w * acc.confidence;
      }
      acc.confidence += reward;
    }
  }

  // Step 3: normalize relative to the maximum confidence.
  double max_conf = 0.0;
  // nebula-lint: order-insensitive — commutative max fold
  for (const auto& [_, acc] : grouped) {
    max_conf = std::max(max_conf, acc.confidence);
  }
  std::vector<CandidateTuple> out;
  out.reserve(grouped.size());
  // nebula-lint: order-insensitive — total-order stable_sort below
  for (auto& [tuple, acc] : grouped) {
    CandidateTuple c;
    c.tuple = tuple;
    c.confidence = max_conf > 0.0 ? acc.confidence / max_conf : 0.0;
    // Deduplicate evidence labels while preserving order.
    for (auto& e : acc.evidence) {
      if (std::find(c.evidence.begin(), c.evidence.end(), e) ==
          c.evidence.end()) {
        c.evidence.push_back(std::move(e));
      }
    }
    out.push_back(std::move(c));
  }
  // Stable sort on (confidence desc, tuple id asc): the tuple-id tie-break
  // makes the ranking a total order, so equal-confidence candidates can
  // never flake across runs or configurations (the differential harness
  // compares rankings bit-for-bit).
  std::stable_sort(out.begin(), out.end(),
                   [](const CandidateTuple& a, const CandidateTuple& b) {
                     if (a.confidence != b.confidence) {
                       return a.confidence > b.confidence;
                     }
                     return a.tuple < b.tuple;
                   });
  return out;
}

}  // namespace nebula
