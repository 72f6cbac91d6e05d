#ifndef NEBULA_CORE_IDENTIFY_H_
#define NEBULA_CORE_IDENTIFY_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lock_rank.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/acg.h"
#include "keyword/engine.h"
#include "keyword/mini_db.h"
#include "keyword/query_types.h"
#include "keyword/shared_executor.h"
#include "meta/nebula_meta.h"
#include "storage/schema.h"

namespace nebula {

/// A candidate data tuple that the execution stage believes the annotation
/// references, with Nebula's confidence and the supporting evidence
/// (the keyword queries whose answers contained the tuple — this becomes
/// the verification task's evidence set in §7).
struct CandidateTuple {
  TupleId tuple;
  double confidence = 0.0;
  std::vector<std::string> evidence;
};

/// How the §6.2 focal-based confidence adjustment consults the ACG.
enum class FocalRewardMode {
  /// Direct edges between the candidate and the focal only (the paper's
  /// production choice: semantically strongest, no overfitting).
  kDirectEdge,
  /// The paper's discussed extension: best edge-weight product along a
  /// shortest path of up to `path_max_hops` hops.
  kShortestPath,
};

/// Knobs of the execution stage.
struct IdentifyParams {
  /// Step 2 of the paper's algorithm: reward tuples produced by several
  /// queries of the same annotation by summing their confidences. When
  /// disabled (ablation), the max is kept instead.
  bool group_reward = true;
  /// §6.2 focal-based adjustment through the ACG. When enabled, each
  /// candidate directly connected to a focal tuple gains
  /// edge_weight * confidence per edge.
  bool focal_adjustment = true;
  FocalRewardMode focal_reward_mode = FocalRewardMode::kDirectEdge;
  /// Hop budget for the kShortestPath mode.
  size_t path_max_hops = 3;
};

/// Keyword -> configuration plan cache: memoizes CompileToSql results (the
/// configuration enumeration + SQL generation of steps 1-2) across
/// annotations. The same keyword combination — typically a concept word
/// plus an embedded reference — recurs across the curation stream, and its
/// plan only depends on NebulaMeta state and the engine's search knobs.
///
/// Invalidation is wholesale, the idiom NebulaMeta's word-score memo
/// shares: every lookup compares NebulaMeta::version() (bumped by each
/// successful metadata mutation) and the engine's KeywordSearchParams
/// against the values seen at fill time, and any change drops the whole
/// cache; so does a fill that would exceed the byte budget, and a plan
/// larger than the whole budget is not kept. There is deliberately no
/// per-entry dependency tracking — metadata mutations are rare (curation
/// setup), and a stale plan would silently change results.
///
/// Thread-safe; one instance is shared by every TupleIdentifier the owning
/// NebulaEngine creates.
class PlanCache {
 public:
  /// Resident bytes of cached plans: about 1,400 plans of the Mid
  /// corpus stream (370 charged bytes each).
  static constexpr size_t kDefaultBudgetBytes = 512 * 1024;

  explicit PlanCache(const NebulaMeta* meta,
                     size_t budget_bytes = kDefaultBudgetBytes)
      : meta_(meta), budget_bytes_(budget_bytes) {}

  /// Returns plans[i] == engine.CompileToSql(queries[i]) for every query,
  /// serving repeats from the cache. Cold compilations within one group
  /// share a MappingCache, as KeywordSearchEngine::CompileGroup's do.
  std::vector<std::vector<GeneratedSql>> GetOrCompileGroup(
      const KeywordSearchEngine& engine,
      const std::vector<KeywordQuery>& queries) EXCLUDES(mutex_);

  size_t size() const EXCLUDES(mutex_);
  size_t bytes() const EXCLUDES(mutex_);
  void Clear() EXCLUDES(mutex_);

 private:
  /// Cache key: the keyword sequence (all CompileToSql consumes besides
  /// meta/params state). Weight and label never affect compilation.
  static std::string KeyOf(const KeywordQuery& query);

  const NebulaMeta* meta_;
  const size_t budget_bytes_;
  mutable Mutex mutex_{kLockRankCorePlanCache};
  uint64_t seen_version_ GUARDED_BY(mutex_) = 0;
  KeywordSearchParams seen_params_ GUARDED_BY(mutex_);
  size_t bytes_ GUARDED_BY(mutex_) = 0;
  std::unordered_map<std::string, std::vector<GeneratedSql>> plans_
      GUARDED_BY(mutex_);
};

/// Stage 2 of the Nebula pipeline: executes the generated keyword queries
/// and produces ranked candidate tuples (paper Figure 5, extended with the
/// §6.2 focal-based confidence adjustment).
///
/// The group is compiled once and runs through the SharedKeywordExecutor,
/// which executes each distinct statement once and returns one (tuple,
/// query, statement confidence) row per returned row per query holding the
/// statement. One sort by tuple groups them, and one fold per tuple takes
/// the max over each query's statements, weights it and sums across
/// queries in query order. Evidence stays label ids until each candidate's
/// strings are built once. The direct-edge reward merge-joins the
/// TupleId-ordered candidates with each focal tuple's Acg::Neighbors list.
/// DESIGN.md §6 gives the rules and why the result is bit-identical to a
/// per-query hash-map merge.
class TupleIdentifier {
 public:
  /// `plan_cache`, when given, serves the group's compiled plans; without
  /// one every group is recompiled. Results are identical either way.
  TupleIdentifier(KeywordSearchEngine* engine, const Acg* acg,
                  IdentifyParams params = {}, PlanCache* plan_cache = nullptr)
      : engine_(engine), acg_(acg), params_(params), plan_cache_(plan_cache) {}

  /// Runs the algorithm. `focal` is Foc(a); `mini_db`, when given,
  /// restricts the search (focal-spreading mode). Candidates are returned
  /// sorted by confidence (descending), confidences normalized to (0,1].
  [[nodiscard]] Result<std::vector<CandidateTuple>> Identify(
      const std::vector<KeywordQuery>& queries,
      const std::vector<TupleId>& focal, const MiniDb* mini_db = nullptr);

  const IdentifyParams& params() const { return params_; }
  IdentifyParams& params() { return params_; }

 private:
  KeywordSearchEngine* engine_;
  const Acg* acg_;
  IdentifyParams params_;
  PlanCache* plan_cache_;
};

}  // namespace nebula

#endif  // NEBULA_CORE_IDENTIFY_H_
