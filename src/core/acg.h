#ifndef NEBULA_CORE_ACG_H_
#define NEBULA_CORE_ACG_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "annotation/annotation_store.h"
#include "storage/schema.h"

namespace nebula {

/// Stability configuration of Def. 6.1: over a non-overlapping batch of B
/// annotations with M attachments, the ACG is stable iff the number of
/// newly created edges N satisfies N / M < mu.
struct AcgStabilityConfig {
  size_t batch_size = 50;  ///< B
  double mu = 0.10;        ///< stability threshold
};

/// The Annotations Connectivity Graph (paper §6.2, Figure 6).
///
/// Nodes are annotated tuples; an edge connects two tuples that share at
/// least one annotation. The edge weight is the ratio of common
/// annotations to the total annotations attached to the two tuples
/// (Jaccard over their annotation sets). The graph is maintained
/// incrementally as attachments arrive, tracks its own stability, and
/// owns the hop-distance profile histogram (Figure 7) that guides the
/// selection of K for focal-spreading search.
///
/// Layout: every node has a dense id, the order in which its tuple first
/// joined the graph, and one adjacency vector sorted by neighbour id. A
/// TupleId is hashed only to resolve an API argument; the searches walk
/// the vectors. The const queries keep their visited sets in locals, so any
/// number of readers may run them at once while no writer is active.
class Acg {
 public:
  explicit Acg(AcgStabilityConfig stability = {});

  /// Rebuilds the graph from every True attachment in the store (the
  /// "built at once" mode used for experiment setup). Does not touch the
  /// stability counters or the profile.
  void BuildFromStore(const AnnotationStore& store);

  /// Incrementally records that `annotation` is now attached to `tuple`,
  /// given the annotation's other attached tuples `siblings` (excluding
  /// `tuple`). Updates edges, per-tuple annotation counts, and the
  /// stability counters.
  void AddAttachment(AnnotationId annotation, const TupleId& tuple,
                     const std::vector<TupleId>& siblings);

  /// Edge weight between two tuples; 0 when no edge. Binary-searches b's
  /// adjacency list, so a caller scoring many candidates against one
  /// focal tuple passes the focal as `b` and keeps that list cached.
  double EdgeWeight(const TupleId& a, const TupleId& b) const;

  bool HasNode(const TupleId& t) const;
  size_t num_nodes() const { return tuples_.size(); }
  size_t num_edges() const { return num_edges_; }

  /// Weighted neighbors of a tuple (deterministic order).
  std::vector<std::pair<TupleId, double>> Neighbors(const TupleId& t) const;

  /// All nodes within `k` hops of any tuple in `focal` (BFS over the
  /// unweighted graph), focal tuples included at distance 0.
  std::vector<TupleId> KHopNeighborhood(const std::vector<TupleId>& focal,
                                        size_t k) const;

  /// Smallest hop count from `t` to any focal tuple (unweighted), or -1
  /// when unreachable / absent from the graph. A bidirectional BFS, so an
  /// unreachable target stops as soon as either side's component is
  /// exhausted.
  int HopDistance(const std::vector<TupleId>& focal, const TupleId& t) const;

  /// The §6.2 extension the paper describes but does not enable: the best
  /// product of edge weights along a path of at most `max_hops` hops from
  /// `t` to any focal tuple. Returns 0 when unreachable within the
  /// budget. A direct edge degenerates to EdgeWeight.
  double PathWeight(const std::vector<TupleId>& focal, const TupleId& t,
                    size_t max_hops) const;

  // --- Stability (Def. 6.1) ---

  /// True when the last completed batch satisfied N/M < mu. Starts false:
  /// an immature graph must not trigger approximate search.
  bool stable() const { return stable_; }
  const AcgStabilityConfig& stability_config() const { return stability_; }
  /// Counters of the in-progress batch (exposed for tests/benchmarks).
  size_t batch_annotations() const { return batch_annotations_.size(); }
  size_t batch_attachments() const { return batch_attachments_; }
  size_t batch_new_edges() const { return batch_new_edges_; }

  // --- Hop-distance profile (Figure 7) ---

  /// Records that a discovered candidate was `hops` away from the focal
  /// (hops < 0, i.e. unreachable, lands in the overflow bucket).
  void RecordProfilePoint(int hops);

  /// Bucket[i] = number of candidates discovered at distance i; the last
  /// bucket aggregates everything at >= profile size or unreachable.
  const std::vector<uint64_t>& profile() const { return profile_; }

  /// Smallest K whose cumulative profile mass reaches `desired_recall`
  /// (e.g. 0.93 -> 3 in the paper's example). Returns `fallback` when the
  /// profile is empty.
  size_t SelectK(double desired_recall, size_t fallback = 3) const;

  /// Order-independent structural digest of the graph: nodes with their
  /// annotation counts plus edges with their shared-annotation counts.
  /// Two graphs with equal fingerprints hold the same structure, however
  /// they were built — the consistency check NebulaCheck and the fault
  /// tests use to prove incremental maintenance never corrupts the ACG
  /// (fingerprint(incremental) == fingerprint(BuildFromStore)).
  uint64_t Fingerprint() const;

 private:
  /// One adjacency entry: the neighbour's node id and the number of
  /// annotations the two tuples share.
  struct Edge {
    uint32_t to;
    uint32_t common;
  };
  static constexpr uint32_t kNoNode = UINT32_MAX;

  /// The node id of `t`, or kNoNode when `t` is not in the graph.
  uint32_t Find(const TupleId& t) const;
  /// The node id of `t`, adding `t` as a node with no annotations first.
  uint32_t Intern(const TupleId& t);
  /// Ids of the focal tuples in the graph, each once.
  std::vector<uint32_t> FocalIds(const std::vector<TupleId>& focal,
                                 std::vector<bool>* seen) const;
  void AddEdgeCount(uint32_t a, uint32_t b, bool* created);
  /// Jaccard weight of an edge whose endpoints share `common` annotations.
  double Weight(uint32_t a, uint32_t b, uint32_t common) const;

  std::unordered_map<TupleId, uint32_t, TupleIdHash> ids_;
  std::vector<TupleId> tuples_;            // by node id
  std::vector<size_t> annotation_count_;   // by node id
  std::vector<std::vector<Edge>> adj_;     // by node id, sorted by `to`
  size_t num_edges_ = 0;

  AcgStabilityConfig stability_;
  bool stable_ = false;
  std::unordered_set<uint64_t> batch_annotations_;
  size_t batch_attachments_ = 0;
  size_t batch_new_edges_ = 0;

  std::vector<uint64_t> profile_;
};

}  // namespace nebula

#endif  // NEBULA_CORE_ACG_H_
