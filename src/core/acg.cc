#include "core/acg.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "annotation/annotation_store.h"
#include "obs/metrics.h"
#include "storage/schema.h"

namespace nebula {

namespace {
constexpr size_t kProfileBuckets = 16;  // last bucket is overflow

/// Process-wide ACG instruments, resolved once. All engines share them:
/// the gauges reflect the last-updated graph, the counters accumulate.
struct AcgMetrics {
  obs::Gauge* nodes;
  obs::Gauge* edges;
  obs::Counter* attachments;
  obs::Counter* batches_stable;
  obs::Counter* batches_unstable;
  obs::Counter* profile[kProfileBuckets];
};

const AcgMetrics& Metrics() {
  static const AcgMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    AcgMetrics out;
    out.nodes = r.GetGauge("nebula_acg_nodes", {},
                           "Tuples currently in the annotation co-location "
                           "graph");
    out.edges = r.GetGauge("nebula_acg_edges", {},
                           "Undirected edges currently in the ACG");
    out.attachments =
        r.GetCounter("nebula_acg_attachments_total", {},
                     "True attachments folded into the ACG incrementally");
    const std::string batch_help =
        "Closed Def-6.1 stability batches, by verdict";
    out.batches_stable = r.GetCounter("nebula_acg_stability_batches_total",
                                      {{"stable", "true"}}, batch_help);
    out.batches_unstable = r.GetCounter("nebula_acg_stability_batches_total",
                                        {{"stable", "false"}}, "");
    const std::string profile_help =
        "Hop-profile points: focal-to-accepted-tuple distances (last "
        "bucket = unreachable or overflow)";
    for (size_t i = 0; i < kProfileBuckets; ++i) {
      out.profile[i] = r.GetCounter(
          "nebula_acg_profile_points_total",
          {{"hops", i + 1 == kProfileBuckets ? std::string("overflow")
                                             : std::to_string(i)}},
          i == 0 ? profile_help : std::string());
    }
    return out;
  }();
  return m;
}

/// First entry of a sorted adjacency list whose neighbour id is >= `to`.
template <typename List>
auto LowerBound(List& list, uint32_t to) {
  return std::lower_bound(list.begin(), list.end(), to,
                          [](const auto& e, uint32_t id) { return e.to < id; });
}
}  // namespace

Acg::Acg(AcgStabilityConfig stability)
    : stability_(stability), profile_(kProfileBuckets, 0) {}

uint32_t Acg::Find(const TupleId& t) const {
  auto it = ids_.find(t);
  return it == ids_.end() ? kNoNode : it->second;
}

uint32_t Acg::Intern(const TupleId& t) {
  auto [it, inserted] =
      ids_.emplace(t, static_cast<uint32_t>(tuples_.size()));
  if (inserted) {
    tuples_.push_back(t);
    annotation_count_.push_back(0);
    adj_.emplace_back();
  }
  return it->second;
}

std::vector<uint32_t> Acg::FocalIds(const std::vector<TupleId>& focal,
                                    std::vector<bool>* seen) const {
  std::vector<uint32_t> out;
  for (const auto& f : focal) {
    const uint32_t id = Find(f);
    if (id == kNoNode || (*seen)[id]) continue;
    (*seen)[id] = true;
    out.push_back(id);
  }
  return out;
}

void Acg::AddEdgeCount(uint32_t a, uint32_t b, bool* created) {
  auto bump = [](std::vector<Edge>* list, uint32_t to) {
    auto it = LowerBound(*list, to);
    if (it != list->end() && it->to == to) {
      ++it->common;
      return false;
    }
    list->insert(it, Edge{to, 1});
    return true;
  };
  if (bump(&adj_[a], b)) {
    ++num_edges_;
    *created = true;
  }
  bump(&adj_[b], a);
}

double Acg::Weight(uint32_t a, uint32_t b, uint32_t common) const {
  const size_t total = annotation_count_[a] + annotation_count_[b] - common;
  return total == 0 ? 0.0
                    : static_cast<double>(common) / static_cast<double>(total);
}

void Acg::BuildFromStore(const AnnotationStore& store) {
  ids_.clear();
  tuples_.clear();
  annotation_count_.clear();
  adj_.clear();
  num_edges_ = 0;
  std::vector<uint32_t> ids;
  for (size_t a = 0; a < store.num_annotations(); ++a) {
    ids.clear();
    for (const auto& t : store.AttachedTuples(a, /*true_only=*/true)) {
      ids.push_back(Intern(t));
      ++annotation_count_[ids.back()];
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      for (size_t j = i + 1; j < ids.size(); ++j) {
        bool created = false;
        AddEdgeCount(ids[i], ids[j], &created);
      }
    }
  }
  if constexpr (obs::kEnabled) {
    Metrics().nodes->Set(static_cast<int64_t>(tuples_.size()));
    Metrics().edges->Set(static_cast<int64_t>(num_edges_));
  }
}

void Acg::AddAttachment(AnnotationId annotation, const TupleId& tuple,
                        const std::vector<TupleId>& siblings) {
  // Stability bookkeeping (Def. 6.1): the batch closes when an attachment
  // arrives for a (B+1)-th distinct annotation — closing on the B-th
  // annotation's first attachment would split that annotation across two
  // batches. At close, evaluate N/M < mu and reset for the next
  // (non-overlapping) batch.
  if (batch_annotations_.count(annotation) == 0 &&
      batch_annotations_.size() >= stability_.batch_size) {
    const double ratio =
        batch_attachments_ == 0
            ? 0.0
            : static_cast<double>(batch_new_edges_) /
                  static_cast<double>(batch_attachments_);
    stable_ = ratio < stability_.mu;
    if constexpr (obs::kEnabled) {
      (stable_ ? Metrics().batches_stable : Metrics().batches_unstable)
          ->Increment();
    }
    batch_annotations_.clear();
    batch_attachments_ = 0;
    batch_new_edges_ = 0;
  }
  ++batch_attachments_;
  batch_annotations_.insert(annotation);

  const uint32_t id = Intern(tuple);
  ++annotation_count_[id];
  for (const auto& s : siblings) {
    if (s == tuple) continue;
    bool created = false;
    AddEdgeCount(id, Intern(s), &created);
    if (created) ++batch_new_edges_;
  }
  if constexpr (obs::kEnabled) {
    Metrics().attachments->Increment();
    Metrics().nodes->Set(static_cast<int64_t>(tuples_.size()));
    Metrics().edges->Set(static_cast<int64_t>(num_edges_));
  }
}

double Acg::EdgeWeight(const TupleId& a, const TupleId& b) const {
  const uint32_t ia = Find(a);
  if (ia == kNoNode) return 0.0;
  const uint32_t ib = Find(b);
  if (ib == kNoNode) return 0.0;
  // Both endpoints store the edge; b's list is the one callers keep hot.
  const std::vector<Edge>& list = adj_[ib];
  auto it = LowerBound(list, ia);
  if (it == list.end() || it->to != ia) return 0.0;
  return Weight(ia, ib, it->common);
}

bool Acg::HasNode(const TupleId& t) const { return ids_.count(t) > 0; }

std::vector<std::pair<TupleId, double>> Acg::Neighbors(
    const TupleId& t) const {
  std::vector<std::pair<TupleId, double>> out;
  const uint32_t id = Find(t);
  if (id == kNoNode) return out;
  out.reserve(adj_[id].size());
  for (const Edge& e : adj_[id]) {
    out.emplace_back(tuples_[e.to], Weight(id, e.to, e.common));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<TupleId> Acg::KHopNeighborhood(const std::vector<TupleId>& focal,
                                           size_t k) const {
  // Layered BFS: `reached` lists node ids in discovery order, and hop h's
  // layer is the slice appended while expanding hop h-1's.
  std::vector<bool> seen(tuples_.size());
  std::vector<uint32_t> reached = FocalIds(focal, &seen);
  size_t layer_begin = 0;
  for (size_t hop = 0; hop < k && layer_begin < reached.size(); ++hop) {
    const size_t layer_end = reached.size();
    for (size_t i = layer_begin; i < layer_end; ++i) {
      for (const Edge& e : adj_[reached[i]]) {
        if (seen[e.to]) continue;
        seen[e.to] = true;
        reached.push_back(e.to);
      }
    }
    layer_begin = layer_end;
  }
  std::vector<TupleId> out;
  out.reserve(reached.size());
  for (uint32_t id : reached) out.push_back(tuples_[id]);
  std::sort(out.begin(), out.end());
  return out;
}

int Acg::HopDistance(const std::vector<TupleId>& focal,
                     const TupleId& t) const {
  const uint32_t target = Find(t);
  if (target == kNoNode) return -1;
  for (const auto& f : focal) {
    if (f == t) return 0;
  }
  // Bidirectional layered BFS: side 0 grows from the focal set, side 1
  // from `t`, and each round expands the smaller frontier by one whole
  // layer. Until the sides meet, every focal-to-t path is longer than
  // depth[0] + depth[1]; so the first edge into the other side's reached
  // set closes a shortest path.
  std::vector<bool> reached[2] = {std::vector<bool>(tuples_.size()),
                                  std::vector<bool>(tuples_.size())};
  std::vector<uint32_t> layer[2] = {FocalIds(focal, &reached[0]), {target}};
  if (layer[0].empty()) return -1;
  reached[1][target] = true;
  int depth[2] = {0, 0};
  std::vector<uint32_t> grown;
  while (!layer[0].empty() && !layer[1].empty()) {
    const int side = layer[0].size() <= layer[1].size() ? 0 : 1;
    const std::vector<bool>& other = reached[1 - side];
    std::vector<bool>& mine = reached[side];
    grown.clear();
    for (uint32_t u : layer[side]) {
      for (const Edge& e : adj_[u]) {
        if (other[e.to]) return depth[0] + depth[1] + 1;
        if (mine[e.to]) continue;
        mine[e.to] = true;
        grown.push_back(e.to);
      }
    }
    layer[side].swap(grown);
    ++depth[side];
  }
  return -1;
}

double Acg::PathWeight(const std::vector<TupleId>& focal, const TupleId& t,
                       size_t max_hops) const {
  const uint32_t target = Find(t);
  if (target == kNoNode) return 0.0;
  // Layered relaxation from the focal set: best[v] = max product of edge
  // weights reaching v in <= layer hops. Weights are in [0,1], so longer
  // paths can only lose, but a heavier 2-hop path may beat a feeble
  // direct edge — which is exactly the semantic the paper debates.
  std::unordered_map<uint32_t, double> best;
  for (const auto& f : focal) {
    const uint32_t id = Find(f);
    if (id != kNoNode) best[id] = 1.0;
  }
  if (best.empty()) return 0.0;
  double answer = best.count(target) > 0 ? 1.0 : 0.0;
  std::unordered_map<uint32_t, double> frontier = best;
  for (size_t hop = 0; hop < max_hops && !frontier.empty(); ++hop) {
    std::unordered_map<uint32_t, double> next;
    // nebula-lint: order-insensitive — max-product relaxation is commutative
    for (const auto& [node, product] : frontier) {
      for (const Edge& e : adj_[node]) {
        const double w = product * Weight(node, e.to, e.common);
        if (w <= 0.0) continue;
        auto [bit, inserted] = best.emplace(e.to, w);
        if (!inserted && w <= bit->second) continue;
        bit->second = w;
        next[e.to] = w;
        if (e.to == target) answer = std::max(answer, w);
      }
    }
    frontier = std::move(next);
  }
  return answer;
}

void Acg::RecordProfilePoint(int hops) {
  size_t bucket;
  if (hops < 0 || static_cast<size_t>(hops) >= profile_.size() - 1) {
    bucket = profile_.size() - 1;
  } else {
    bucket = static_cast<size_t>(hops);
  }
  ++profile_[bucket];
  if constexpr (obs::kEnabled) Metrics().profile[bucket]->Increment();
}

size_t Acg::SelectK(double desired_recall, size_t fallback) const {
  uint64_t total = 0;
  for (uint64_t v : profile_) total += v;
  if (total == 0) return fallback;
  uint64_t cumulative = 0;
  for (size_t k = 0; k < profile_.size(); ++k) {
    cumulative += profile_[k];
    if (static_cast<double>(cumulative) / static_cast<double>(total) >=
        desired_recall) {
      return k;
    }
  }
  return profile_.size() - 1;
}

uint64_t Acg::Fingerprint() const {
  // FNV-1a over the sorted (node, count) and (edge, count) streams, so the
  // digest is independent of the order in which nodes got their ids.
  constexpr uint64_t kOffset = 1469598103934665603ULL;
  constexpr uint64_t kPrime = 1099511628211ULL;
  auto mix = [](uint64_t h, uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xFF;
      h *= kPrime;
    }
    return h;
  };

  std::vector<std::pair<TupleId, size_t>> nodes;
  nodes.reserve(tuples_.size());
  for (uint32_t id = 0; id < tuples_.size(); ++id) {
    nodes.emplace_back(tuples_[id], annotation_count_[id]);
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  struct EdgeRec {
    TupleId a, b;
    size_t common;
    bool operator<(const EdgeRec& o) const {
      if (!(a == o.a)) return a < o.a;
      if (!(b == o.b)) return b < o.b;
      return common < o.common;
    }
  };
  std::vector<EdgeRec> edges;
  edges.reserve(num_edges_);
  for (uint32_t id = 0; id < tuples_.size(); ++id) {
    for (const Edge& e : adj_[id]) {
      // Count each undirected edge once.
      if (tuples_[e.to] < tuples_[id]) continue;
      edges.push_back({tuples_[id], tuples_[e.to], e.common});
    }
  }
  std::sort(edges.begin(), edges.end());

  uint64_t h = kOffset;
  for (const auto& [t, count] : nodes) {
    h = mix(h, (static_cast<uint64_t>(t.table_id) << 48) ^ t.row);
    h = mix(h, count);
  }
  for (const auto& e : edges) {
    h = mix(h, (static_cast<uint64_t>(e.a.table_id) << 48) ^ e.a.row);
    h = mix(h, (static_cast<uint64_t>(e.b.table_id) << 48) ^ e.b.row);
    h = mix(h, e.common);
  }
  return h;
}

}  // namespace nebula
