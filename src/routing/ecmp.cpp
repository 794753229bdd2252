#include "routing/ecmp.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "graph/bfs.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace flattree::routing {

namespace {

// The DAG's BFS bills the same graph.bfs.* metrics as graph::bfs_distances
// (the registry dedupes by name), so manifests count it like any BFS.
obs::Counter c_bfs_runs("graph.bfs.runs");
obs::Counter c_bfs_visited("graph.bfs.nodes_visited");
obs::Histogram h_bfs_visited("graph.bfs.visited_per_source",
                             obs::Histogram::exponential_bounds(16.0, 4.0, 10));

obs::Counter c_dag_destinations("routing.fib.dag_destinations");
obs::Counter c_enumerated_destinations("routing.fib.enumerated_destinations");

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  return a > kMax - b ? kMax : a + b;
}

}  // namespace

EcmpRouting::EcmpRouting(const graph::Graph& g, std::size_t max_paths, std::uint64_t salt)
    : graph_(g), max_paths_(max_paths), salt_(salt) {}

const std::vector<Path>& EcmpRouting::paths(NodeId src, NodeId dst) {
  if (const auto* cached = db_.find(src, dst)) return *cached;
  auto computed = graph::all_shortest_paths(graph_, src, dst, max_paths_);
  if (computed.empty()) throw std::runtime_error("EcmpRouting: pair disconnected");
  db_.set(src, dst, std::move(computed));
  return *db_.find(src, dst);
}

const Path& EcmpRouting::select(NodeId src, NodeId dst, std::uint64_t flow_id) {
  const auto& set = paths(src, dst);
  std::uint64_t h = util::mix64(flow_id ^ salt_ ^
                                ((static_cast<std::uint64_t>(src) << 32) | dst));
  return set[h % set.size()];
}

ShortestPathDag::ShortestPathDag(const graph::Graph& g)
    : g_(g),
      dist_(g.node_count(), graph::kUnreachable),
      below_(g.node_count(), 0),
      above_(g.node_count(), 0),
      arc_begin_(g.node_count(), 0),
      arc_end_(g.node_count(), 0),
      seen_(g.node_count(), 0) {}

void ShortestPathDag::build(NodeId dst, const std::vector<NodeId>& sources) {
  // Reset only what the last build touched.
  for (NodeId v : order_) {
    dist_[v] = graph::kUnreachable;
    above_[v] = 0;
  }
  order_.clear();
  arcs_.clear();
  entries_.clear();
  dst_ = dst;
  unreachable_ = graph::kInvalidNode;
  max_source_paths_ = 0;
  parallel_links_ = false;

  dist_[dst] = 0;
  order_.push_back(dst);
  for (std::size_t head = 0; head < order_.size(); ++head) {
    NodeId u = order_[head];
    for (const graph::Arc& arc : g_.neighbors(u)) {
      if (dist_[arc.to] == graph::kUnreachable) {
        dist_[arc.to] = dist_[u] + 1;
        order_.push_back(arc.to);
      }
    }
  }
  if (obs::enabled()) {
    c_bfs_runs.inc();
    c_bfs_visited.add(order_.size());
    h_bfs_visited.observe(static_cast<double>(order_.size()));
  }

  // Nearest first: every DAG arc of a node points at a node already
  // counted, so below[v] is the sum over v's DAG arcs.
  for (NodeId v : order_) {
    arc_begin_[v] = static_cast<std::uint32_t>(arcs_.size());
    std::uint64_t below = v == dst ? 1 : 0;
    for (const graph::Arc& arc : g_.neighbors(v)) {
      if (dist_[arc.to] + 1 != dist_[v]) continue;
      arcs_.push_back(arc);
      below = saturating_add(below, below_[arc.to]);
    }
    arc_end_[v] = static_cast<std::uint32_t>(arcs_.size());
    below_[v] = below;
  }

  for (NodeId src : sources) {
    if (src == dst) continue;
    if (dist_[src] == graph::kUnreachable) {
      if (unreachable_ == graph::kInvalidNode) unreachable_ = src;
      continue;
    }
    above_[src] = saturating_add(above_[src], 1);
    max_source_paths_ = std::max(max_source_paths_, below_[src]);
  }

  // Farthest first: above[u] is final once every node one hop farther has
  // pushed its count down, so it can be pushed on to u's DAG successors.
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    NodeId u = *it;
    if (u == dst || above_[u] == 0) continue;
    entries_.push_back(u);
    ++stamp_;
    for (const graph::Arc& arc : next_arcs(u)) {
      if (seen_[arc.to] == stamp_) parallel_links_ = true;
      seen_[arc.to] = stamp_;
      above_[arc.to] = saturating_add(above_[arc.to], above_[u]);
    }
  }
  std::sort(entries_.begin(), entries_.end());
}

std::map<NodeId, std::vector<NodeId>> sources_by_destination(
    const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  std::map<NodeId, std::vector<NodeId>> by_dst;
  for (auto [src, dst] : pairs)
    if (src != dst) by_dst[dst].push_back(src);
  return by_dst;
}

void compile_by_destination(
    Routing& routing, const std::vector<std::pair<NodeId, NodeId>>& pairs,
    const std::function<void(const ShortestPathDag&)>& from_dag,
    const std::function<void(NodeId dst, const std::vector<NodeId>& sources)>&
        from_paths) {
  auto* ecmp = dynamic_cast<EcmpRouting*>(&routing);
  std::optional<ShortestPathDag> dag;
  if (ecmp != nullptr) dag.emplace(ecmp->graph());
  for (const auto& [dst, sources] : sources_by_destination(pairs)) {
    if (dag) {
      dag->build(dst, sources);
      if (dag->unreachable_source() != graph::kInvalidNode)
        throw std::runtime_error("EcmpRouting: pair disconnected");
      if (dag->matches_enumeration(ecmp->max_paths())) {
        c_dag_destinations.inc();
        from_dag(*dag);
        continue;
      }
    }
    c_enumerated_destinations.inc();
    from_paths(dst, sources);
  }
}

}  // namespace flattree::routing
