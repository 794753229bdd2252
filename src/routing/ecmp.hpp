#pragma once
// Equal-cost multi-path routing [RFC 2992], the paper's Clos-mode scheme,
// and the shortest-path DAG that forwarding-table compilers build from it.
//
// EcmpRouting enumerates all minimum-hop paths of a switch pair (capped at
// `max_paths`) on first use and caches them; each flow picks one by
// deterministic hash, emulating per-flow ECMP hashing in commodity
// switches.
//
// Forwarding tables need no per-pair path objects: every shortest path
// toward a destination runs along one DAG (arcs whose hop distance to the
// destination drops by one), so compile_by_destination() builds that DAG
// once per destination (one BFS) with path counts on its nodes, and the
// compilers read their entries off it. ShortestPathDag::matches_enumeration
// states when the DAG reproduces the per-pair enumeration exactly; the
// other destinations fall back to EcmpRouting::paths.

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "routing/paths.hpp"

namespace flattree::routing {

/// ECMP: every minimum-hop path of a pair is a candidate, up to
/// `max_paths` of them (graph::all_shortest_paths order: ascending node
/// sequence), and select() hashes a flow onto one.
class EcmpRouting : public Routing {
 public:
  /// `salt` perturbs the flow hash (distinct switches hash differently).
  explicit EcmpRouting(const graph::Graph& g, std::size_t max_paths = 64,
                       std::uint64_t salt = 0);

  const Path& select(NodeId src, NodeId dst, std::uint64_t flow_id) override;
  const std::vector<Path>& paths(NodeId src, NodeId dst) override;

  /// The graph the paths run over.
  const graph::Graph& graph() const { return graph_; }
  /// Per-pair cap on the enumerated path set.
  std::size_t max_paths() const { return max_paths_; }

 private:
  const graph::Graph& graph_;
  std::size_t max_paths_;
  std::uint64_t salt_;
  PathDb db_;
};

/// The minimum-hop DAG toward one destination, with the path counts the
/// forwarding-table compilers need. build() runs one BFS from the
/// destination and two linear passes; its buffers are reused across
/// destinations. Counts saturate at 2^64 - 1.
class ShortestPathDag {
 public:
  explicit ShortestPathDag(const graph::Graph& g);

  /// Rebuilds the DAG toward `dst` for the given sources. Each entry of
  /// `sources` counts once, so a duplicated pair weighs twice; entries
  /// equal to `dst` are ignored. Sources that cannot reach `dst` are left
  /// out and reported by unreachable_source(). Bills one graph.bfs.run.
  void build(NodeId dst, const std::vector<NodeId>& sources);

  /// The destination of the last build().
  NodeId destination() const { return dst_; }
  /// The first source of the last build() that cannot reach the
  /// destination, or graph::kInvalidNode when all can.
  NodeId unreachable_source() const { return unreachable_; }
  /// Switches other than the destination that lie on a shortest path of
  /// some reachable source, ascending: the switches that get a table
  /// entry toward the destination.
  const std::vector<NodeId>& entries() const { return entries_; }
  /// The DAG arcs leaving `u` (one hop closer to the destination), in
  /// adjacency order. Valid for any switch that reaches the destination.
  std::span<const graph::Arc> next_arcs(NodeId u) const {
    return {arcs_.data() + arc_begin_[u], arcs_.data() + arc_end_[u]};
  }
  /// Shortest paths from `u` to the destination, as link sequences.
  std::uint64_t paths_below(NodeId u) const { return below_[u]; }
  /// Shortest paths from the sources to `u` that extend to shortest paths
  /// to the destination, summed over the sources with multiplicity.
  std::uint64_t paths_above(NodeId u) const { return above_[u]; }

  /// True when per-pair enumeration with graph::all_shortest_paths at this
  /// cap returns every DAG path of every source, and the sorted path sets
  /// leave no order to chance: no source has more than `max_paths`
  /// shortest paths (else the DFS order picks which are kept), and no
  /// entry switch has two DAG links to one neighbour (else equal node
  /// sequences are left in std::sort tie order).
  bool matches_enumeration(std::size_t max_paths) const {
    return !parallel_links_ && max_source_paths_ <= max_paths;
  }

 private:
  const graph::Graph& g_;
  NodeId dst_ = graph::kInvalidNode;
  NodeId unreachable_ = graph::kInvalidNode;
  std::uint64_t max_source_paths_ = 0;
  bool parallel_links_ = false;
  std::vector<std::uint32_t> dist_;
  std::vector<std::uint64_t> below_;
  std::vector<std::uint64_t> above_;
  std::vector<std::uint32_t> arc_begin_;
  std::vector<std::uint32_t> arc_end_;
  std::vector<std::uint64_t> seen_;   ///< parallel-link check stamps
  std::uint64_t stamp_ = 0;
  std::vector<NodeId> order_;         ///< BFS order of the last build
  std::vector<graph::Arc> arcs_;      ///< DAG arcs, grouped per node
  std::vector<NodeId> entries_;
};

/// Sources of `pairs` grouped by destination: destinations ascending, each
/// source list in pair order with duplicates kept; pairs with src == dst
/// are dropped.
std::map<NodeId, std::vector<NodeId>> sources_by_destination(
    const std::vector<std::pair<NodeId, NodeId>>& pairs);

/// Drives a forwarding-table compile one destination at a time, in
/// ascending destination order. When `routing` is an EcmpRouting and the
/// destination's ShortestPathDag matches_enumeration() at its cap,
/// `from_dag` builds the entries from the DAG; otherwise `from_paths`
/// builds them from routing.paths() of each source, in pair order. Throws
/// std::runtime_error on a disconnected pair (from routing.paths() on the
/// enumeration route). Counters: routing.fib.dag_destinations,
/// routing.fib.enumerated_destinations.
void compile_by_destination(
    Routing& routing, const std::vector<std::pair<NodeId, NodeId>>& pairs,
    const std::function<void(const ShortestPathDag&)>& from_dag,
    const std::function<void(NodeId dst, const std::vector<NodeId>& sources)>&
        from_paths);

}  // namespace flattree::routing
