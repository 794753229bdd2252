#pragma once
// Forwarding-table (FIB) compilation — the paper's SDN story made concrete
// (Section 2.6: flat-tree topologies are known in advance, so shortest
// paths can be precomputed and "program[med] ... via SDN" instead of
// learned).
//
// A Fib maps, at every switch, a destination switch to the set of next-hop
// links a packet may take. compile_fib() builds the table from a routing
// scheme's path sets (for ECMP, from one shortest-path DAG per destination,
// with the same result); verify_fib() model-checks it: every (src, dst) pair
// reaches the destination over every greedy walk, without loops, within a
// hop bound — the property an operator would want before installing rules.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "routing/paths.hpp"
#include "topo/topology.hpp"

namespace flattree::routing {

/// Per-switch forwarding table: destination -> candidate next-hop links.
class Fib {
 public:
  explicit Fib(std::size_t switches);

  /// Adds a candidate next hop at `at` toward `dst` via `link`
  /// (idempotent).
  void add_route(NodeId at, NodeId dst, graph::LinkId link);

  /// Candidate links at `at` toward `dst` (empty if none installed).
  const std::vector<graph::LinkId>& next_hops(NodeId at, NodeId dst) const;

  /// Deterministic per-flow choice among the candidates; throws
  /// std::runtime_error when no route is installed.
  graph::LinkId select(NodeId at, NodeId dst, std::uint64_t flow_id) const;

  /// Calls fn(dst, hops) for every entry at `at`, in unspecified order.
  template <class Fn>
  void for_each_entry(NodeId at, Fn&& fn) const {
    for (const auto& [dst, hops] : tables_.at(at)) fn(dst, hops);
  }

  std::size_t switch_count() const { return tables_.size(); }
  /// Total number of (switch, destination, link) rules.
  std::size_t rule_count() const;
  /// Number of (switch, destination) entries.
  std::size_t entry_count() const;
  /// Largest per-switch rule count (TCAM pressure proxy).
  std::size_t max_rules_per_switch() const;

 private:
  // destination -> next-hop links, per switch.
  std::vector<std::unordered_map<NodeId, std::vector<graph::LinkId>>> tables_;
  static const std::vector<graph::LinkId> kEmpty;
};

/// Compiles a FIB for every ordered pair in `pairs` (use
/// all_server_pairs() for the usual case): every link of every candidate
/// path of `routing` toward a destination is installed hop by hop, each
/// entry's hops in order of first appearance. Note that hop-by-hop
/// installation of *non-shortest* path sets (KSP) can mix hops of
/// different paths into loops — verify_fib() detects this; production KSP
/// routing pins paths end to end instead (tunnels), which per-flow
/// select() emulates.
///
/// With an EcmpRouting, each destination is compiled from one
/// ShortestPathDag (routing/ecmp.hpp) instead of enumerating every pair's
/// paths, and the table is the same entry by entry: a switch u gets an
/// entry iff some source's shortest path crosses it; the first such source
/// installs every DAG next hop of u, and since its paths come sorted by
/// node sequence they arrive in ascending neighbour order. Destinations
/// where that argument fails — a source with more than max_paths() paths,
/// or parallel DAG links at an entry switch — fall back to enumeration
/// (see compile_by_destination for the counters). Throws
/// std::runtime_error on a disconnected pair either way.
Fib compile_fib(const topo::Topology& topo, Routing& routing,
                const std::vector<std::pair<NodeId, NodeId>>& pairs);

/// All ordered pairs of switches that host at least one server.
std::vector<std::pair<NodeId, NodeId>> all_server_pairs(const topo::Topology& topo);

/// Outcome of verify_fib(): whether every checked pair delivers, and the
/// first violation otherwise.
struct FibVerification {
  bool ok = false;
  std::size_t pairs_checked = 0;
  std::uint32_t max_walk_hops = 0;  ///< longest greedy walk seen
  std::string error;                ///< first violation description
};

/// Model-checks the FIB for the given pairs: from src, every choice of
/// installed next hop must make progress to dst within `hop_limit` hops
/// and never revisit a switch on the walk (exhaustive DFS over choices).
/// Destinations are checked in ascending order, sources in pair order, so
/// the reported violation is a pure function of the inputs.
FibVerification verify_fib(const topo::Topology& topo, const Fib& fib,
                           const std::vector<std::pair<NodeId, NodeId>>& pairs,
                           std::uint32_t hop_limit = 32);

}  // namespace flattree::routing
