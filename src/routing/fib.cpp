#include "routing/fib.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "routing/ecmp.hpp"
#include "util/rng.hpp"

namespace flattree::routing {

const std::vector<graph::LinkId> Fib::kEmpty{};

Fib::Fib(std::size_t switches) : tables_(switches) {}

void Fib::add_route(NodeId at, NodeId dst, graph::LinkId link) {
  auto& hops = tables_.at(at)[dst];
  if (std::find(hops.begin(), hops.end(), link) == hops.end()) hops.push_back(link);
}

const std::vector<graph::LinkId>& Fib::next_hops(NodeId at, NodeId dst) const {
  const auto& table = tables_.at(at);
  auto it = table.find(dst);
  return it == table.end() ? kEmpty : it->second;
}

graph::LinkId Fib::select(NodeId at, NodeId dst, std::uint64_t flow_id) const {
  const auto& hops = next_hops(at, dst);
  if (hops.empty()) throw std::runtime_error("Fib::select: no route installed");
  std::uint64_t h =
      util::mix64(flow_id ^ ((static_cast<std::uint64_t>(at) << 32) | dst));
  return hops[h % hops.size()];
}

std::size_t Fib::rule_count() const {
  std::size_t total = 0;
  for (const auto& table : tables_)
    for (const auto& [dst, hops] : table) total += hops.size();
  return total;
}

std::size_t Fib::entry_count() const {
  std::size_t total = 0;
  for (const auto& table : tables_) total += table.size();
  return total;
}

std::size_t Fib::max_rules_per_switch() const {
  std::size_t best = 0;
  for (const auto& table : tables_) {
    std::size_t rules = 0;
    for (const auto& [dst, hops] : table) rules += hops.size();
    best = std::max(best, rules);
  }
  return best;
}

Fib compile_fib(const topo::Topology& topo, Routing& routing,
                const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  Fib fib(topo.switch_count());
  std::vector<graph::Arc> hops;
  auto from_dag = [&](const ShortestPathDag& dag) {
    for (NodeId u : dag.entries()) {
      auto arcs = dag.next_arcs(u);
      hops.assign(arcs.begin(), arcs.end());
      std::sort(hops.begin(), hops.end(),
                [](const graph::Arc& a, const graph::Arc& b) { return a.to < b.to; });
      for (const graph::Arc& arc : hops) fib.add_route(u, dag.destination(), arc.link);
    }
  };
  auto from_paths = [&](NodeId dst, const std::vector<NodeId>& sources) {
    for (NodeId src : sources)
      for (const graph::Path& path : routing.paths(src, dst))
        for (std::size_t i = 0; i < path.links.size(); ++i)
          fib.add_route(path.nodes[i], dst, path.links[i]);
  };
  compile_by_destination(routing, pairs, from_dag, from_paths);
  return fib;
}

std::vector<std::pair<NodeId, NodeId>> all_server_pairs(const topo::Topology& topo) {
  std::vector<NodeId> hosts;
  auto weights = topo.servers_per_switch();
  for (NodeId v = 0; v < topo.switch_count(); ++v)
    if (weights[v] > 0) hosts.push_back(v);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(hosts.size() * (hosts.size() - 1));
  for (NodeId a : hosts)
    for (NodeId b : hosts)
      if (a != b) pairs.emplace_back(a, b);
  return pairs;
}

namespace {

/// Per-destination walk check with memoization: a node is `good` when
/// every installed next hop leads to a good node; `depth` is the longest
/// remaining walk. On-stack revisits are loops.
class DestinationChecker {
 public:
  DestinationChecker(const topo::Topology& topo, const Fib& fib, NodeId dst,
                     std::uint32_t hop_limit)
      : topo_(topo), fib_(fib), dst_(dst), hop_limit_(hop_limit),
        state_(topo.switch_count(), State::Unknown),
        depth_(topo.switch_count(), 0) {}

  /// Returns empty on success, else a violation description.
  std::string check(NodeId src, std::uint32_t& max_hops) {
    std::string err = visit(src);
    if (err.empty()) max_hops = std::max(max_hops, depth_[src]);
    return err;
  }

 private:
  enum class State : std::uint8_t { Unknown, OnStack, Good };

  std::string visit(NodeId u) {
    if (u == dst_) return {};
    if (state_[u] == State::Good) return {};
    if (state_[u] == State::OnStack) {
      std::ostringstream os;
      os << "forwarding loop through switch " << u << " toward " << dst_;
      return os.str();
    }
    const auto& hops = fib_.next_hops(u, dst_);
    if (hops.empty()) {
      std::ostringstream os;
      os << "blackhole: switch " << u << " has no route toward " << dst_;
      return os.str();
    }
    state_[u] = State::OnStack;
    std::uint32_t worst = 0;
    for (graph::LinkId link : hops) {
      NodeId v = topo_.graph().link(link).other(u);
      std::string err = visit(v);
      if (!err.empty()) return err;
      worst = std::max(worst, (v == dst_ ? 0u : depth_[v]) + 1u);
    }
    if (worst > hop_limit_) {
      std::ostringstream os;
      os << "walk from switch " << u << " toward " << dst_ << " exceeds " << hop_limit_
         << " hops";
      return os.str();
    }
    depth_[u] = worst;
    state_[u] = State::Good;
    return {};
  }

  const topo::Topology& topo_;
  const Fib& fib_;
  NodeId dst_;
  std::uint32_t hop_limit_;
  std::vector<State> state_;
  std::vector<std::uint32_t> depth_;
};

}  // namespace

FibVerification verify_fib(const topo::Topology& topo, const Fib& fib,
                           const std::vector<std::pair<NodeId, NodeId>>& pairs,
                           std::uint32_t hop_limit) {
  FibVerification result;
  // Group sources by destination so memoization is shared; ascending
  // destinations make the reported violation independent of hashing.
  for (const auto& [dst, sources] : sources_by_destination(pairs)) {
    DestinationChecker checker(topo, fib, dst, hop_limit);
    for (NodeId src : sources) {
      std::string err = checker.check(src, result.max_walk_hops);
      ++result.pairs_checked;
      if (!err.empty()) {
        result.error = err;
        result.ok = false;
        return result;
      }
    }
  }
  result.ok = true;
  return result;
}

}  // namespace flattree::routing
