#include "graph/ksp.hpp"

#include <algorithm>
#include <queue>
#include <set>
#include <stdexcept>
#include <tuple>

#include "graph/bfs.hpp"
#include "graph/dijkstra.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flattree::graph {

namespace {

obs::Counter c_ksp_queries("graph.ksp.queries");
obs::Counter c_ksp_paths("graph.ksp.paths_returned");
obs::Counter c_ksp_spurs("graph.ksp.spur_dijkstras");
obs::Counter c_ksp_candidates("graph.ksp.candidates_generated");
obs::Counter c_ksp_pruned("graph.ksp.candidates_pruned");

Path make_path(const Graph& g, std::vector<NodeId> nodes, std::vector<LinkId> links,
               const std::vector<double>& length) {
  Path p;
  p.nodes = std::move(nodes);
  p.links = std::move(links);
  for (LinkId l : p.links) p.length += length[l];
  (void)g;
  return p;
}

/// Dijkstra on a graph with some links/nodes masked out.
DijkstraResult masked_dijkstra(const Graph& g, NodeId source,
                               const std::vector<double>& length,
                               const std::vector<char>& node_banned,
                               const std::vector<char>& link_banned) {
  DijkstraResult r;
  r.dist.assign(g.node_count(), kInfDistance);
  r.parent.assign(g.node_count(), kInvalidNode);
  r.parent_link.assign(g.node_count(), kInvalidLink);
  if (node_banned[source]) return r;

  struct Entry {
    double d;
    NodeId v;
    bool operator>(const Entry& o) const { return d > o.d; }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  r.dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d > r.dist[u]) continue;
    for (const Arc& arc : g.neighbors(u)) {
      if (node_banned[arc.to] || link_banned[arc.link]) continue;
      double nd = d + length[arc.link];
      if (nd < r.dist[arc.to]) {
        r.dist[arc.to] = nd;
        r.parent[arc.to] = u;
        r.parent_link[arc.to] = arc.link;
        heap.push({nd, arc.to});
      }
    }
  }
  return r;
}

bool path_less(const Path& a, const Path& b) {
  if (a.length != b.length) return a.length < b.length;
  return a.nodes < b.nodes;
}

}  // namespace

std::vector<Path> yen_ksp(const Graph& g, NodeId source, NodeId target, std::size_t k,
                          const std::vector<double>& length) {
  if (length.size() != g.link_count())
    throw std::invalid_argument("yen_ksp: length vector size mismatch");
  if (source == target) throw std::invalid_argument("yen_ksp: source == target");
  OBS_SPAN("graph.ksp.query");
  c_ksp_queries.inc();
  std::vector<Path> result;
  if (k == 0) return result;

  auto first = dijkstra_to(g, source, target, length);
  if (first.dist[target] == kInfDistance) return result;
  result.push_back(
      make_path(g, extract_path(first, target), extract_link_path(first, target), length));

  // Candidate pool ordered by (length, nodes); a std::set keeps them unique.
  auto cmp = [](const Path& a, const Path& b) { return path_less(a, b); };
  std::set<Path, decltype(cmp)> candidates(cmp);

  std::vector<char> node_banned(g.node_count(), 0);
  std::vector<char> link_banned(g.link_count(), 0);

  while (result.size() < k) {
    const Path& prev = result.back();
    // Each prefix of the previous path spawns a deviation candidate.
    for (std::size_t i = 0; i + 1 < prev.nodes.size(); ++i) {
      NodeId spur = prev.nodes[i];
      std::fill(node_banned.begin(), node_banned.end(), 0);
      std::fill(link_banned.begin(), link_banned.end(), 0);

      // Ban links used by any accepted path sharing this root.
      for (const Path& p : result) {
        if (p.nodes.size() > i &&
            std::equal(p.nodes.begin(), p.nodes.begin() + static_cast<long>(i) + 1,
                       prev.nodes.begin())) {
          if (p.links.size() > i) link_banned[p.links[i]] = 1;
        }
      }
      // Ban root nodes (except the spur) to keep paths loopless.
      for (std::size_t j = 0; j < i; ++j) node_banned[prev.nodes[j]] = 1;

      c_ksp_spurs.inc();
      auto spur_result = masked_dijkstra(g, spur, length, node_banned, link_banned);
      if (spur_result.dist[target] == kInfDistance) continue;

      Path candidate;
      candidate.nodes.assign(prev.nodes.begin(), prev.nodes.begin() + static_cast<long>(i) + 1);
      candidate.links.assign(prev.links.begin(), prev.links.begin() + static_cast<long>(i));
      auto spur_nodes = extract_path(spur_result, target);
      auto spur_links = extract_link_path(spur_result, target);
      candidate.nodes.insert(candidate.nodes.end(), spur_nodes.begin() + 1, spur_nodes.end());
      candidate.links.insert(candidate.links.end(), spur_links.begin(), spur_links.end());
      for (LinkId l : candidate.links) candidate.length += length[l];
      c_ksp_candidates.inc();
      if (!candidates.insert(std::move(candidate)).second) c_ksp_pruned.inc();
    }
    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  // Candidates still pooled when k paths are found were generated for
  // nothing — count them as pruned too.
  c_ksp_pruned.add(candidates.size());
  c_ksp_paths.add(result.size());
  return result;
}

std::vector<Path> yen_ksp_hops(const Graph& g, NodeId source, NodeId target, std::size_t k) {
  std::vector<double> unit(g.link_count(), 1.0);
  return yen_ksp(g, source, target, k, unit);
}

std::vector<Path> all_shortest_paths(const Graph& g, NodeId source, NodeId target,
                                     std::size_t max_paths) {
  if (source == target) throw std::invalid_argument("all_shortest_paths: source == target");
  auto dist = bfs_distances(g, source);
  if (dist[target] == kUnreachable) return {};
  // Depth-first enumeration of the shortest-path DAG (arcs where
  // dist decreases by one, walking backwards from target).
  std::vector<Path> out;
  std::vector<NodeId> node_stack{target};
  std::vector<LinkId> link_stack;

  struct Frame {
    NodeId node;
    std::size_t next_arc;
  };
  std::vector<Frame> frames{{target, 0}};
  while (!frames.empty()) {
    Frame& f = frames.back();
    if (f.node == source) {
      Path p;
      p.nodes.assign(node_stack.rbegin(), node_stack.rend());
      p.links.assign(link_stack.rbegin(), link_stack.rend());
      p.length = static_cast<double>(p.links.size());
      out.push_back(std::move(p));
      if (out.size() >= max_paths) break;
      frames.pop_back();
      node_stack.pop_back();
      if (!link_stack.empty()) link_stack.pop_back();
      continue;
    }
    auto arcs = g.neighbors(f.node);
    bool descended = false;
    while (f.next_arc < arcs.size()) {
      const Arc& arc = arcs[f.next_arc++];
      if (dist[arc.to] + 1 == dist[f.node]) {
        node_stack.push_back(arc.to);
        link_stack.push_back(arc.link);
        frames.push_back({arc.to, 0});
        descended = true;
        break;
      }
    }
    if (!descended) {
      frames.pop_back();
      node_stack.pop_back();
      if (!link_stack.empty()) link_stack.pop_back();
    }
  }
  // Ties on the node sequence (parallel links) break by link ids, so the
  // order is total and independent of the CSR's adjacency order.
  std::sort(out.begin(), out.end(), [](const Path& a, const Path& b) {
    return std::tie(a.nodes, a.links) < std::tie(b.nodes, b.links);
  });
  return out;
}

}  // namespace flattree::graph
