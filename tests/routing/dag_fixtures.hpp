#pragma once
// Shared fixtures for the differential tests of the per-destination
// shortest-path-DAG compilers (tests/routing/fib_dag_test.cpp,
// tests/te/wcmp_dag_test.cpp): the topologies they sweep, a routing
// wrapper that forces the per-pair enumeration route, and a counter probe.

#include <string>
#include <utility>
#include <vector>

#include "core/flat_tree.hpp"
#include "graph/bfs.hpp"
#include "obs/metrics.hpp"
#include "routing/ecmp.hpp"
#include "routing/fib.hpp"
#include "topo/fat_tree.hpp"
#include "topo/random_graph.hpp"
#include "util/rng.hpp"

namespace flattree::routing::testing {

/// ECMP path sets behind a routing type that is not an EcmpRouting, so
/// compile_fib / te::compile_wcmp_paths take the per-pair enumeration
/// route: the reference the DAG route must reproduce.
class EnumeratedEcmp : public Routing {
 public:
  explicit EnumeratedEcmp(const graph::Graph& g, std::size_t max_paths = 64)
      : inner_(g, max_paths) {}
  const Path& select(NodeId src, NodeId dst, std::uint64_t flow_id) override {
    return inner_.select(src, dst, flow_id);
  }
  const std::vector<Path>& paths(NodeId src, NodeId dst) override {
    return inner_.paths(src, dst);
  }

 private:
  EcmpRouting inner_;
};

/// A topology plus the graph routes run over: the topology's own graph,
/// or a copy with links tombstoned (a degraded fabric).
struct DagCase {
  std::string name;
  topo::Topology topo;
  graph::Graph graph;
};

inline DagCase make_case(std::string name, topo::Topology topo) {
  graph::Graph g = topo.graph();
  return {std::move(name), std::move(topo), std::move(g)};
}

inline topo::Topology flat_tree(std::uint32_t k, core::Mode mode) {
  core::FlatTreeConfig cfg;
  cfg.k = k;
  return core::FlatTreeNetwork(cfg).build(mode);
}

/// Fat-tree k=4/6/8, flat-tree Clos/local/global, Jellyfish, and a
/// degraded fat-tree whose CSR was patched in place (removals plus one
/// restore), so adjacency order no longer follows link ids.
inline std::vector<DagCase> dag_cases() {
  std::vector<DagCase> cases;
  for (std::uint32_t k : {4u, 6u, 8u})
    cases.push_back(make_case("fat-tree k=" + std::to_string(k),
                              topo::build_fat_tree(k).topo));
  cases.push_back(make_case("flat-tree clos", flat_tree(8, core::Mode::Clos)));
  cases.push_back(make_case("flat-tree local", flat_tree(8, core::Mode::LocalRandom)));
  cases.push_back(make_case("flat-tree global", flat_tree(8, core::Mode::GlobalRandom)));
  util::Rng rng(7);
  cases.push_back(make_case("jellyfish", topo::build_jellyfish_like_fat_tree(6, rng)));

  DagCase degraded = make_case("degraded fat-tree k=6", topo::build_fat_tree(6).topo);
  degraded.graph.ensure_csr();
  for (graph::LinkId l : {1u, 5u, 9u, 17u, 25u, 33u, 41u}) {
    degraded.graph.remove_link(l);
    if (!graph::is_connected(degraded.graph)) degraded.graph.restore_link(l);
  }
  degraded.graph.restore_link(5);
  cases.push_back(std::move(degraded));
  return cases;
}

/// A square 0-1-3-2-0 with two parallel links 1-2 across it and a server
/// on every switch. Toward 0 and 3 the parallel links join switches at
/// equal distance, so no DAG arc uses them; toward 1 (2) switch 2 (1)
/// reaches the destination over both.
inline topo::Topology parallel_link_fixture() {
  topo::Topology t;
  for (int i = 0; i < 4; ++i) t.add_switch(topo::SwitchKind::Edge, 0, i, 8);
  t.add_link(0, 1, topo::LinkOrigin::Random);
  t.add_link(0, 2, topo::LinkOrigin::Random);
  t.add_link(1, 3, topo::LinkOrigin::Random);
  t.add_link(2, 3, topo::LinkOrigin::Random);
  t.add_link(1, 2, topo::LinkOrigin::Random);
  t.add_link(1, 2, topo::LinkOrigin::Random);
  for (NodeId v = 0; v < 4; ++v) t.add_server(v);
  return t;
}

/// Switches 0-1 and 2-3 in two components, servers on 0, 1 and 2.
inline topo::Topology two_components() {
  topo::Topology t;
  for (int i = 0; i < 4; ++i) t.add_switch(topo::SwitchKind::Edge, 0, i, 4);
  t.add_link(0, 1, topo::LinkOrigin::Random);
  t.add_link(2, 3, topo::LinkOrigin::Random);
  t.add_server(0);
  t.add_server(1);
  t.add_server(2);
  return t;
}

/// all_server_pairs() with some pairs repeated, so multiplicities matter.
inline std::vector<std::pair<NodeId, NodeId>> pairs_with_duplicates(
    const topo::Topology& t) {
  auto pairs = all_server_pairs(t);
  const std::size_t n = pairs.size();
  for (std::size_t i = 0; i < n; i += 7) pairs.push_back(pairs[i]);
  return pairs;
}

/// Value of obs counter `name` in a fresh snapshot (0 when unset).
inline std::uint64_t counter(const std::string& name) {
  for (const auto& [key, value] : obs::snapshot_metrics().counters)
    if (key == name) return value;
  return 0;
}

/// Turns obs on with zeroed metrics for one test, restoring the previous
/// state afterwards.
class ObsScope {
 public:
  ObsScope() : before_(obs::enabled()) {
    obs::set_enabled(true);
    obs::reset_metrics();
  }
  ~ObsScope() {
    obs::reset_metrics();
    obs::set_enabled(before_);
  }

 private:
  bool before_;
};

}  // namespace flattree::routing::testing
