#pragma once
// Shared fixtures for the differential tests of the per-destination
// shortest-path-DAG compilers (tests/routing/fib_dag_test.cpp,
// tests/te/wcmp_dag_test.cpp): the topologies they sweep, a routing
// wrapper that forces the per-pair enumeration route, and a counter probe.

#include <string>
#include <utility>
#include <vector>

#include "core/flat_tree.hpp"
#include "fault/degrade.hpp"
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

/// A named topology; routes run over its own graph.
struct DagCase {
  std::string name;
  topo::Topology topo;
};

inline topo::Topology flat_tree(std::uint32_t k, core::Mode mode) {
  core::FlatTreeConfig cfg;
  cfg.k = k;
  return core::FlatTreeNetwork(cfg).build(mode);
}

/// Fat-tree k=6 with a few links cut by LinkDown faults (each cut kept only
/// while the fabric stays connected), rebuilt by fault::degrade.
inline topo::Topology degraded_fat_tree() {
  topo::Topology ft = topo::build_fat_tree(6).topo;
  fault::FaultState state(ft.switch_count(), 0);
  double t = 1.0;
  for (graph::LinkId l : {1u, 9u, 17u, 25u, 33u, 41u}) {
    fault::FaultEvent e;
    e.time = t++;
    e.kind = fault::FaultKind::LinkDown;
    e.a = ft.graph().link(l).a;
    e.b = ft.graph().link(l).b;
    state.apply(e);
    if (!graph::is_connected(fault::degrade(ft, state).topo.graph())) {
      e.time = t++;
      e.kind = fault::FaultKind::LinkUp;
      state.apply(e);
    }
  }
  return fault::degrade(ft, state).topo;
}

/// Fat-tree k=4/6/8, flat-tree Clos/local/global, Jellyfish, and a
/// degraded fat-tree.
inline std::vector<DagCase> dag_cases() {
  std::vector<DagCase> cases;
  for (std::uint32_t k : {4u, 6u, 8u})
    cases.push_back({"fat-tree k=" + std::to_string(k), topo::build_fat_tree(k).topo});
  cases.push_back({"flat-tree clos", flat_tree(8, core::Mode::Clos)});
  cases.push_back({"flat-tree local", flat_tree(8, core::Mode::LocalRandom)});
  cases.push_back({"flat-tree global", flat_tree(8, core::Mode::GlobalRandom)});
  util::Rng rng(7);
  cases.push_back({"jellyfish", topo::build_jellyfish_like_fat_tree(6, rng)});
  cases.push_back({"degraded fat-tree k=6", degraded_fat_tree()});
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
