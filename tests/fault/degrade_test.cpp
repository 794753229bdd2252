#include "fault/degrade.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/flat_tree.hpp"
#include "fault/scenario.hpp"
#include "topo/fat_tree.hpp"

namespace flattree::fault {
namespace {

core::FlatTreeNetwork make_net(std::uint32_t k = 4) {
  core::FlatTreeConfig cfg;
  cfg.k = k;
  return core::FlatTreeNetwork(cfg);
}

TEST(Degrade, DropCountsAndStrandedAgree) {
  core::FlatTreeNetwork net = make_net();
  topo::Topology clos = net.build(core::Mode::Clos);
  FaultState state(net.params().total_switches(), 0);
  FaultEvent e;
  e.time = 1.0;
  e.kind = FaultKind::SwitchDown;
  e.a = net.edge_switch(0, 0);
  state.apply(e);
  DegradeResult d = degrade(clos, state);
  EXPECT_EQ(d.dropped_links, clos.link_count() - d.topo.link_count());
  EXPECT_EQ(d.stranded.size(), net.params().servers_per_edge());
  EXPECT_TRUE(std::is_sorted(d.stranded.begin(), d.stranded.end()));
}

// Link-granularity strandedness: a *live* host whose every link is dead
// still strands its servers.
TEST(Degrade, IsolatedLiveHostStrandsServers) {
  core::FlatTreeNetwork net = make_net();
  topo::Topology clos = net.build(core::Mode::Clos);
  NodeId host = clos.host(0);
  FaultState state(net.params().total_switches(), 0);
  double t = 1.0;
  for (const graph::Arc& arc : clos.graph().neighbors(host)) {
    FaultEvent e;
    e.time = t++;
    e.kind = FaultKind::LinkDown;
    e.a = host;
    e.b = arc.to;
    state.apply(e);
  }
  EXPECT_FALSE(state.switch_down(host));
  DegradeResult d = degrade(clos, state);
  EXPECT_EQ(d.topo.graph().degree(host), 0u);
  EXPECT_FALSE(d.stranded.empty());
  for (ServerId s : d.stranded) EXPECT_EQ(clos.host(s), host);
}

// Every node's neighbors() lists its arcs in ascending link id, on built
// fabrics and on degrade() output alike: adjacency-order tie-breaks (the
// ECMP path set past max_paths, DFS and BFS visit order) are then a
// function of the graph alone.
TEST(AdjacencyOrder, ArcsAscendByLinkIdOnBuiltAndDegradedFabrics) {
  core::FlatTreeNetwork net = make_net(6);
  std::vector<std::pair<const char*, topo::Topology>> fabrics;
  fabrics.emplace_back("fat-tree", topo::build_fat_tree(6).topo);
  fabrics.emplace_back("flat-tree clos", net.build(core::Mode::Clos));
  fabrics.emplace_back("flat-tree local", net.build(core::Mode::LocalRandom));
  fabrics.emplace_back("flat-tree global", net.build(core::Mode::GlobalRandom));
  ScenarioParams p;
  p.duration = 30.0;
  p.seed = 3;
  p.switches = {40.0, 5.0};
  p.link = {30.0, 4.0};
  Scenario sc = generate_scenario(fabrics[3].second, p, 0, net.params().pods());
  FaultState state(net.params().total_switches(), 0);
  for (std::size_t i = 0; i < sc.events.size() / 2; ++i) state.apply(sc.events[i]);
  ASSERT_FALSE(state.clean());
  DegradeResult d = degrade(fabrics[3].second, state);
  ASSERT_GT(d.dropped_links, 0u);
  fabrics.emplace_back("degraded flat-tree global", std::move(d.topo));

  for (const auto& [name, t] : fabrics) {
    const graph::Graph& g = t.graph();
    std::size_t arcs = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      auto nb = g.neighbors(v);
      arcs += nb.size();
      for (std::size_t i = 1; i < nb.size(); ++i)
        ASSERT_LT(nb[i - 1].link, nb[i].link) << name << " node " << v;
    }
    EXPECT_EQ(arcs, 2 * g.link_count()) << name;
  }
}

}  // namespace
}  // namespace flattree::fault
