#include "fault/degrade.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/flat_tree.hpp"
#include "fault/scenario.hpp"
#include "graph/bfs.hpp"

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

// A FaultedGraph built mid-trace must agree with one that followed the
// trace from the start (the seeding path vs the event path).
TEST(FaultedGraph, MidTraceConstructionMatchesEventPath) {
  core::FlatTreeNetwork net = make_net();
  topo::Topology clos = net.build(core::Mode::Clos);
  ScenarioParams p;
  p.duration = 30.0;
  p.seed = 17;
  p.switches = {40.0, 5.0};
  p.link = {50.0, 4.0};
  p.pod_power = {120.0, 4.0};
  Scenario sc = generate_scenario(clos, p, 0, net.params().pods());
  ASSERT_GT(sc.events.size(), 4u);

  FaultState state(net.params().total_switches(), 0);
  FaultedGraph followed(clos, state);
  std::size_t half = sc.events.size() / 2;
  for (std::size_t i = 0; i < half; ++i)
    if (state.apply(sc.events[i])) followed.on_event(state, sc.events[i]);

  FaultedGraph seeded(clos, state);  // built from the mid-trace state
  EXPECT_EQ(seeded.graph().live_link_count(), followed.graph().live_link_count());
  for (graph::LinkId l = 0; l < clos.graph().link_count(); ++l)
    EXPECT_EQ(seeded.graph().link_live(l), followed.graph().link_live(l)) << "link " << l;
  EXPECT_EQ(seeded.stranded(state), followed.stranded(state));
}

// -- concurrency regression (run under the tsan preset, label `fault`) ------

// The fault apply/unapply path mutates the shared graph in place
// (remove_link/restore_link patch the lazily rebuilt CSR). Readers that
// race on the first neighbors() call after an on_event mutation must see
// the patched index — the same ConcurrentReadAfterMutateIsRaceFree
// contract the bitbfs suite pins for raw graph edits, here exercised
// through FaultState + FaultedGraph. The mutation happens-before the
// reader threads (thread creation).
TEST(FaultedGraph, ConcurrentReadAfterMutateIsRaceFree) {
  core::FlatTreeNetwork net = make_net();
  topo::Topology clos = net.build(core::Mode::Clos);
  ScenarioParams p;
  p.duration = 16.0;
  p.seed = 23;
  p.switches = {30.0, 3.0};
  p.link = {40.0, 3.0};
  p.flap_probability = 0.5;
  Scenario sc = generate_scenario(clos, p, 0, net.params().pods());
  ASSERT_FALSE(sc.events.empty());

  FaultState state(net.params().total_switches(), 0);
  FaultedGraph fg(clos, state);
  const graph::Graph& g = fg.graph();
  for (const FaultEvent& e : sc.events) {
    if (!state.apply(e)) continue;
    fg.on_event(state, e);  // tombstones/restores links in place
    auto reader = [&g]() {
      for (graph::NodeId s = 0; s < g.node_count(); s += 4) {
        auto dist = graph::bfs_distances(g, s);
        ASSERT_EQ(dist.size(), g.node_count());
      }
    };
    std::thread t1(reader), t2(reader), t3(reader);
    t1.join();
    t2.join();
    t3.join();
    // The patched view equals the cold degraded rebuild.
    DegradeResult d = degrade(clos, state);
    ASSERT_EQ(g.live_link_count(), d.topo.graph().link_count());
    ASSERT_EQ(graph::bfs_distances(g, 0), graph::bfs_distances(d.topo.graph(), 0));
  }
  EXPECT_TRUE(state.clean());
  EXPECT_EQ(fg.links_removed(), fg.links_restored());
}

}  // namespace
}  // namespace flattree::fault
