#include "routing/fib.hpp"

#include <gtest/gtest.h>

#include <map>

#include "core/flat_tree.hpp"
#include "routing/ecmp.hpp"
#include "routing/ksp_routing.hpp"
#include "topo/fat_tree.hpp"

namespace flattree::routing {
namespace {

topo::Topology line3() {
  topo::Topology t;
  for (int i = 0; i < 3; ++i) t.add_switch(topo::SwitchKind::Edge, 0, i, 4);
  t.add_link(0, 1, topo::LinkOrigin::Random);
  t.add_link(1, 2, topo::LinkOrigin::Random);
  t.add_server(0);
  t.add_server(2);
  return t;
}

TEST(Fib, AddAndLookup) {
  Fib fib(3);
  fib.add_route(0, 2, 0);
  fib.add_route(1, 2, 1);
  fib.add_route(0, 2, 0);  // duplicate ignored
  EXPECT_EQ(fib.next_hops(0, 2).size(), 1u);
  EXPECT_EQ(fib.next_hops(1, 2).size(), 1u);
  EXPECT_TRUE(fib.next_hops(2, 0).empty());
  EXPECT_EQ(fib.rule_count(), 2u);
  EXPECT_EQ(fib.entry_count(), 2u);
}

TEST(Fib, SelectDeterministicAndThrowsOnMiss) {
  Fib fib(3);
  fib.add_route(0, 2, 0);
  EXPECT_EQ(fib.select(0, 2, 99), 0u);
  EXPECT_EQ(fib.select(0, 2, 99), fib.select(0, 2, 99));
  EXPECT_THROW(fib.select(1, 2, 0), std::runtime_error);
}

TEST(Fib, MaxRulesPerSwitch) {
  Fib fib(2);
  fib.add_route(0, 1, 0);
  fib.add_route(0, 1, 1);
  fib.add_route(1, 0, 0);
  EXPECT_EQ(fib.max_rules_per_switch(), 2u);
}

TEST(AllServerPairs, OnlyHostingSwitches) {
  topo::Topology t = line3();
  auto pairs = all_server_pairs(t);
  ASSERT_EQ(pairs.size(), 2u);  // (0,2) and (2,0); switch 1 hosts nothing
  EXPECT_EQ(pairs[0].first, 0u);
  EXPECT_EQ(pairs[0].second, 2u);
}

TEST(CompileFib, InstallsHopByHop) {
  topo::Topology t = line3();
  EcmpRouting routing(t.graph());
  Fib fib = compile_fib(t, routing, all_server_pairs(t));
  EXPECT_EQ(fib.next_hops(0, 2).size(), 1u);
  EXPECT_EQ(fib.next_hops(1, 2).size(), 1u);
  EXPECT_EQ(fib.next_hops(2, 0).size(), 1u);
  EXPECT_EQ(fib.next_hops(1, 0).size(), 1u);
}

TEST(VerifyFib, EcmpOnFatTreeIsLoopFree) {
  topo::FatTree ft = topo::build_fat_tree(4);
  EcmpRouting routing(ft.topo.graph());
  auto pairs = all_server_pairs(ft.topo);
  Fib fib = compile_fib(ft.topo, routing, pairs);
  FibVerification v = verify_fib(ft.topo, fib, pairs);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.pairs_checked, pairs.size());
  EXPECT_LE(v.max_walk_hops, 4u);  // fat-tree switch diameter
}

TEST(VerifyFib, EcmpOnConvertedFlatTreeIsLoopFree) {
  core::FlatTreeConfig cfg;
  cfg.k = 6;
  core::FlatTreeNetwork net(cfg);
  topo::Topology grg = net.build(core::Mode::GlobalRandom);
  EcmpRouting routing(grg.graph());
  auto pairs = all_server_pairs(grg);
  Fib fib = compile_fib(grg, routing, pairs);
  FibVerification v = verify_fib(grg, fib, pairs);
  EXPECT_TRUE(v.ok) << v.error;
}

TEST(VerifyFib, HopByHopKspOnRingLoops) {
  // Ring of 6 with sources 0 and 3: their KSP detour paths toward shared
  // destinations traverse nodes 4/5 in opposite directions, so hop-by-hop
  // installation lets a walk bounce 4 -> 5 -> 4 (the classic reason KSP
  // needs pinned paths rather than per-hop rules).
  topo::Topology t;
  for (int i = 0; i < 6; ++i) t.add_switch(topo::SwitchKind::Edge, 0, i, 4);
  for (graph::NodeId i = 0; i < 6; ++i)
    t.add_link(i, (i + 1) % 6, topo::LinkOrigin::Random);
  t.add_server(0);
  t.add_server(2);
  t.add_server(3);
  KspRouting routing(t.graph(), 4);
  auto pairs = all_server_pairs(t);
  Fib fib = compile_fib(t, routing, pairs);
  FibVerification v = verify_fib(t, fib, pairs);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("loop"), std::string::npos);
}

TEST(VerifyFib, DetectsBlackhole) {
  topo::Topology t = line3();
  Fib fib(3);
  fib.add_route(0, 2, 0);  // installed at 0 but missing at 1
  FibVerification v = verify_fib(t, fib, {{0, 2}});
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("blackhole"), std::string::npos);
}

TEST(VerifyFib, ReportsLowestBrokenDestinationFirst) {
  // Two destinations blackholed at switch 0; the pair list names the
  // lower one first, so grouping in hash order would tend to report the
  // higher one. Destinations are checked in ascending order.
  topo::Topology t;
  for (int i = 0; i < 4; ++i) t.add_switch(topo::SwitchKind::Edge, 0, i, 4);
  for (graph::NodeId i = 0; i + 1 < 4; ++i) t.add_link(i, i + 1, topo::LinkOrigin::Random);
  Fib fib(4);
  for (auto pairs : {std::vector<std::pair<NodeId, NodeId>>{{0, 2}, {0, 3}},
                     std::vector<std::pair<NodeId, NodeId>>{{0, 3}, {0, 2}}}) {
    FibVerification v = verify_fib(t, fib, pairs);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.error.find("toward 2"), std::string::npos) << v.error;
    EXPECT_EQ(v.pairs_checked, 1u);
  }
}

TEST(VerifyFib, HopLimitEnforced) {
  topo::Topology t = line3();
  EcmpRouting routing(t.graph());
  auto pairs = all_server_pairs(t);
  Fib fib = compile_fib(t, routing, pairs);
  FibVerification tight = verify_fib(t, fib, pairs, /*hop_limit=*/1);
  EXPECT_FALSE(tight.ok);
  EXPECT_NE(tight.error.find("exceeds"), std::string::npos);
}

TEST(FibSelect, StableAcrossRebuildsAndThreadCounts) {
  // select() is a pure function of (at, dst, flow_id): two independently
  // compiled FIBs over the same topology must route every flow id the
  // same way, regardless of compilation order or the exec pool size the
  // enclosing bench happened to use (nothing in the FIB reads the pool).
  topo::FatTree ft = topo::build_fat_tree(4);
  EcmpRouting r1(ft.topo.graph());
  EcmpRouting r2(ft.topo.graph());
  auto pairs = all_server_pairs(ft.topo);
  Fib a = compile_fib(ft.topo, r1, pairs);
  Fib b = compile_fib(ft.topo, r2, pairs);
  for (auto [src, dst] : pairs)
    for (std::uint64_t flow = 0; flow < 32; ++flow)
      EXPECT_EQ(a.select(src, dst, flow), b.select(src, dst, flow));
}

TEST(FibSelect, FlowSweepSpreadsAcrossEqualCostHops) {
  // Distribution sanity over a deterministic flow-id sweep: an edge switch
  // with two equal-cost uplinks should see a near-even split (the hash is
  // mix64; an exact bound would overfit, but 40/60 catches a broken hash
  // or an always-first-hop regression).
  topo::FatTree ft = topo::build_fat_tree(4);
  EcmpRouting routing(ft.topo.graph());
  auto pairs = all_server_pairs(ft.topo);
  Fib fib = compile_fib(ft.topo, routing, pairs);
  auto [src, dst] = pairs[0];
  graph::NodeId inter_pod_dst = 0;
  bool found = false;
  for (auto [s, d] : pairs)
    if (s == src && fib.next_hops(src, d).size() >= 2) {
      inter_pod_dst = d;
      found = true;
      break;
    }
  ASSERT_TRUE(found);
  const auto& hops = fib.next_hops(src, inter_pod_dst);
  std::map<graph::LinkId, int> hits;
  const int sweep = 4000;
  for (int flow = 0; flow < sweep; ++flow)
    ++hits[fib.select(src, inter_pod_dst, static_cast<std::uint64_t>(flow))];
  for (const auto& [link, count] : hits) {
    double share = static_cast<double>(count) / sweep;
    double even = 1.0 / static_cast<double>(hops.size());
    EXPECT_GT(share, even - 0.1) << "link " << link;
    EXPECT_LT(share, even + 0.1) << "link " << link;
  }
  EXPECT_EQ(hits.size(), hops.size());  // every hop gets traffic
}

TEST(VerifyFib, RuleCountsReasonableOnFatTree) {
  topo::FatTree ft = topo::build_fat_tree(4);
  EcmpRouting routing(ft.topo.graph());
  auto pairs = all_server_pairs(ft.topo);
  Fib fib = compile_fib(ft.topo, routing, pairs);
  // 8 hosting edge switches; every switch needs entries for at most 8
  // destinations (7 at edges).
  EXPECT_LE(fib.entry_count(), ft.topo.switch_count() * 8);
  EXPECT_GT(fib.rule_count(), fib.entry_count());  // ECMP multipath
}

}  // namespace
}  // namespace flattree::routing
