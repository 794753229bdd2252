// Differential tests: te::compile_wcmp_paths through the per-destination
// shortest-path DAG against the per-pair path tally it replaces, and
// te::compile_wcmp_mcf against its earlier closure-per-destination form,
// every weighted rule list compared with its weights.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>

#include "../routing/dag_fixtures.hpp"
#include "te/wcmp.hpp"

namespace flattree::te {
namespace {

using routing::testing::counter;
using routing::testing::dag_cases;
using routing::testing::EnumeratedEcmp;
using routing::testing::ObsScope;

/// Every (switch, destination) rule list, in order, with weights.
void expect_same_wfib(const WeightedFib& a, const WeightedFib& b, const std::string& name) {
  ASSERT_EQ(a.switch_count(), b.switch_count()) << name;
  EXPECT_EQ(a.entry_count(), b.entry_count()) << name;
  EXPECT_EQ(a.rule_count(), b.rule_count()) << name;
  EXPECT_EQ(a.total_weight(), b.total_weight()) << name;
  for (NodeId at = 0; at < a.switch_count(); ++at) {
    ASSERT_EQ(a.destinations(at), b.destinations(at)) << name << ": switch " << at;
    for (NodeId dst : a.destinations(at)) {
      const auto& ha = a.next_hops(at, dst);
      const auto& hb = b.next_hops(at, dst);
      ASSERT_EQ(ha.size(), hb.size()) << name << ": switch " << at << " toward " << dst;
      for (std::size_t i = 0; i < ha.size(); ++i) {
        EXPECT_EQ(ha[i].link, hb[i].link) << name << ": " << at << " -> " << dst;
        EXPECT_EQ(ha[i].weight, hb[i].weight) << name << ": " << at << " -> " << dst;
      }
    }
  }
}

TEST(WcmpDag, MatchesPathTallyOnEveryTopology) {
  for (const auto& c : dag_cases()) {
    ObsScope obs;
    auto pairs = routing::all_server_pairs(c.topo);
    routing::EcmpRouting ecmp(c.topo.graph());
    EnumeratedEcmp reference(c.topo.graph());
    WeightedFib dag = compile_wcmp_paths(c.topo, ecmp, pairs);
    EXPECT_EQ(counter("routing.fib.enumerated_destinations"), 0u) << c.name;
    EXPECT_GT(counter("routing.fib.dag_destinations"), 0u) << c.name;
    expect_same_wfib(dag, compile_wcmp_paths(c.topo, reference, pairs), c.name);
  }
}

TEST(WcmpDag, DuplicatePairsMatchPathTally) {
  for (const auto& c : dag_cases()) {
    auto pairs = routing::testing::pairs_with_duplicates(c.topo);
    routing::EcmpRouting ecmp(c.topo.graph());
    EnumeratedEcmp reference(c.topo.graph());
    expect_same_wfib(compile_wcmp_paths(c.topo, ecmp, pairs),
                     compile_wcmp_paths(c.topo, reference, pairs), c.name);
  }
}

TEST(WcmpDag, FallbackMatchesPathTally) {
  {
    // Fat-tree k=6 has 9 inter-pod paths: a cap of 4 truncates them.
    ObsScope obs;
    topo::Topology t = topo::build_fat_tree(6).topo;
    auto pairs = routing::all_server_pairs(t);
    routing::EcmpRouting ecmp(t.graph(), 4);
    EnumeratedEcmp reference(t.graph(), 4);
    WeightedFib dag = compile_wcmp_paths(t, ecmp, pairs);
    EXPECT_EQ(counter("routing.fib.dag_destinations"), 0u);
    expect_same_wfib(dag, compile_wcmp_paths(t, reference, pairs), "fat-tree k=6 cap 4");
  }
  {
    ObsScope obs;
    topo::Topology t = routing::testing::parallel_link_fixture();
    auto pairs = routing::all_server_pairs(t);
    routing::EcmpRouting ecmp(t.graph());
    EnumeratedEcmp reference(t.graph());
    WeightedFib dag = compile_wcmp_paths(t, ecmp, pairs);
    EXPECT_EQ(counter("routing.fib.enumerated_destinations"), 2u);
    EXPECT_EQ(counter("routing.fib.dag_destinations"), 2u);
    expect_same_wfib(dag, compile_wcmp_paths(t, reference, pairs), "parallel links");
  }
}

TEST(WcmpDag, DisconnectedPairThrows) {
  topo::Topology t = routing::testing::two_components();
  routing::EcmpRouting ecmp(t.graph());
  EXPECT_THROW(compile_wcmp_paths(t, ecmp, routing::all_server_pairs(t)),
               std::runtime_error);
}

/// Reference for compile_wcmp_mcf built without ShortestPathDag: per
/// destination, a BFS plus a forward closure from the sources.
WeightedFib mcf_reference(const topo::Topology& topo,
                          const std::vector<std::pair<NodeId, NodeId>>& pairs,
                          const std::vector<double>& arc_flow) {
  const graph::Graph& g = topo.graph();
  WeightedFib fib(topo.switch_count());
  std::map<NodeId, std::vector<NodeId>> by_dst;
  for (auto [src, dst] : pairs)
    if (src != dst) by_dst[dst].push_back(src);
  for (const auto& [dst, sources] : by_dst) {
    std::vector<std::uint32_t> dist = graph::bfs_distances(g, dst);
    std::vector<char> relevant(g.node_count(), 0);
    std::vector<NodeId> stack;
    for (NodeId src : sources) {
      if (dist[src] == graph::kUnreachable || relevant[src]) continue;
      relevant[src] = 1;
      stack.push_back(src);
    }
    std::vector<NodeId> order;
    while (!stack.empty()) {
      NodeId u = stack.back();
      stack.pop_back();
      if (u == dst) continue;
      order.push_back(u);
      for (const graph::Arc& arc : g.neighbors(u))
        if (dist[arc.to] + 1 == dist[u] && !relevant[arc.to]) {
          relevant[arc.to] = 1;
          stack.push_back(arc.to);
        }
    }
    std::sort(order.begin(), order.end());
    for (NodeId u : order) {
      std::vector<graph::LinkId> ids;
      std::vector<double> shares;
      double total = 0.0;
      for (const graph::Arc& arc : g.neighbors(u)) {
        if (dist[arc.to] + 1 != dist[u]) continue;
        const graph::Link& l = g.link(arc.link);
        double flow = std::max(arc_flow[2 * arc.link + (l.a == u ? 0 : 1)], 0.0);
        ids.push_back(arc.link);
        shares.push_back(flow);
        total += flow;
      }
      if (!(total > 0.0)) std::fill(shares.begin(), shares.end(), 1.0);
      auto weights = quantize_weights(shares, fib.weight_budget());
      for (std::size_t i = 0; i < ids.size(); ++i)
        if (weights[i] > 0) fib.add_route(u, dst, ids[i], weights[i]);
    }
  }
  return fib;
}

TEST(WcmpDag, McfCompileUnchanged) {
  for (const auto& c : dag_cases()) {
    const graph::Graph& g = c.topo.graph();
    // Seeded flows with a third of the arcs idle, so both the weighted and
    // the even-split branches run.
    util::Rng rng(11);
    std::vector<double> arc_flow(2 * g.link_count());
    for (double& f : arc_flow)
      f = rng() % 3 == 0 ? 0.0 : 1.0 + static_cast<double>(rng() % 97);
    auto pairs = routing::testing::pairs_with_duplicates(c.topo);
    // A partial pair set too: only some sources' closures get entries.
    std::vector<std::pair<NodeId, NodeId>> few(pairs.begin(),
                                               pairs.begin() + pairs.size() / 5);
    for (const auto* set : {&pairs, &few})
      expect_same_wfib(compile_wcmp_mcf(c.topo, *set, arc_flow),
                       mcf_reference(c.topo, *set, arc_flow), c.name);
  }
  // Unreachable sources are skipped, not reported.
  topo::Topology t = routing::testing::two_components();
  std::vector<double> arc_flow(2 * t.link_count(), 1.0);
  auto pairs = routing::all_server_pairs(t);
  expect_same_wfib(compile_wcmp_mcf(t, pairs, arc_flow), mcf_reference(t, pairs, arc_flow),
                   "two components");
}

TEST(VerifyWeightedFib, ReportsLowestBrokenDestinationFirst) {
  topo::Topology t;
  for (int i = 0; i < 4; ++i) t.add_switch(topo::SwitchKind::Edge, 0, i, 4);
  for (graph::NodeId i = 0; i + 1 < 4; ++i) t.add_link(i, i + 1, topo::LinkOrigin::Random);
  WeightedFib fib(4);
  for (auto pairs : {std::vector<std::pair<NodeId, NodeId>>{{0, 2}, {0, 3}},
                     std::vector<std::pair<NodeId, NodeId>>{{0, 3}, {0, 2}}}) {
    WeightedFibVerification v = verify_weighted_fib(t, fib, pairs);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.error.find("toward 2"), std::string::npos) << v.error;
  }
}

}  // namespace
}  // namespace flattree::te
