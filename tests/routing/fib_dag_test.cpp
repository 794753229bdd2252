// Differential tests: compile_fib through the per-destination
// shortest-path DAG against the per-pair path enumeration it replaces,
// entry by entry, plus the fallback rules, the error contract and the
// ShortestPathDag counts themselves.

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "dag_fixtures.hpp"
#include "graph/ksp.hpp"

namespace flattree::routing {
namespace {

using testing::counter;
using testing::dag_cases;
using testing::EnumeratedEcmp;
using testing::ObsScope;

/// Every (switch, destination) hop list, in order.
void expect_same_fib(const Fib& dag, const Fib& reference, const std::string& name) {
  ASSERT_EQ(dag.switch_count(), reference.switch_count()) << name;
  EXPECT_EQ(dag.entry_count(), reference.entry_count()) << name;
  EXPECT_EQ(dag.rule_count(), reference.rule_count()) << name;
  const auto n = static_cast<NodeId>(dag.switch_count());
  for (NodeId at = 0; at < n; ++at)
    for (NodeId dst = 0; dst < n; ++dst)
      ASSERT_EQ(dag.next_hops(at, dst), reference.next_hops(at, dst))
          << name << ": switch " << at << " toward " << dst;
}

std::size_t destination_count(const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  return sources_by_destination(pairs).size();
}

TEST(FibDag, MatchesEnumerationOnEveryTopology) {
  for (const auto& c : dag_cases()) {
    ObsScope obs;
    auto pairs = all_server_pairs(c.topo);
    EcmpRouting ecmp(c.topo.graph());
    EnumeratedEcmp reference(c.topo.graph());
    Fib dag = compile_fib(c.topo, ecmp, pairs);
    EXPECT_EQ(counter("routing.fib.dag_destinations"), destination_count(pairs)) << c.name;
    EXPECT_EQ(counter("routing.fib.enumerated_destinations"), 0u) << c.name;
    expect_same_fib(dag, compile_fib(c.topo, reference, pairs), c.name);
    EXPECT_TRUE(verify_fib(c.topo, dag, pairs).ok) << c.name;
  }
}

TEST(FibDag, DuplicatePairsMatchEnumeration) {
  for (const auto& c : dag_cases()) {
    auto pairs = testing::pairs_with_duplicates(c.topo);
    EcmpRouting ecmp(c.topo.graph());
    EnumeratedEcmp reference(c.topo.graph());
    expect_same_fib(compile_fib(c.topo, ecmp, pairs), compile_fib(c.topo, reference, pairs),
                    c.name);
  }
}

TEST(FibDag, CapAtExactPathCountStaysOnDag) {
  // Fat-tree k=4: inter-pod edge pairs have exactly (k/2)^2 = 4 shortest
  // paths, so a cap of 4 enumerates them all and the DAG route holds.
  ObsScope obs;
  topo::Topology t = topo::build_fat_tree(4).topo;
  auto pairs = all_server_pairs(t);
  EcmpRouting ecmp(t.graph(), 4);
  EnumeratedEcmp reference(t.graph(), 4);
  Fib dag = compile_fib(t, ecmp, pairs);
  EXPECT_EQ(counter("routing.fib.enumerated_destinations"), 0u);
  expect_same_fib(dag, compile_fib(t, reference, pairs), "fat-tree k=4 cap 4");
}

TEST(FibDag, BindingCapFallsBackToEnumeration) {
  // Fat-tree k=6 has 9 shortest paths between pods: a cap of 4 truncates
  // the DFS, so every destination must take the enumeration route.
  ObsScope obs;
  topo::Topology t = topo::build_fat_tree(6).topo;
  auto pairs = all_server_pairs(t);
  EcmpRouting ecmp(t.graph(), 4);
  EnumeratedEcmp reference(t.graph(), 4);
  Fib dag = compile_fib(t, ecmp, pairs);
  EXPECT_EQ(counter("routing.fib.enumerated_destinations"), destination_count(pairs));
  EXPECT_EQ(counter("routing.fib.dag_destinations"), 0u);
  expect_same_fib(dag, compile_fib(t, reference, pairs), "fat-tree k=6 cap 4");
}

TEST(FibDag, ParallelLinksFallBackToEnumeration) {
  ObsScope obs;
  topo::Topology t = testing::parallel_link_fixture();
  auto pairs = all_server_pairs(t);
  EcmpRouting ecmp(t.graph());
  EnumeratedEcmp reference(t.graph());
  Fib dag = compile_fib(t, ecmp, pairs);
  EXPECT_EQ(counter("routing.fib.enumerated_destinations"), 2u);
  EXPECT_EQ(counter("routing.fib.dag_destinations"), 2u);
  expect_same_fib(dag, compile_fib(t, reference, pairs), "parallel links");
  EXPECT_EQ(dag.next_hops(2, 1).size(), 2u);
  EXPECT_EQ(dag.next_hops(3, 0).size(), 2u);
}

TEST(FibDag, DisconnectedPairThrows) {
  topo::Topology t = testing::two_components();
  EcmpRouting ecmp(t.graph());
  EXPECT_THROW(compile_fib(t, ecmp, all_server_pairs(t)), std::runtime_error);
  // Pairs inside one component still compile.
  EXPECT_NO_THROW(compile_fib(t, ecmp, {{0, 1}, {1, 0}}));
}

TEST(ShortestPathDag, CountsMatchEnumeratedPaths) {
  topo::Topology t = topo::build_fat_tree(4).topo;
  const graph::Graph& g = t.graph();
  auto pairs = testing::pairs_with_duplicates(t);
  ShortestPathDag dag(g);
  for (const auto& [dst, sources] : sources_by_destination(pairs)) {
    dag.build(dst, sources);
    EXPECT_EQ(dag.destination(), dst);
    EXPECT_EQ(dag.unreachable_source(), graph::kInvalidNode);
    EXPECT_TRUE(dag.matches_enumeration(64));
    // below(s) is the pair's path count; above(u) sums the sources' path
    // prefixes ending at u (a duplicated source twice), so
    // above(u) * below(v) is the number of the destination's paths over
    // arc u->v, counted once per pair.
    std::map<std::pair<NodeId, graph::LinkId>, std::uint64_t> through;
    for (NodeId src : sources) {
      auto paths = graph::all_shortest_paths(g, src, dst, 1000);
      EXPECT_EQ(dag.paths_below(src), paths.size());
      for (const auto& p : paths)
        for (std::size_t i = 0; i < p.links.size(); ++i) ++through[{p.nodes[i], p.links[i]}];
    }
    std::size_t arcs = 0;
    for (NodeId u : dag.entries())
      for (const graph::Arc& arc : dag.next_arcs(u)) {
        EXPECT_EQ(dag.paths_above(u) * dag.paths_below(arc.to), (through[{u, arc.link}]));
        ++arcs;
      }
    EXPECT_EQ(arcs, through.size());
  }
}

TEST(ShortestPathDag, ReportsUnreachableSources) {
  graph::Graph g(4);
  g.add_link(0, 1);
  g.add_link(2, 3);
  ShortestPathDag dag(g);
  dag.build(1, {0, 3, 2, 1});
  EXPECT_EQ(dag.unreachable_source(), 3u);
  EXPECT_EQ(dag.entries(), (std::vector<NodeId>{0}));
  dag.build(3, {2});  // buffers are reset between builds
  EXPECT_EQ(dag.unreachable_source(), graph::kInvalidNode);
  EXPECT_EQ(dag.entries(), (std::vector<NodeId>{2}));
  EXPECT_EQ(dag.paths_above(0), 0u);
}

}  // namespace
}  // namespace flattree::routing
