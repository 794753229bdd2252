#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace flattree::graph {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.link_count(), 0u);
}

TEST(Graph, AddNodesReturnsFirstId) {
  Graph g;
  EXPECT_EQ(g.add_nodes(3), 0u);
  EXPECT_EQ(g.add_nodes(2), 3u);
  EXPECT_EQ(g.node_count(), 5u);
}

TEST(Graph, AddLinkAndAccessors) {
  Graph g(3);
  LinkId l = g.add_link(0, 2, 2.5);
  EXPECT_EQ(g.link_count(), 1u);
  EXPECT_EQ(g.link(l).a, 0u);
  EXPECT_EQ(g.link(l).b, 2u);
  EXPECT_DOUBLE_EQ(g.link(l).capacity, 2.5);
  EXPECT_EQ(g.link(l).other(0), 2u);
  EXPECT_EQ(g.link(l).other(2), 0u);
}

TEST(Graph, RejectsSelfLoop) {
  Graph g(2);
  EXPECT_THROW(g.add_link(1, 1), std::invalid_argument);
}

TEST(Graph, RejectsOutOfRangeEndpoint) {
  Graph g(2);
  EXPECT_THROW(g.add_link(0, 2), std::out_of_range);
}

TEST(Graph, RejectsNonPositiveCapacity) {
  Graph g(2);
  EXPECT_THROW(g.add_link(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(g.add_link(0, 1, -1.0), std::invalid_argument);
}

TEST(Graph, NeighborsAndDegree) {
  Graph g(4);
  g.add_link(0, 1);
  g.add_link(0, 2);
  g.add_link(0, 3);
  g.add_link(1, 2);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(3), 1u);
  std::size_t count = 0;
  bool saw1 = false, saw2 = false, saw3 = false;
  for (const Arc& arc : g.neighbors(0)) {
    ++count;
    saw1 |= arc.to == 1;
    saw2 |= arc.to == 2;
    saw3 |= arc.to == 3;
  }
  EXPECT_EQ(count, 3u);
  EXPECT_TRUE(saw1 && saw2 && saw3);
}

TEST(Graph, ParallelLinksAllowedAndCounted) {
  Graph g(2);
  g.add_link(0, 1, 1.0);
  g.add_link(0, 1, 2.0);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_TRUE(g.connected(0, 1));
  EXPECT_DOUBLE_EQ(g.capacity_between(0, 1), 3.0);
}

TEST(Graph, ConnectedPredicate) {
  Graph g(3);
  g.add_link(0, 1);
  EXPECT_TRUE(g.connected(0, 1));
  EXPECT_TRUE(g.connected(1, 0));
  EXPECT_FALSE(g.connected(0, 2));
}

TEST(Graph, CsrRebuildsAfterMutation) {
  Graph g(3);
  g.add_link(0, 1);
  EXPECT_EQ(g.degree(0), 1u);  // builds CSR
  g.add_link(0, 2);            // invalidates CSR
  EXPECT_EQ(g.degree(0), 2u);
  g.add_nodes(1);
  g.add_link(0, 3);
  EXPECT_EQ(g.degree(0), 3u);
}

TEST(Graph, ArcLinkIdsMatch) {
  Graph g(3);
  LinkId l0 = g.add_link(0, 1);
  LinkId l1 = g.add_link(1, 2);
  for (const Arc& arc : g.neighbors(1)) {
    if (arc.to == 0) EXPECT_EQ(arc.link, l0);
    if (arc.to == 2) EXPECT_EQ(arc.link, l1);
  }
}

TEST(Graph, NeighborsOutOfRangeThrows) {
  Graph g(1);
  EXPECT_THROW(g.neighbors(1), std::out_of_range);
}

// Copies and moves carry the links but not the CSR cache; each side then
// rebuilds its own adjacency, and appends to one never show in the other.
TEST(Graph, CopyAndMoveRebuildAdjacency) {
  Graph g(3);
  g.add_link(0, 1);
  g.ensure_csr();
  Graph c = g;
  c.add_link(1, 2);
  EXPECT_EQ(c.degree(1), 2u);
  EXPECT_EQ(g.degree(1), 1u);
  Graph m = std::move(c);
  EXPECT_EQ(m.link_count(), 2u);
  EXPECT_TRUE(m.connected(1, 2));
  m = g;
  EXPECT_EQ(m.degree(1), 1u);
  EXPECT_FALSE(m.connected(1, 2));
}

}  // namespace
}  // namespace flattree::graph
