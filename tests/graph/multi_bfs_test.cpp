// Bit-parallel batched BFS (graph::MultiSourceBfs) equivalence battery:
// the engine must reproduce the scalar kernels bit for bit — distances on
// random (including disconnected) graphs, filtered traversals, APSP rows,
// and the long-double APL reductions — at any thread count, with
// deterministic operation counters. Negative controls prove the sampled
// certification hook actually catches corrupted rows. Also carries the
// ThreadSanitizer regression test for the lazy-CSR double-checked lock
// after an in-place remove/restore (concurrent read-after-mutate).

#include "graph/multi_bfs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "check/distances.hpp"
#include "exec/parallel_for.hpp"
#include "graph/bfs.hpp"
#include "graph/metrics.hpp"
#include "topo/apl.hpp"
#include "topo/fat_tree.hpp"
#include "util/rng.hpp"

namespace flattree::graph {
namespace {

/// Random multigraph: n nodes, m links sampled uniformly (self-loop-free,
/// parallels allowed — the CSR supports them). Sparse draws leave isolated
/// nodes, covering the disconnected case.
Graph random_graph(std::size_t n, std::size_t m, std::uint64_t seed) {
  util::Rng rng(seed);
  Graph g(n);
  for (std::size_t i = 0; i < m; ++i) {
    NodeId a = static_cast<NodeId>(rng.below(n));
    NodeId b = static_cast<NodeId>(rng.below(n));
    if (a == b) b = static_cast<NodeId>((b + 1) % n);
    g.add_link(a, b);
  }
  return g;
}

TEST(MultiBfs, MatchesScalarOnRandomGraphs) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    // m < n leaves isolated nodes and multiple components.
    for (std::size_t m : {std::size_t{40}, std::size_t{90}, std::size_t{400}}) {
      Graph g = random_graph(100, m, seed);
      std::vector<NodeId> sources(g.node_count());
      for (NodeId v = 0; v < g.node_count(); ++v) sources[v] = v;
      MultiSourceBfs engine(g);
      for (std::size_t begin = 0; begin < sources.size(); begin += kBfsBatchWidth) {
        std::size_t count = std::min(kBfsBatchWidth, sources.size() - begin);
        engine.run(sources.data() + begin, count);
        for (std::size_t i = 0; i < count; ++i) {
          auto scalar = bfs_distances(g, sources[begin + i]);
          auto row = engine.distances(i);
          ASSERT_TRUE(std::equal(scalar.begin(), scalar.end(), row.begin(), row.end()))
              << "seed=" << seed << " m=" << m << " source=" << sources[begin + i];
        }
      }
    }
  }
}

TEST(MultiBfs, MatchesScalarFiltered) {
  Graph g = random_graph(80, 200, 7);
  // Mask out every third node; keep the rest as both sources and targets.
  std::vector<char> allowed(g.node_count(), 1);
  for (NodeId v = 0; v < g.node_count(); v += 3) allowed[v] = 0;
  std::vector<NodeId> sources;
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (allowed[v]) sources.push_back(v);
  MultiSourceBfs engine(g);
  engine.run(sources.data(), std::min(kBfsBatchWidth, sources.size()), &allowed);
  for (std::size_t i = 0; i < engine.batch_size(); ++i) {
    auto scalar = bfs_distances_filtered(g, sources[i], allowed);
    auto row = engine.distances(i);
    EXPECT_TRUE(std::equal(scalar.begin(), scalar.end(), row.begin(), row.end()))
        << "source=" << sources[i];
  }
}

TEST(MultiBfs, RejectsBadBatches) {
  Graph g = random_graph(10, 20, 1);
  MultiSourceBfs engine(g);
  NodeId source = 0;
  EXPECT_THROW(engine.run(&source, 0), std::invalid_argument);
  NodeId out_of_range = 10;
  EXPECT_THROW(engine.run(&out_of_range, 1), std::invalid_argument);
  std::vector<char> bad_mask(5, 1);
  EXPECT_THROW(engine.run(&source, 1, &bad_mask), std::invalid_argument);
  std::vector<char> mask(10, 1);
  mask[0] = 0;
  EXPECT_THROW(engine.run(&source, 1, &mask), std::invalid_argument);
}

TEST(MultiBfs, ReachedCountsAndStats) {
  Graph g(6);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(3, 4);  // node 5 isolated
  MultiSourceBfs engine(g);
  std::vector<NodeId> sources{0, 3, 5};
  reset_multi_bfs_stats();
  engine.run(sources.data(), sources.size());
  EXPECT_EQ(engine.reached(0), 3u);
  EXPECT_EQ(engine.reached(1), 2u);
  EXPECT_EQ(engine.reached(2), 1u);
  MultiBfsStats stats = multi_bfs_stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.sources, 3u);
  EXPECT_EQ(stats.nodes_settled, 6u);  // one per (source, reached node)
  EXPECT_GT(stats.words_touched, 0u);
  EXPECT_GT(stats.node_expansions, 0u);
}

TEST(MultiBfs, ApspMatchesPerSourceScalar) {
  Graph g = random_graph(70, 150, 11);
  auto batched = apsp_distances(g);
  ASSERT_EQ(batched.size(), g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u)
    EXPECT_EQ(batched[u], bfs_distances(g, u)) << "source=" << u;
}

TEST(MultiBfs, WeightedAplBitwiseEqualsScalar) {
  util::Rng rng(13);
  for (std::uint64_t seed : {21ull, 22ull}) {
    Graph g = random_graph(90, 500, seed);  // dense draw: connected whp
    std::vector<std::uint32_t> weight(g.node_count(), 0);
    for (NodeId v = 0; v < g.node_count(); ++v)
      weight[v] = static_cast<std::uint32_t>(rng.below(4));  // zeros included
    AplResult batched = weighted_apl(g, weight, 2, 2);
    AplResult scalar = weighted_apl_scalar(g, weight, 2, 2);
    EXPECT_EQ(batched.average, scalar.average);  // bitwise, not approximate
    EXPECT_EQ(batched.pairs, scalar.pairs);
    EXPECT_EQ(batched.max_dist, scalar.max_dist);
  }
}

TEST(MultiBfs, WeightedAplSubsetBitwiseEqualsScalar) {
  Graph g = random_graph(90, 500, 31);
  std::vector<std::uint32_t> weight(g.node_count(), 1);
  std::vector<char> member(g.node_count(), 0);
  for (NodeId v = 0; v < g.node_count(); v += 2) member[v] = 1;
  for (bool confine : {false, true}) {
    AplResult batched = weighted_apl_subset(g, weight, member, confine, 2, 2);
    AplResult scalar = weighted_apl_subset_scalar(g, weight, member, confine, 2, 2);
    EXPECT_EQ(batched.average, scalar.average) << "confine=" << confine;
    EXPECT_EQ(batched.pairs, scalar.pairs) << "confine=" << confine;
    EXPECT_EQ(batched.max_dist, scalar.max_dist) << "confine=" << confine;
  }
}

TEST(MultiBfs, FatTreeAplBitwiseEqualAcrossThreadCounts) {
  topo::FatTree ft = topo::build_fat_tree(8);
  exec::set_global_threads(1);
  AplResult serial = topo::server_apl(ft.topo);
  AplResult scalar = weighted_apl_scalar(ft.topo.graph(), ft.topo.servers_per_switch(),
                                         /*offset=*/2, /*same_node_dist=*/2);
  reset_multi_bfs_stats();
  exec::set_global_threads(4);
  AplResult parallel = topo::server_apl(ft.topo);
  MultiBfsStats at4 = multi_bfs_stats();
  reset_multi_bfs_stats();
  AplResult again = topo::server_apl(ft.topo);
  MultiBfsStats again4 = multi_bfs_stats();
  exec::set_global_threads(1);
  EXPECT_EQ(serial.average, parallel.average);
  EXPECT_EQ(serial.average, again.average);
  EXPECT_EQ(serial.average, scalar.average);
  EXPECT_EQ(serial.pairs, scalar.pairs);
  // Operation counters are deterministic too: identical across runs.
  EXPECT_EQ(at4.words_touched, again4.words_touched);
  EXPECT_EQ(at4.node_expansions, again4.node_expansions);
  EXPECT_EQ(at4.nodes_settled, again4.nodes_settled);
}

TEST(MultiBfs, DiameterAndUnweightedAplMatchEngine) {
  Graph g = random_graph(60, 400, 41);
  // Reference values straight from scalar BFS rows.
  std::uint64_t pairs = 0;
  long double total = 0.0L;
  std::uint32_t diam = 0;
  bool connected = true;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    auto dist = bfs_distances(g, u);
    for (NodeId v = u + 1; v < g.node_count(); ++v) {
      if (dist[v] == kUnreachable) {
        connected = false;
        continue;
      }
      total += dist[v];
      ++pairs;
      diam = std::max(diam, dist[v]);
    }
  }
  ASSERT_TRUE(connected);  // dense draw; keeps diameter() well-defined
  EXPECT_EQ(diameter(g), diam);
  EXPECT_DOUBLE_EQ(unweighted_apl(g),
                   static_cast<double>(total / static_cast<long double>(pairs)));
}

TEST(MultiBfs, CertifyCatchesCorruptedRow) {
  Graph g = random_graph(50, 120, 51);
  MultiSourceBfs engine(g);
  std::vector<NodeId> sources{0, 1, 2, 3};
  engine.run(sources.data(), sources.size());
  auto row = engine.distances(0);
  std::vector<std::uint32_t> dist(row.begin(), row.end());
  EXPECT_TRUE(check::certify_distances(g, 0, dist).ok());
  // Corrupt one settled entry: the certificate must flag it.
  NodeId victim = 0;
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (dist[v] != kUnreachable && dist[v] > 0) victim = v;
  ASSERT_NE(victim, 0u);
  dist[victim] += 1;
  EXPECT_FALSE(check::certify_distances(g, 0, dist).ok());
}

TEST(MultiBfs, AuditHookSamplesEveryBatch) {
  // Ring + random chords: connected by construction (weighted_apl throws
  // on disconnected weighted pairs).
  Graph g(100);
  for (NodeId v = 0; v < 100; ++v) g.add_link(v, (v + 1) % 100);
  util::Rng rng(61);
  for (int i = 0; i < 200; ++i) {
    NodeId a = static_cast<NodeId>(rng.below(100));
    NodeId b = static_cast<NodeId>(rng.below(100));
    if (a != b) g.add_link(a, b);
  }
  static std::atomic<int> calls{0};
  static std::atomic<int> certified{0};
  calls = 0;
  certified = 0;
  set_distance_audit_hook([](const Graph& graph, NodeId source,
                             const std::vector<std::uint32_t>& dist) {
    calls.fetch_add(1);
    if (check::certify_distances(graph, source, dist).ok()) certified.fetch_add(1);
  });
  ASSERT_TRUE(is_connected(g));
  std::vector<std::uint32_t> weight(g.node_count(), 1);
  weighted_apl(g, weight, 0, 0);
  set_distance_audit_hook(nullptr);
  // 100 sources at batch width 64 -> 2 batches, each sampled once.
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(certified.load(), calls.load());
}

// -- concurrency regression (run under the tsan preset, label `bitbfs`) -----

// The lazy-CSR double-checked lock must publish a *rebuilt* index to
// readers that race on the first neighbors() call after an append
// (add_link/add_nodes, the only invalidations a Graph has). The append
// itself happens-before the reader threads (thread creation), per the
// documented contract.
TEST(LazyCsr, ConcurrentReadAfterMutateIsRaceFree) {
  Graph g = random_graph(24, 60, 13);
  g.ensure_csr();  // built once, so every round's append invalidates it

  util::Rng rng(13);
  for (int round = 0; round < 8; ++round) {
    if (round % 3 == 2) g.add_nodes(1);
    NodeId a = static_cast<NodeId>(rng.below(g.node_count() - 1));
    g.add_link(a, static_cast<NodeId>(g.node_count() - 1));
    // Readers race each other on the lazily rebuilt CSR.
    auto reader = [&g]() {
      for (NodeId s = 0; s < g.node_count(); s += 3) {
        auto dist = bfs_distances(g, s);
        ASSERT_EQ(dist.size(), g.node_count());
      }
    };
    std::thread t1(reader), t2(reader), t3(reader);
    t1.join();
    t2.join();
    t3.join();
    // The rebuilt view must match a graph that never had a stale CSR.
    Graph fresh(g.node_count());
    for (const Link& l : g.links()) fresh.add_link(l.a, l.b);
    for (NodeId s = 0; s < g.node_count(); ++s)
      ASSERT_EQ(bfs_distances(g, s), bfs_distances(fresh, s));
  }
}

}  // namespace
}  // namespace flattree::graph
