#include "sim/packet_sim.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "core/flat_tree.hpp"
#include "obs/metrics.hpp"
#include "routing/ecmp.hpp"
#include "te/wcmp.hpp"
#include "topo/fat_tree.hpp"
#include "workload/traffic.hpp"

namespace flattree::sim {
namespace {

struct Fixture {
  topo::FatTree ft = topo::build_fat_tree(4);
  routing::EcmpRouting routing{ft.topo.graph()};
  routing::Fib fib =
      routing::compile_fib(ft.topo, routing, routing::all_server_pairs(ft.topo));
};

std::uint64_t counter_value(const std::string& name) {
  for (const auto& [key, value] : obs::snapshot_metrics().counters)
    if (key == name) return value;
  return 0;
}

TEST(PacketSim, SinglePacketDelayClosedForm) {
  Fixture fx;
  PacketSimConfig cfg;
  cfg.propagation_delay = 0.01;
  PacketSimulator sim(fx.ft.topo, fx.fib, cfg);
  // Inter-pod path: 4 switch hops; delay = 4 * (1/cap + prop).
  auto stats = sim.run({{fx.ft.server(0, 0, 0), fx.ft.server(1, 0, 0), 1, 0.0}});
  EXPECT_EQ(stats.injected, 1u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_NEAR(stats.mean_delay, 4 * (1.0 + 0.01), 1e-9);
}

TEST(PacketSim, SameSwitchDeliveryIsImmediate) {
  Fixture fx;
  PacketSimulator sim(fx.ft.topo, fx.fib);
  auto stats = sim.run({{fx.ft.server(0, 0, 0), fx.ft.server(0, 0, 1), 1, 0.0}});
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_delay, 0.0);  // no switch hops in the fabric
}

TEST(PacketSim, TrainQueuesBehindItself) {
  Fixture fx;
  PacketSimConfig cfg;
  cfg.propagation_delay = 0.0;
  cfg.nic_rate = 10.0;  // injection faster than the 1.0-capacity links
  cfg.queue_packets = 0;  // infinite queues
  PacketSimulator sim(fx.ft.topo, fx.fib, cfg);
  auto stats = sim.run({{fx.ft.server(0, 0, 0), fx.ft.server(1, 0, 0), 10, 0.0}});
  EXPECT_EQ(stats.delivered, 10u);
  // First packet: 4 hops x 1.0; last packet injected at 0.9 but serialized
  // behind 9 predecessors on the first link: leaves hop1 at 10, arrives
  // after 3 more hops at 13 -> delay 12.1; mean grows beyond the base 4.
  EXPECT_GT(stats.mean_delay, 4.0);
  EXPECT_NEAR(stats.max_delay, 13.0 - 0.9, 1e-9);
}

TEST(PacketSim, FiniteQueuesDropTail) {
  Fixture fx;
  PacketSimConfig cfg;
  cfg.nic_rate = 100.0;  // slam the first queue
  cfg.queue_packets = 4;
  PacketSimulator sim(fx.ft.topo, fx.fib, cfg);
  auto stats = sim.run({{fx.ft.server(0, 0, 0), fx.ft.server(1, 0, 0), 50, 0.0}});
  EXPECT_EQ(stats.injected, 50u);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_EQ(stats.delivered + stats.dropped, 50u);
  EXPECT_GT(stats.loss_rate(), 0.0);
}

TEST(PacketSim, DisjointFlowsDontInterfere) {
  Fixture fx;
  PacketSimConfig cfg;
  cfg.propagation_delay = 0.0;
  PacketSimulator sim(fx.ft.topo, fx.fib, cfg);
  // Two flows inside different pods, entirely disjoint paths.
  auto stats = sim.run({{fx.ft.server(0, 0, 0), fx.ft.server(0, 1, 0), 5, 0.0},
                        {fx.ft.server(2, 0, 0), fx.ft.server(2, 1, 0), 5, 0.0}});
  EXPECT_EQ(stats.delivered, 10u);
  // Intra-pod: 2 hops; NIC-paced injection (gap 1.0) matches link rate so
  // no queueing: every packet sees exactly 2.0.
  EXPECT_NEAR(stats.mean_delay, 2.0, 1e-9);
  EXPECT_NEAR(stats.max_delay, 2.0, 1e-9);
}

TEST(PacketSim, DeterministicAcrossRuns) {
  Fixture fx;
  PacketSimulator sim(fx.ft.topo, fx.fib);
  std::vector<PacketFlow> flows;
  for (std::uint32_t s = 0; s < 8; ++s)
    flows.push_back({s, static_cast<topo::ServerId>(15 - s), 6, 0.05 * s});
  auto a = sim.run(flows);
  auto b = sim.run(flows);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_DOUBLE_EQ(a.mean_delay, b.mean_delay);
  EXPECT_DOUBLE_EQ(a.finish_time, b.finish_time);
}

TEST(PacketSim, AllPacketsAccountedUnderLoad) {
  Fixture fx;
  PacketSimConfig cfg;
  cfg.queue_packets = 8;
  cfg.nic_rate = 4.0;
  PacketSimulator sim(fx.ft.topo, fx.fib, cfg);
  std::vector<PacketFlow> flows;
  for (std::uint32_t s = 0; s < 16; ++s)
    flows.push_back({s, static_cast<topo::ServerId>((s + 5) % 16), 20, 0.0});
  auto stats = sim.run(flows);
  EXPECT_EQ(stats.injected, 320u);
  EXPECT_EQ(stats.delivered + stats.dropped, stats.injected);
  EXPECT_GT(stats.finish_time, 0.0);
}

TEST(PacketSim, ErrorCases) {
  Fixture fx;
  PacketSimulator sim(fx.ft.topo, fx.fib);
  EXPECT_THROW(sim.run({}), std::invalid_argument);
  EXPECT_THROW(sim.run({{3, 3, 1, 0.0}}), std::invalid_argument);
  PacketSimConfig bad;
  bad.packet_size = 0.0;
  EXPECT_THROW(PacketSimulator(fx.ft.topo, fx.fib, bad), std::invalid_argument);
}

TEST(PacketSim, MissingFibRouteThrows) {
  Fixture fx;
  routing::Fib empty(fx.ft.topo.switch_count());
  PacketSimulator sim(fx.ft.topo, empty);
  EXPECT_THROW(sim.run({{fx.ft.server(0, 0, 0), fx.ft.server(1, 0, 0), 1, 0.0}}),
               std::runtime_error);
}

/// Runs `fn` and returns the message of the exception of type E it throws
/// ("" when it throws nothing; any other exception type escapes).
template <class E, class Fn>
std::string thrown(Fn fn) {
  try {
    fn();
  } catch (const E& e) {
    return e.what();
  }
  return "";
}

TEST(PacketSim, FibSmallerThanTopologyIsAMissingRoute) {
  // A table sized for fewer switches than the fabric has no rules at the
  // switches past its end: the documented runtime_error, not the
  // out_of_range a bounds-checked lookup would leak.
  Fixture fx;
  const PacketFlow flow{fx.ft.server(0, 0, 0), fx.ft.server(1, 0, 0), 1, 0.0};
  routing::Fib short_fib(1);
  PacketSimulator ecmp(fx.ft.topo, short_fib);
  EXPECT_EQ(thrown<std::runtime_error>([&] { ecmp.run({flow}); }),
            "PacketSimulator: FIB has no route for a flow's pair");
  te::WeightedFib short_wfib(1);
  PacketSimulator wcmp(fx.ft.topo, short_wfib);
  PacketSimConfig windowed;
  windowed.ecn = true;
  PacketSimulator wcmp_windowed(fx.ft.topo, short_wfib, windowed);
  EXPECT_EQ(thrown<std::runtime_error>([&] { wcmp.run({flow}); }),
            "PacketSimulator: FIB has no route for a flow's pair");
  EXPECT_EQ(thrown<std::runtime_error>([&] { wcmp_windowed.run({flow}); }),
            "PacketSimulator: FIB has no route for a flow's pair");
}

TEST(PacketSim, UnknownServerRejectedBeforeAnyWork) {
  Fixture fx;
  PacketSimulator sim(fx.ft.topo, fx.fib);
  const auto servers = static_cast<topo::ServerId>(fx.ft.topo.server_count());
  const bool before = obs::enabled();
  obs::set_enabled(true);
  const std::uint64_t events0 = counter_value("sim.packet.events_processed");
  const std::uint64_t injected0 = counter_value("sim.packet.injected");
  // The valid first flow must not move a packet: validation precedes work.
  EXPECT_EQ(thrown<std::invalid_argument>([&] {
              sim.run({{0, 5, 4, 0.0}, {0, servers, 1, 0.0}});
            }),
            "PacketSimulator: flow names a server outside the topology");
  EXPECT_EQ(thrown<std::invalid_argument>([&] { sim.run({{servers + 7, 0, 1, 0.0}}); }),
            "PacketSimulator: flow names a server outside the topology");
  EXPECT_EQ(counter_value("sim.packet.events_processed"), events0);
  EXPECT_EQ(counter_value("sim.packet.injected"), injected0);
  obs::set_enabled(before);
}

TEST(PacketSim, FibRuleOnForeignLinkRejectedAtConstruction) {
  Fixture fx;
  routing::Fib bad(fx.ft.topo.switch_count());
  bad.add_route(0, 1, static_cast<graph::LinkId>(fx.ft.topo.link_count()));
  EXPECT_THROW(PacketSimulator(fx.ft.topo, bad), std::invalid_argument);
}

// -- edge-case hardening (ISSUE 7 satellite) ---------------------------------

TEST(PacketSim, NothingDeliveredReportsZeroStats) {
  // Zero-packet flows are legal no-ops; with nothing injected every
  // delay/FCT statistic is a defined 0.0 rather than NaN.
  Fixture fx;
  PacketSimulator sim(fx.ft.topo, fx.fib);
  auto stats = sim.run({{fx.ft.server(0, 0, 0), fx.ft.server(1, 0, 0), 0, 0.0}});
  EXPECT_EQ(stats.injected, 0u);
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_delay, 0.0);
  EXPECT_DOUBLE_EQ(stats.p99_delay, 0.0);
  EXPECT_DOUBLE_EQ(stats.max_delay, 0.0);
  EXPECT_DOUBLE_EQ(stats.fct_mean, 0.0);
  EXPECT_DOUBLE_EQ(stats.fct_p50, 0.0);
  EXPECT_DOUBLE_EQ(stats.fct_p99, 0.0);
  EXPECT_DOUBLE_EQ(stats.fct_max, 0.0);
  EXPECT_DOUBLE_EQ(stats.loss_rate(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mark_rate(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_queue, 0.0);
  EXPECT_DOUBLE_EQ(stats.max_queue, 0.0);
}

TEST(PacketSim, InfiniteBuffersNeverDrop) {
  // queue_packets = 0 is the documented infinite-buffer mode: even a
  // severe incast cannot lose a packet, it only queues.
  Fixture fx;
  PacketSimConfig cfg;
  cfg.queue_packets = 0;
  cfg.nic_rate = 100.0;
  PacketSimulator sim(fx.ft.topo, fx.fib, cfg);
  std::vector<PacketFlow> flows;
  for (std::uint32_t s = 0; s < 8; ++s)
    flows.push_back({s, fx.ft.server(3, 1, 1), 25, 0.0});
  auto stats = sim.run(flows);
  EXPECT_EQ(stats.injected, 200u);
  EXPECT_EQ(stats.delivered, 200u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_GT(stats.max_queue, 16.0);  // far beyond any finite default
}

TEST(PacketSim, SrcEqualsDstRejectedEvenAmongValidFlows) {
  // Documented choice: src == dst flows are rejected (the fabric model has
  // nothing to simulate), not silently delivered at zero hops.
  Fixture fx;
  PacketSimulator sim(fx.ft.topo, fx.fib);
  EXPECT_THROW(sim.run({{fx.ft.server(0, 0, 0), fx.ft.server(1, 0, 0), 1, 0.0},
                        {5, 5, 1, 0.0}}),
               std::invalid_argument);
}

TEST(PacketSim, FctTracksLastPacketOfEachFlow) {
  Fixture fx;
  PacketSimConfig cfg;
  cfg.propagation_delay = 0.0;
  cfg.nic_rate = 1.0;
  PacketSimulator sim(fx.ft.topo, fx.fib, cfg);
  // Intra-pod 2-hop path at matched rates: packet p is injected at p and
  // delivered at p + 2, so a 5-packet flow started at 0 completes at 6.
  auto stats = sim.run({{fx.ft.server(0, 0, 0), fx.ft.server(0, 1, 0), 5, 0.0}});
  EXPECT_EQ(stats.delivered, 5u);
  EXPECT_NEAR(stats.fct_mean, 6.0, 1e-9);
  EXPECT_NEAR(stats.fct_p50, 6.0, 1e-9);
  EXPECT_NEAR(stats.fct_max, 6.0, 1e-9);
}

// -- golden byte identity ------------------------------------------------------
//
// One fixed instance pinned field by field (bit-equal doubles): flat-tree
// k=6 in global mode, ECMP and WCMP tables, the open and windowed loops,
// flowlets on (every open-loop packet re-hashes: the NIC gap 0.25 exceeds
// the 0.2 flowlet gap), a 6-packet queue that drops, and an incast whose
// twelve trains start at the same instant, so events tie on time and the
// FIFO sequence number decides their order. Any change to event order,
// forwarding choice or queue accounting moves at least one of these bits.

struct GoldenInstance {
  core::FlatTreeNetwork net{[] {
    core::FlatTreeConfig cfg;
    cfg.k = 6;
    return cfg;
  }()};
  topo::Topology topo = net.build(core::Mode::GlobalRandom);
  std::vector<std::pair<topo::NodeId, topo::NodeId>> pairs =
      routing::all_server_pairs(topo);
  routing::EcmpRouting ecmp{topo.graph()};
  routing::Fib fib = routing::compile_fib(topo, ecmp, pairs);
  routing::EcmpRouting ecmp_w{topo.graph()};
  te::WeightedFib wfib = te::compile_wcmp_paths(topo, ecmp_w, pairs);

  std::vector<PacketFlow> flows() const {
    const auto servers = static_cast<std::uint32_t>(topo.server_count());
    std::vector<PacketFlow> out;
    for (const auto& d : workload::incast_pattern(servers, 12, /*seed=*/3))
      out.push_back({d.src, d.dst, 20, 0.0});
    util::Rng rng(5);
    auto perm = workload::permutation_traffic(servers, rng);
    for (std::size_t i = 0; i < perm.size(); i += 3)
      out.push_back({perm[i].src, perm[i].dst, 8, 0.125 * static_cast<double>(i % 7)});
    return out;
  }

  static PacketSimConfig config(bool ecn) {
    PacketSimConfig cfg;
    cfg.nic_rate = 4.0;
    cfg.queue_packets = 6;
    cfg.propagation_delay = 0.01;
    cfg.flowlet_gap = 0.2;
    cfg.ecn = ecn;
    cfg.ecn_threshold = 3;
    cfg.ack_delay = 0.1;
    return cfg;
  }
};

/// Every PacketStats field of one run, plus the obs counter deltas it
/// billed (events_processed, injected, delivered, dropped).
struct Golden {
  const char* name;
  bool ecn;
  bool weighted;
  std::uint64_t injected, delivered, dropped;
  double mean_delay, max_delay, p99_delay, finish_time;
  double fct_mean, fct_p50, fct_p99, fct_max;
  std::uint64_t ecn_marked, window_cuts, flowlet_switches;
  double mean_queue, max_queue;
  std::uint64_t events;
};

constexpr Golden kGolden[] = {
    {"open-ecmp", false, false, 384u, 173u, 211u, 0x1.b8588ca321341p+2, 0x1.1851eb851eb85p+4,
     0x1.0d70a3d70a3d7p+4, 0x1.6051eb851eb85p+4, 0x1.610d2a6c405dap+3, 0x1.3ef5c28f5c28fp+3,
     0x1.5cp+4, 0x1.6051eb851eb85p+4, 0u, 0u, 354u, 0x1.7a781948b0fcdp+1, 0x1.8p+2, 983u},
    {"open-wcmp", false, true, 384u, 178u, 206u, 0x1.b49aa2b07f04fp+2, 0x1.1851eb851eb85p+4,
     0x1.113d70a3d70a3p+4, 0x1.6051eb851eb85p+4, 0x1.5177b3bacaae7p+3, 0x1.3947ae147ae14p+3,
     0x1.5bd70a3d70a3dp+4, 0x1.6051eb851eb85p+4, 0u, 0u, 354u, 0x1.74222cef3a8aap+1, 0x1.8p+2,
     987u},
    {"windowed-ecmp", true, false, 384u, 319u, 65u, 0x1.6f50dc562840ep+2, 0x1.0451eb851eb85p+4,
     0x1.c460aa64c2f8p+3, 0x1.751eb851eb853p+6, 0x1.07103e256dd0ap+5, 0x1.a8f5c28f5c28fp+3,
     0x1.707e90ff97248p+6, 0x1.751eb851eb853p+6, 164u, 182u, 354u, 0x1.bfdf2a94c70dep+0,
     0x1.8p+2, 1936u},
    {"windowed-wcmp", true, true, 384u, 306u, 78u, 0x1.7459af0459aebp+2, 0x1.0851eb851eb85p+4,
     0x1.efd70a3d70a3ap+3, 0x1.49a3d70a3d70cp+6, 0x1.d5b5d9289b5d8p+4, 0x1.8947ae147ae14p+3,
     0x1.3e00d1b71758ep+6, 0x1.49a3d70a3d70cp+6, 150u, 178u, 354u, 0x1.cf2094f2094f2p+0,
     0x1.8p+2, 1921u},
};

void expect_bits(double actual, double expected, const char* field, const char* run) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual), std::bit_cast<std::uint64_t>(expected))
      << run << "." << field << ": " << actual << " vs pinned " << expected;
}

TEST(PacketSim, GoldenStatsAreBitExact) {
  GoldenInstance gi;
  const auto flows = gi.flows();
  const bool before = obs::enabled();
  obs::set_enabled(true);
  for (const Golden& g : kGolden) {
    const std::uint64_t events0 = counter_value("sim.packet.events_processed");
    const std::uint64_t injected0 = counter_value("sim.packet.injected");
    const std::uint64_t delivered0 = counter_value("sim.packet.delivered");
    const std::uint64_t dropped0 = counter_value("sim.packet.dropped");
    const PacketStats s =
        g.weighted ? PacketSimulator(gi.topo, gi.wfib, GoldenInstance::config(g.ecn)).run(flows)
                   : PacketSimulator(gi.topo, gi.fib, GoldenInstance::config(g.ecn)).run(flows);
    EXPECT_EQ(s.injected, g.injected) << g.name;
    EXPECT_EQ(s.delivered, g.delivered) << g.name;
    EXPECT_EQ(s.dropped, g.dropped) << g.name;
    expect_bits(s.mean_delay, g.mean_delay, "mean_delay", g.name);
    expect_bits(s.max_delay, g.max_delay, "max_delay", g.name);
    expect_bits(s.p99_delay, g.p99_delay, "p99_delay", g.name);
    expect_bits(s.finish_time, g.finish_time, "finish_time", g.name);
    expect_bits(s.fct_mean, g.fct_mean, "fct_mean", g.name);
    expect_bits(s.fct_p50, g.fct_p50, "fct_p50", g.name);
    expect_bits(s.fct_p99, g.fct_p99, "fct_p99", g.name);
    expect_bits(s.fct_max, g.fct_max, "fct_max", g.name);
    EXPECT_EQ(s.ecn_marked, g.ecn_marked) << g.name;
    EXPECT_EQ(s.window_cuts, g.window_cuts) << g.name;
    EXPECT_EQ(s.flowlet_switches, g.flowlet_switches) << g.name;
    expect_bits(s.mean_queue, g.mean_queue, "mean_queue", g.name);
    expect_bits(s.max_queue, g.max_queue, "max_queue", g.name);
    EXPECT_EQ(counter_value("sim.packet.events_processed") - events0, g.events) << g.name;
    EXPECT_EQ(counter_value("sim.packet.injected") - injected0, g.injected) << g.name;
    EXPECT_EQ(counter_value("sim.packet.delivered") - delivered0, g.delivered) << g.name;
    EXPECT_EQ(counter_value("sim.packet.dropped") - dropped0, g.dropped) << g.name;
  }
  obs::set_enabled(before);
}

// -- ECMP is WCMP with unit weights -------------------------------------------
//
// The simulator keeps one table for both FIB types on the strength of this
// property: a WeightedFib holding every ECMP hop at weight 1, in the same
// order, selects exactly what the Fib selects, so both forward alike.

te::WeightedFib unit_weights(const routing::Fib& fib) {
  te::WeightedFib out(fib.switch_count());
  for (topo::NodeId at = 0; at < fib.switch_count(); ++at)
    fib.for_each_entry(at, [&](topo::NodeId dst, const std::vector<graph::LinkId>& hops) {
      for (graph::LinkId link : hops) out.add_route(at, dst, link, 1);
    });
  return out;
}

void expect_same_stats(const PacketStats& a, const PacketStats& b, const char* run) {
  EXPECT_EQ(a.injected, b.injected) << run;
  EXPECT_EQ(a.delivered, b.delivered) << run;
  EXPECT_EQ(a.dropped, b.dropped) << run;
  expect_bits(a.mean_delay, b.mean_delay, "mean_delay", run);
  expect_bits(a.max_delay, b.max_delay, "max_delay", run);
  expect_bits(a.p99_delay, b.p99_delay, "p99_delay", run);
  expect_bits(a.finish_time, b.finish_time, "finish_time", run);
  expect_bits(a.fct_mean, b.fct_mean, "fct_mean", run);
  expect_bits(a.fct_p50, b.fct_p50, "fct_p50", run);
  expect_bits(a.fct_p99, b.fct_p99, "fct_p99", run);
  expect_bits(a.fct_max, b.fct_max, "fct_max", run);
  EXPECT_EQ(a.ecn_marked, b.ecn_marked) << run;
  EXPECT_EQ(a.window_cuts, b.window_cuts) << run;
  EXPECT_EQ(a.flowlet_switches, b.flowlet_switches) << run;
  expect_bits(a.mean_queue, b.mean_queue, "mean_queue", run);
  expect_bits(a.max_queue, b.max_queue, "max_queue", run);
}

void expect_ecmp_equals_unit_wcmp(const topo::Topology& t) {
  routing::EcmpRouting ecmp(t.graph());
  const auto pairs = routing::all_server_pairs(t);
  const routing::Fib fib = routing::compile_fib(t, ecmp, pairs);
  const te::WeightedFib wfib = unit_weights(fib);
  ASSERT_EQ(wfib.rule_count(), fib.rule_count());
  ASSERT_EQ(wfib.entry_count(), fib.entry_count());

  std::vector<std::uint64_t> salts;
  for (std::uint64_t s = 0; s < 64; ++s) salts.push_back(s);
  util::Rng rng(11);
  for (int i = 0; i < 64; ++i) salts.push_back(rng());
  std::size_t checked = 0;
  for (topo::NodeId at = 0; at < t.switch_count(); ++at)
    for (topo::NodeId dst = 0; dst < t.switch_count(); ++dst) {
      if (fib.next_hops(at, dst).empty()) continue;
      for (std::uint64_t salt : salts) {
        ASSERT_EQ(fib.select(at, dst, salt), wfib.select(at, dst, salt))
            << "at " << at << " dst " << dst << " salt " << salt;
        ++checked;
      }
    }
  EXPECT_EQ(checked, fib.entry_count() * salts.size());

  const auto servers = static_cast<std::uint32_t>(t.server_count());
  std::vector<PacketFlow> flows;
  for (const auto& d : workload::incast_pattern(servers, servers / 2, /*seed=*/9))
    flows.push_back({d.src, d.dst, 12, 0.0});
  util::Rng perm_rng(4);
  for (const auto& d : workload::permutation_traffic(servers, perm_rng))
    flows.push_back({d.src, d.dst, 6, 0.25});
  for (bool ecn : {false, true}) {
    PacketSimConfig cfg = GoldenInstance::config(ecn);
    expect_same_stats(PacketSimulator(t, fib, cfg).run(flows),
                      PacketSimulator(t, wfib, cfg).run(flows), ecn ? "windowed" : "open");
  }
}

TEST(PacketSim, EcmpEqualsUnitWeightWcmpOnFatTree) {
  expect_ecmp_equals_unit_wcmp(topo::build_fat_tree(4).topo);
}

TEST(PacketSim, EcmpEqualsUnitWeightWcmpOnFlatTree) {
  core::FlatTreeConfig cfg;
  cfg.k = 6;
  core::FlatTreeNetwork net(cfg);
  expect_ecmp_equals_unit_wcmp(net.build(core::Mode::GlobalRandom));
}

}  // namespace
}  // namespace flattree::sim
