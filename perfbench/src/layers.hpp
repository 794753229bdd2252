#pragma once
// One adapter per flattree layer. Every call the benchmark makes into the
// library goes through here, wrapped in a span named "<layer>.<call>", so
// the traced run can attribute time to layers from outside.
//
// Only entry points that the library's planned refactors keep are bound:
// mcf::max_concurrent_flow, graph::weighted_apl, routing::compile_fib,
// te::compile_wcmp_paths, sim::PacketSimulator::run and svc::Service
// run/recover. Forwarding tables are taken as `auto` / template
// parameters, so folding the ECMP and WCMP table types into one does not
// touch the workloads.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "check/certify.hpp"
#include "check/routing_check.hpp"
#include "check/te_check.hpp"
#include "core/flat_tree.hpp"
#include "fault/fault.hpp"
#include "graph/metrics.hpp"
#include "harness.hpp"
#include "mcf/garg_koenemann.hpp"
#include "routing/ecmp.hpp"
#include "routing/fib.hpp"
#include "sim/packet_sim.hpp"
#include "svc/svc.hpp"
#include "te/wcmp.hpp"
#include "topo/fat_tree.hpp"
#include "topo/random_graph.hpp"
#include "workload/cluster.hpp"
#include "workload/traffic.hpp"

namespace perfbench::layers {

namespace ft = flattree;

// -- topo / core / workload: input construction -----------------------------

inline ft::topo::Topology fat_tree(std::uint32_t k) {
  ScopedSpan span("topo.build");
  return ft::topo::build_fat_tree(k).topo;
}

inline ft::topo::Topology jellyfish(std::uint32_t k, std::uint64_t seed) {
  ScopedSpan span("topo.build");
  ft::util::Rng rng = ft::util::Rng::substream(seed, 11);
  return ft::topo::build_jellyfish_like_fat_tree(k, rng);
}

/// The flat-tree plant with the paper's profiled (m, n).
inline ft::core::FlatTreeNetwork flat_tree_plant(std::uint32_t k) {
  ScopedSpan span("core.build");
  ft::core::FlatTreeConfig cfg;
  cfg.k = k;
  return ft::core::FlatTreeNetwork(cfg);
}

inline ft::topo::Topology flat_tree_mode(const ft::core::FlatTreeNetwork& net,
                                         ft::core::Mode mode) {
  ScopedSpan span("core.build");
  return net.build(mode);
}

/// Cluster traffic aggregated to switch-level commodities.
inline std::vector<ft::mcf::Commodity> cluster_commodities(
    const ft::topo::Topology& t, std::uint32_t cluster, ft::workload::Placement placement,
    ft::workload::Pattern pattern, std::uint32_t servers_per_pod, std::uint64_t seed) {
  ScopedSpan span("workload.demand");
  ft::util::Rng rng(seed);
  std::uint32_t total = static_cast<std::uint32_t>(t.server_count());
  auto clusters = ft::workload::make_clusters(total, std::min(cluster, total), placement,
                                              servers_per_pod, rng);
  auto demands = ft::workload::cluster_traffic(clusters, pattern, rng);
  return ft::mcf::aggregate_to_switches(t, demands);
}

inline std::vector<ft::mcf::ServerDemand> permutation(std::uint32_t servers,
                                                      std::uint64_t seed) {
  ScopedSpan span("workload.demand");
  ft::util::Rng rng = ft::util::Rng::substream(seed, 3);
  return ft::workload::permutation_traffic(servers, rng);
}

inline std::vector<ft::mcf::ServerDemand> incast(std::uint32_t servers, std::uint32_t sources,
                                                 std::uint64_t seed) {
  ScopedSpan span("workload.demand");
  return ft::workload::incast_pattern(servers, sources, seed);
}

inline ft::fault::Scenario fault_scenario(const ft::topo::Topology& clos,
                                          const ft::fault::ScenarioParams& params,
                                          std::size_t converters, std::uint32_t pods) {
  ScopedSpan span("fault.scenario");
  return ft::fault::generate_scenario(clos, params, converters, pods);
}

// -- mcf ----------------------------------------------------------------------

/// One certified-bracket solve. `span_name` tags the traffic pattern
/// ("mcf.solve.alltoall" / "mcf.solve.broadcast").
inline ft::mcf::McfResult max_concurrent_flow(const char* span_name,
                                              const ft::graph::Graph& g,
                                              const std::vector<ft::mcf::Commodity>& c,
                                              double epsilon) {
  ScopedSpan span(span_name);
  ft::mcf::McfOptions opt;
  opt.epsilon = epsilon;
  opt.compute_upper_bound = true;
  return ft::mcf::max_concurrent_flow(g, c, opt);
}

// -- fault / core: the live controller -----------------------------------------

inline ft::fault::EventOutcome on_event(ft::fault::ResilientController& ctl,
                                        const ft::fault::FaultEvent& e) {
  ScopedSpan span("fault.on_event");
  return ctl.on_event(e);
}

inline void begin_conversion(ft::fault::ResilientController& ctl,
                             const std::vector<ft::core::Mode>& target) {
  ScopedSpan span("fault.advance");
  ctl.begin_conversion(target);
}

inline std::size_t advance(ft::fault::ResilientController& ctl, std::size_t micro_txs) {
  ScopedSpan span("fault.advance");
  return ctl.advance(micro_txs);
}

inline ft::fault::DegradeResult degraded(const ft::fault::ResilientController& ctl) {
  ScopedSpan span("fault.degraded");
  return ctl.degraded();
}

inline ft::topo::Topology live_topology(const ft::fault::ResilientController& ctl) {
  ScopedSpan span("core.topology");
  return ctl.topology();
}

// -- graph ----------------------------------------------------------------------

/// Server-pair APL: switch hops + 2 attachment links, weighted by servers.
inline ft::graph::AplResult server_apl(const ft::graph::Graph& g,
                                       const std::vector<std::uint32_t>& servers) {
  ScopedSpan span("graph.apl");
  return ft::graph::weighted_apl(g, servers, /*offset=*/2, /*same_node_dist=*/2);
}

// -- routing / te -----------------------------------------------------------------

using SwitchPairs = std::vector<std::pair<ft::graph::NodeId, ft::graph::NodeId>>;

inline SwitchPairs server_pairs(const ft::topo::Topology& t) {
  ScopedSpan span("routing.pairs");
  return ft::routing::all_server_pairs(t);
}

/// ECMP table over every server switch pair (fresh path cache per call).
inline auto compile_ecmp(const ft::topo::Topology& t, const SwitchPairs& pairs) {
  ScopedSpan span("routing.compile");
  ft::routing::EcmpRouting ecmp(t.graph());
  return ft::routing::compile_fib(t, ecmp, pairs);
}

/// WCMP table from ECMP path multiplicities (fresh path cache per call).
inline auto compile_wcmp(const ft::topo::Topology& t, const SwitchPairs& pairs) {
  ScopedSpan span("te.compile");
  ft::routing::EcmpRouting ecmp(t.graph());
  return ft::te::compile_wcmp_paths(t, ecmp, pairs);
}

// -- sim ---------------------------------------------------------------------------

/// One DES run; `span_name` tags the congestion scheme.
template <class Fib>
inline ft::sim::PacketStats run_packets(const char* span_name, const ft::topo::Topology& t,
                                        const Fib& fib, const ft::sim::PacketSimConfig& cfg,
                                        const std::vector<ft::sim::PacketFlow>& flows) {
  ScopedSpan span(span_name);
  ft::sim::PacketSimulator simulator(t, fib, cfg);
  return simulator.run(flows);
}

// -- svc / durable -------------------------------------------------------------------

/// One request through the service: a one-line stream, so the request is
/// its own batch and the only one in flight.
inline std::string request(ft::svc::Service& service, const std::string& line) {
  ScopedSpan span("svc.request");
  std::istringstream in(line + "\n");
  std::ostringstream out;
  service.run(in, out);
  return out.str();
}

inline bool parse_request(const std::string& line, std::uint64_t seq) {
  ScopedSpan span("svc.parse");
  ft::svc::Request req;
  ft::svc::RequestError err;
  return ft::svc::parse_request(line, seq, req, err);
}

inline bool read_journal(const std::string& bytes, ft::svc::durable::JournalContents& out) {
  ScopedSpan span("durable.read_journal");
  ft::svc::durable::JournalError err;
  return ft::svc::durable::read_journal(bytes, out, err);
}

inline bool decode_snapshot(const std::string& bytes, ft::svc::durable::ServiceSnapshot& out) {
  ScopedSpan span("durable.decode_snapshot");
  ft::svc::durable::SnapshotError err;
  return ft::svc::durable::decode_snapshot(bytes, out, err);
}

inline bool recover(ft::svc::Service& fresh, const ft::svc::durable::ServiceSnapshot* snap,
                    const ft::svc::durable::JournalContents& journal) {
  ScopedSpan span("durable.recover");
  ft::svc::RecoverStats stats;
  std::string error;
  return fresh.recover(snap, journal, stats, error);
}

inline std::string encoded_state(const ft::svc::Service& service) {
  ScopedSpan span("durable.encode_snapshot");
  return ft::svc::durable::encode_snapshot(service.snapshot_state());
}

// -- check (outside every end-to-end interval) ------------------------------------------

inline std::size_t certify(const ft::graph::Graph& g, const std::vector<ft::mcf::Commodity>& c,
                           const ft::mcf::McfResult& r, double epsilon) {
  ScopedSpan span("check.certify");
  ft::check::CertifyOptions opt;
  opt.epsilon = epsilon;
  return ft::check::certify(g, c, r, opt).violations.size();
}

inline std::size_t self_check(const ft::fault::ResilientController& ctl) {
  ScopedSpan span("check.validate");
  return ctl.self_check().violations.size();
}

/// Model-checks a forwarding table of either kind with the Report-style
/// checker that accepts it.
template <class Fib>
inline std::size_t verify_fib(const ft::topo::Topology& t, const Fib& fib,
                              const SwitchPairs& pairs) {
  ScopedSpan span("check.fib_verify");
  if constexpr (requires { ft::check::validate_weighted_fib(t, fib, pairs); })
    return ft::check::validate_weighted_fib(t, fib, pairs).violations.size();
  else
    return ft::check::validate_fib_progress(t, fib, pairs).violations.size();
}

}  // namespace perfbench::layers
