#pragma once
// Discrete-event packet-level simulator.
//
// Complements the fluid flow-level simulator (sim/flow_sim.hpp) with
// queueing behavior: packets traverse the switch fabric hop by hop through
// per-direction output queues, forwarded by a compiled FIB
// (routing/fib.hpp) or weighted WCMP FIB (te/weighted_fib.hpp) with
// per-flow hashing — store-and-forward with finite buffers, so congestion
// shows up as queueing delay and tail drops rather than a fair-share rate.
//
// Traffic-engineering extensions (all deterministic discrete-event time,
// no wall clock; see DESIGN.md §11):
//
//   * Flowlet load balancing: with flowlet_gap > 0, a flow that pauses
//     longer than the gap re-hashes onto a fresh path salt
//     (te::FlowletTable) at the next injection.
//   * ECN / DCTCP congestion control: with ecn = true, queues mark packets
//     that arrive to an occupancy >= ecn_threshold; sources run a per-flow
//     congestion window with an alpha-EWMA of the marked fraction,
//     multiplicative decrease once per marked window, additive increase
//     otherwise, and a multiplicative cut on loss. With ecn = false the
//     simulator is the drop-tail baseline and behaves exactly as before
//     this layer existed (open-loop NIC-paced injection).
//
// Event order contract: events are processed in ascending (time, seq)
// order, where seq is unique, so the order is total and every run is a
// pure function of its inputs. In the open loop, packet i of the
// flow-major packet list (flow 0's train, then flow 1's, ...) is injected
// with seq i; forwarding events take seqs from the packet count upward in
// the order they are scheduled. The windowed loop numbers every event it
// schedules, starting with one Inject per flow in flow order.
//
// Hot path (no hashing beyond the flow hash itself):
//
//   * One dense forwarding table for both FIB types. The constructor
//     flattens the FIB into (destination, switch) -> rule spans; an ECMP
//     hop is a rule of weight 1, and for unit-weight entries the WCMP walk
//     `mix64(salt ^ (at << 32 | dst)) % total` picks exactly routing::Fib's
//     `hops[h % n]`, so either FIB forwards every packet as its own
//     select() would.
//   * Lazy injection: the open loop keeps one pending injection per flow
//     and schedules a flow's next packet when the previous one enters the
//     fabric, so the event heap holds O(flows + packets in flight) rather
//     than every packet of every train. Flowlet salts are still assigned
//     flow-major before the loop starts.
//   * Per-arc drains: each directed arc keeps a FIFO of the times its
//     accepted packets reach the far end. Arrivals on one arc are
//     non-decreasing, so retiring the FIFO's prefix at or before `now`
//     when the arc is next entered yields exactly the occupancy a global
//     drain heap would; occupancy is only ever read for the arc entered.
//
// Time units: a packet of size 1 takes 1/capacity time units to serialize
// onto a link of that capacity; propagation delay is per hop and constant.

#include <cstdint>
#include <vector>

#include "routing/fib.hpp"
#include "te/weighted_fib.hpp"
#include "topo/topology.hpp"

namespace flattree::sim {

/// Link, buffer, NIC and congestion-control parameters of one simulator.
struct PacketSimConfig {
  double packet_size = 1.0;       ///< serialization units per packet
  double propagation_delay = 0.01;///< per-hop propagation latency
  std::size_t queue_packets = 16; ///< per-output-queue capacity; 0 = infinite
  double nic_rate = 1.0;          ///< server injection rate (packets/size units)

  // -- traffic engineering (PR 7) ------------------------------------------
  double flowlet_gap = 0.0;       ///< idle gap starting a new flowlet; <= 0 off
  bool ecn = false;               ///< DCTCP loop on; false = drop-tail baseline
  std::size_t ecn_threshold = 8;  ///< mark at enqueue when occupancy >= K
  double dctcp_gain = 0.0625;     ///< g of the alpha-EWMA (DCTCP's 1/16)
  std::uint32_t init_cwnd = 8;    ///< initial per-flow congestion window
  double ack_delay = 0.0;         ///< delivery/drop feedback latency to source
};

/// A packet train: `packets` packets injected back-to-back at the source
/// NIC rate starting at `start` (window-clocked instead when ecn is on).
struct PacketFlow {
  topo::ServerId src = 0;
  topo::ServerId dst = 0;
  std::uint32_t packets = 1;
  double start = 0.0;
};

/// Aggregate outcome of one PacketSimulator::run.
struct PacketStats {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  double mean_delay = 0.0;  ///< injection-to-delivery, delivered packets (0 if none)
  double max_delay = 0.0;   ///< 0.0 when nothing is delivered
  double p99_delay = 0.0;   ///< 0.0 when nothing is delivered
  double finish_time = 0.0; ///< when the last packet left the network

  // -- flow completion times (per-flow last delivery minus start; flows
  //    with no delivered packet are excluded; all 0.0 when none qualify) --
  double fct_mean = 0.0;
  double fct_p50 = 0.0;
  double fct_p99 = 0.0;
  double fct_max = 0.0;

  // -- congestion signals ---------------------------------------------------
  std::uint64_t ecn_marked = 0;     ///< delivered packets marked at >= 1 hop
  std::uint64_t window_cuts = 0;    ///< multiplicative cwnd decreases
  std::uint64_t flowlet_switches = 0; ///< flowlet re-hashes
  double mean_queue = 0.0;          ///< occupancy sampled at each arc arrival
  double max_queue = 0.0;           ///< largest occupancy sampled

  double loss_rate() const {
    return injected ? static_cast<double>(dropped) / static_cast<double>(injected) : 0.0;
  }
  /// Fraction of delivered packets that carried an ECN mark.
  double mark_rate() const {
    return delivered ? static_cast<double>(ecn_marked) / static_cast<double>(delivered)
                     : 0.0;
  }
};

/// Store-and-forward packet simulation over one topology and one
/// forwarding table; run() may be called any number of times.
class PacketSimulator {
 public:
  /// `fib` must cover every (host(src), host(dst)) switch pair the flows
  /// use (compile via routing::compile_fib). The topology must outlive the
  /// simulator; the FIB is copied into the simulator's own table. Throws
  /// std::invalid_argument on a non-positive packet size or NIC rate, a
  /// zero init_cwnd, or a FIB rule naming a link outside the topology.
  PacketSimulator(const topo::Topology& topo, const routing::Fib& fib,
                  PacketSimConfig config = {});

  /// WCMP variant: forwarding choices come from the weighted FIB (compile
  /// via te::compile_wcmp_*). Same coverage/lifetime requirements;
  /// zero-weight rules are never taken, as in WeightedFib::select.
  PacketSimulator(const topo::Topology& topo, const te::WeightedFib& fib,
                  PacketSimConfig config = {});

  /// Runs all flows to completion (or drop) and returns aggregate stats.
  /// Deterministic for a given input ordering. Flows with src == dst are
  /// rejected (std::invalid_argument): the fabric model has nothing to
  /// simulate for them, and silently delivering at zero hops would skew
  /// delay statistics. So are flows naming a server the topology does not
  /// have, before any packet moves. Zero-packet flows are legal no-ops, so
  /// a run that delivers nothing reports every delay/FCT statistic as 0.0.
  /// A packet reaching a switch without a rule toward its destination
  /// throws std::runtime_error ("FIB has no route for a flow's pair").
  PacketStats run(const std::vector<PacketFlow>& flows);

 private:
  /// One rule of the dense table: the directed arc a packet enters
  /// (2 * link, plus 1 when it leaves from the link's `b` end) and the
  /// rule's weight (1 for every ECMP hop; never 0).
  struct Rule {
    std::uint32_t arc = 0;
    std::uint32_t weight = 0;
  };
  /// Rules of one (switch, destination) pair: rules_[begin, begin + count),
  /// weights summing to `total` (== count exactly when every weight is 1).
  struct Entry {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
    std::uint64_t total = 0;
  };
  /// Static per-arc data: serialization time and the node the arc enters.
  struct ArcInfo {
    double service = 0.0;
    topo::NodeId head = 0;
  };

  void validate_config() const;
  template <class Table>
  void compile(const Table& fib);
  /// Arc taken at `at` by a packet toward `dst` whose destination row
  /// starts at `row`; the hash and walk of Fib/WeightedFib::select.
  std::uint32_t route(topo::NodeId at, topo::NodeId dst, std::size_t row,
                      std::uint64_t salt) const;
  PacketStats run_open_loop(const std::vector<PacketFlow>& flows);
  PacketStats run_windowed(const std::vector<PacketFlow>& flows);

  const topo::Topology& topo_;
  PacketSimConfig config_;
  std::vector<ArcInfo> arcs_;           ///< indexed by directed arc
  std::vector<std::size_t> dst_row_;    ///< per switch: first entry of its row
  std::vector<Entry> entries_;          ///< rows of switch_count() entries
  std::vector<Rule> rules_;
};

}  // namespace flattree::sim
