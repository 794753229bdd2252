#include "sim/packet_sim.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "te/flowlet.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace flattree::sim {

namespace {

obs::Counter c_pkt_events("sim.packet.events_processed");
obs::Counter c_pkt_injected("sim.packet.injected");
obs::Counter c_pkt_delivered("sim.packet.delivered");
obs::Counter c_pkt_dropped("sim.packet.dropped");
obs::Histogram h_pkt_delay("sim.packet.delay",
                           obs::Histogram::exponential_bounds(1e-7, 4.0, 16));
obs::Counter c_ecn_marked("sim.ecn.marked");
obs::Counter c_ecn_window_cuts("sim.ecn.window_cuts");
obs::Counter c_flowlet_switches("sim.flowlet.switches");

/// One packet in the fabric. `row` is its destination's row in the dense
/// forwarding table.
struct Packet {
  std::uint64_t salt = 0;         ///< flowlet-salted id fed to the FIB hash
  double injected_at = 0.0;
  std::uint32_t flow = 0;         ///< index into the flow table
  topo::NodeId dst_switch = 0;
  std::size_t row = 0;
  bool marked = false;            ///< ECN CE bit (set at a hot queue)
  bool dropped = false;
};

/// Event kinds of the windowed (ECN) loop; the open loop only uses Arrive.
enum class EventKind : std::uint8_t { Arrive, Credit, Inject };

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  ///< FIFO tie-break for determinism
  EventKind kind = EventKind::Arrive;
  topo::NodeId at = 0;    ///< switch the packet arrives at (Arrive only)
  std::size_t idx = 0;    ///< packet slot (Arrive/Credit) or flow index (Inject)

  bool operator>(const Event& o) const {
    if (time != o.time) return time > o.time;
    return seq > o.seq;
  }
};

using EventHeap = std::priority_queue<Event, std::vector<Event>, std::greater<>>;

/// Per-directed-arc transmit state: when the line frees up, and a FIFO of
/// the times the packets it accepted reach the far end (store-and-forward:
/// a packet occupies the queue until received). Arrivals on one arc never
/// decrease, so the entries at or before `now` are a prefix; retiring it
/// when the arc is next entered gives the occupancy a global drain heap
/// would have at that instant.
class ArcQueue {
 public:
  double busy_until = 0.0;

  /// Occupancy at `now`, after retiring every arrival at or before it.
  std::size_t occupancy(double now) {
    while (size_ != 0 && ring_[head_] <= now) {
      head_ = (head_ + 1) & (ring_.size() - 1);
      --size_;
    }
    return size_;
  }

  void push(double arrive) {
    if (size_ == ring_.size()) grow();
    ring_[(head_ + size_) & (ring_.size() - 1)] = arrive;
    ++size_;
  }

 private:
  void grow() {
    std::vector<double> next(std::max<std::size_t>(8, 2 * ring_.size()));
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    ring_.swap(next);
    head_ = 0;
  }

  std::vector<double> ring_;  ///< power-of-two capacity (or empty)
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Queue-occupancy sampling shared by both loops (sampled at each arc
/// arrival, before the drop decision).
struct QueueSampler {
  double sum = 0.0;
  double peak = 0.0;
  std::uint64_t samples = 0;

  void sample(std::size_t queued) {
    sum += static_cast<double>(queued);
    peak = std::max(peak, static_cast<double>(queued));
    ++samples;
  }
  void finalize(PacketStats& stats) const {
    stats.mean_queue = samples ? sum / static_cast<double>(samples) : 0.0;
    stats.max_queue = peak;
  }
};

/// Distribution wrap-up shared by both loops: per-packet delay and
/// per-flow completion-time percentiles (all 0.0 when nothing qualifies).
void finalize_distributions(PacketStats& stats, std::vector<double>& delays,
                            const std::vector<PacketFlow>& flows,
                            const std::vector<double>& last_delivery) {
  if (!delays.empty()) {
    util::Distribution dist(std::move(delays));
    stats.mean_delay = dist.mean();
    stats.max_delay = dist.quantile(1.0);
    stats.p99_delay = dist.quantile(0.99);
  }
  std::vector<double> fcts;
  fcts.reserve(flows.size());
  for (std::size_t f = 0; f < flows.size(); ++f)
    if (last_delivery[f] >= 0.0) fcts.push_back(last_delivery[f] - flows[f].start);
  if (!fcts.empty()) {
    util::Distribution dist(std::move(fcts));
    stats.fct_mean = dist.mean();
    stats.fct_p50 = dist.quantile(0.50);
    stats.fct_p99 = dist.quantile(0.99);
    stats.fct_max = dist.quantile(1.0);
  }
}

/// Bills one run's counts to obs (once per run, not per event) and
/// observes every delivery delay, in delivery order.
void bill(const PacketStats& stats, std::uint64_t events,
          const std::vector<double>& delays) {
  if (!obs::enabled()) return;
  c_pkt_events.add(events);
  c_pkt_injected.add(stats.injected);
  c_pkt_delivered.add(stats.delivered);
  c_pkt_dropped.add(stats.dropped);
  c_ecn_marked.add(stats.ecn_marked);
  c_ecn_window_cuts.add(stats.window_cuts);
  c_flowlet_switches.add(stats.flowlet_switches);
  for (double delay : delays) h_pkt_delay.observe(delay);
}

graph::LinkId hop_link(graph::LinkId link) { return link; }
std::uint32_t hop_weight(graph::LinkId) { return 1; }
graph::LinkId hop_link(const te::WeightedHop& hop) { return hop.link; }
std::uint32_t hop_weight(const te::WeightedHop& hop) { return hop.weight; }

}  // namespace

PacketSimulator::PacketSimulator(const topo::Topology& topo, const routing::Fib& fib,
                                 PacketSimConfig config)
    : topo_(topo), config_(config) {
  validate_config();
  compile(fib);
}

PacketSimulator::PacketSimulator(const topo::Topology& topo, const te::WeightedFib& fib,
                                 PacketSimConfig config)
    : topo_(topo), config_(config) {
  validate_config();
  compile(fib);
}

void PacketSimulator::validate_config() const {
  if (config_.packet_size <= 0 || config_.nic_rate <= 0)
    throw std::invalid_argument("PacketSimulator: non-positive packet size or NIC rate");
  if (config_.init_cwnd == 0)
    throw std::invalid_argument("PacketSimulator: init_cwnd must be positive");
}

template <class Table>
void PacketSimulator::compile(const Table& fib) {
  const graph::Graph& g = topo_.graph();
  const std::size_t switches = topo_.switch_count();
  arcs_.resize(2 * g.link_count());
  for (graph::LinkId link = 0; link < g.link_count(); ++link) {
    const graph::Link& l = g.link(link);
    const double service = config_.packet_size / l.capacity;
    arcs_[2 * link] = {service, l.b};      // leaving from a
    arcs_[2 * link + 1] = {service, l.a};  // leaving from anywhere else
  }

  // Rows exist only for destinations the FIB routes to, in order of first
  // sight (one pass over the FIB). Row 0 stays empty and serves every
  // other destination and every switch past the FIB's size, so a miss is a
  // zero-count entry rather than a branch on the row.
  const std::size_t covered = std::min(switches, fib.switch_count());
  dst_row_.assign(switches, 0);
  entries_.assign(switches, Entry{});
  for (topo::NodeId at = 0; at < covered; ++at)
    fib.for_each_entry(at, [&](topo::NodeId dst, const auto& hops) {
      if (dst >= switches) return;
      if (dst_row_[dst] == 0) {
        dst_row_[dst] = entries_.size();
        entries_.resize(entries_.size() + switches);
      }
      Entry& entry = entries_[dst_row_[dst] + at];
      entry.begin = static_cast<std::uint32_t>(rules_.size());
      for (const auto& hop : hops) {
        const std::uint32_t weight = hop_weight(hop);
        if (weight == 0) continue;  // never selected by WeightedFib::select
        const graph::LinkId link = hop_link(hop);
        if (link >= g.link_count())
          throw std::invalid_argument(
              "PacketSimulator: FIB rule names a link outside the topology");
        const std::uint32_t arc = 2 * link + (g.link(link).a == at ? 0 : 1);
        rules_.push_back({arc, weight});
        entry.total += weight;
      }
      entry.count = static_cast<std::uint32_t>(rules_.size()) - entry.begin;
    });
}

std::uint32_t PacketSimulator::route(topo::NodeId at, topo::NodeId dst, std::size_t row,
                                     std::uint64_t salt) const {
  const Entry& entry = entries_[row + at];
  if (entry.count == 0)
    throw std::runtime_error("PacketSimulator: FIB has no route for a flow's pair");
  const std::uint64_t h = util::mix64(salt ^ ((static_cast<std::uint64_t>(at) << 32) | dst));
  const Rule* rule = rules_.data() + entry.begin;
  if (entry.total == entry.count) return rule[h % entry.count].arc;
  std::uint64_t point = h % entry.total;
  while (point >= rule->weight) {
    point -= rule->weight;
    ++rule;
  }
  return rule->arc;
}

PacketStats PacketSimulator::run(const std::vector<PacketFlow>& flows) {
  if (flows.empty()) throw std::invalid_argument("PacketSimulator::run: no flows");
  const std::size_t servers = topo_.server_count();
  for (const PacketFlow& flow : flows) {
    if (flow.src >= servers || flow.dst >= servers)
      throw std::invalid_argument("PacketSimulator: flow names a server outside the topology");
    if (flow.src == flow.dst)
      throw std::invalid_argument("PacketSimulator: src == dst");
  }
  OBS_SPAN("sim.packet.run");
  return config_.ecn ? run_windowed(flows) : run_open_loop(flows);
}

PacketStats PacketSimulator::run_open_loop(const std::vector<PacketFlow>& flows) {
  std::vector<ArcQueue> arc_queue(arcs_.size());
  EventHeap events;
  std::uint64_t processed = 0;

  PacketStats stats;
  std::vector<double> delays;
  std::vector<double> last_delivery(flows.size(), -1.0);
  QueueSampler queues;
  te::FlowletTable flowlets(config_.flowlet_gap);

  // Every packet enters its source host switch at NIC pace. Flowlet salts
  // are a per-flow function of the injection times, assigned here flow by
  // flow; the packet list is flow-major, so packet i's injection has seq i.
  const double injection_gap = config_.packet_size / config_.nic_rate;
  std::vector<Packet> packets;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const PacketFlow& flow = flows[f];
    Packet pkt;
    pkt.flow = static_cast<std::uint32_t>(f);
    pkt.dst_switch = topo_.host(flow.dst);
    pkt.row = dst_row_[pkt.dst_switch];
    for (std::uint32_t p = 0; p < flow.packets; ++p) {
      pkt.injected_at = flow.start + static_cast<double>(p) * injection_gap;
      pkt.salt = flowlets.salt(f, pkt.injected_at);
      packets.push_back(pkt);
    }
  }
  stats.injected = packets.size();

  // One pending injection per flow; popping it schedules the flow's next.
  for (std::size_t first = 0; first < packets.size();) {
    const std::size_t f = packets[first].flow;
    events.push({packets[first].injected_at, first, EventKind::Arrive, topo_.host(flows[f].src),
                 first});
    first += flows[f].packets;
  }
  std::uint64_t seq = packets.size();

  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    ++processed;
    if (ev.seq < packets.size()) {
      const std::size_t next = ev.idx + 1;
      if (next < packets.size() && packets[next].flow == packets[ev.idx].flow)
        events.push({packets[next].injected_at, next, EventKind::Arrive, ev.at, next});
    }
    const Packet& pkt = packets[ev.idx];

    if (ev.at == pkt.dst_switch) {
      ++stats.delivered;
      delays.push_back(ev.time - pkt.injected_at);
      last_delivery[pkt.flow] = std::max(last_delivery[pkt.flow], ev.time);
      stats.finish_time = std::max(stats.finish_time, ev.time);
      continue;
    }

    const std::uint32_t arc = route(ev.at, pkt.dst_switch, pkt.row, pkt.salt);
    ArcQueue& queue = arc_queue[arc];
    const std::size_t queued = queue.occupancy(ev.time);
    queues.sample(queued);

    if (config_.queue_packets != 0 && queued >= config_.queue_packets) {
      ++stats.dropped;
      stats.finish_time = std::max(stats.finish_time, ev.time);
      continue;
    }
    const double depart = std::max(ev.time, queue.busy_until) + arcs_[arc].service;
    queue.busy_until = depart;
    const double arrive = depart + config_.propagation_delay;
    queue.push(arrive);
    events.push({arrive, seq++, EventKind::Arrive, arcs_[arc].head, ev.idx});
  }

  stats.flowlet_switches = flowlets.switches();
  queues.finalize(stats);
  bill(stats, processed, delays);
  finalize_distributions(stats, delays, flows, last_delivery);
  return stats;
}

PacketStats PacketSimulator::run_windowed(const std::vector<PacketFlow>& flows) {
  std::vector<ArcQueue> arc_queue(arcs_.size());
  EventHeap events;
  std::uint64_t seq = 0;
  std::uint64_t processed = 0;

  PacketStats stats;
  std::vector<double> delays;
  std::vector<double> last_delivery(flows.size(), -1.0);
  QueueSampler queues;
  te::FlowletTable flowlets(config_.flowlet_gap);

  // Packet slots live from injection to their Credit event, then return to
  // the free list, so the table holds at most the packets in flight.
  std::vector<Packet> packets;
  std::vector<std::size_t> free_slots;

  // DCTCP source state, one per flow. alpha starts at 1.0 (react strongly
  // to the first marked window, the conservative standard choice).
  struct FlowState {
    std::uint32_t sent = 0;
    std::uint32_t inflight = 0;
    std::uint32_t cwnd = 1;
    std::uint32_t window_size = 1;   ///< cwnd at the start of this window
    std::uint32_t window_acked = 0;
    std::uint32_t window_marked = 0;
    double alpha = 1.0;
    double nic_free = 0.0;
    bool inject_pending = false;     ///< an Inject event is already queued
  };
  std::vector<FlowState> state(flows.size());
  const double injection_gap = config_.packet_size / config_.nic_rate;

  for (std::size_t f = 0; f < flows.size(); ++f) {
    FlowState& fs = state[f];
    fs.cwnd = config_.init_cwnd;
    fs.window_size = fs.cwnd;
    fs.nic_free = flows[f].start;
    fs.inject_pending = true;
    events.push({flows[f].start, seq++, EventKind::Inject, 0, f});
  }

  // Sends one packet of flow f at `now` if the window and NIC allow, then
  // keeps an Inject event queued while more could be sent.
  auto pump = [&](std::size_t f, double now) {
    FlowState& fs = state[f];
    const PacketFlow& flow = flows[f];
    if (fs.sent < flow.packets && fs.inflight < fs.cwnd && fs.nic_free <= now) {
      Packet pkt;
      pkt.flow = static_cast<std::uint32_t>(f);
      pkt.salt = flowlets.salt(f, now);
      pkt.dst_switch = topo_.host(flow.dst);
      pkt.row = dst_row_[pkt.dst_switch];
      pkt.injected_at = now;
      std::size_t slot = packets.size();
      if (free_slots.empty()) {
        packets.push_back(pkt);
      } else {
        slot = free_slots.back();
        free_slots.pop_back();
        packets[slot] = pkt;
      }
      events.push({now, seq++, EventKind::Arrive, topo_.host(flow.src), slot});
      ++fs.sent;
      ++fs.inflight;
      fs.nic_free = now + injection_gap;
      ++stats.injected;
    }
    if (!fs.inject_pending && fs.sent < flow.packets && fs.inflight < fs.cwnd) {
      fs.inject_pending = true;
      events.push({std::max(now, fs.nic_free), seq++, EventKind::Inject, 0, f});
    }
  };

  // ACK/NACK bookkeeping at the source: the DCTCP loop proper. The packet's
  // slot is free once its fate is read.
  auto credit = [&](std::size_t slot, double now) {
    const std::size_t f = packets[slot].flow;
    const bool dropped = packets[slot].dropped;
    const bool marked = packets[slot].marked;
    free_slots.push_back(slot);
    FlowState& fs = state[f];
    --fs.inflight;
    if (dropped) {
      // Loss: multiplicative decrease and a fresh window (fast-retransmit
      // abstraction; the packet itself is not retransmitted).
      fs.cwnd = std::max(1u, fs.cwnd / 2);
      ++stats.window_cuts;
      fs.window_size = fs.cwnd;
      fs.window_acked = 0;
      fs.window_marked = 0;
    } else {
      ++fs.window_acked;
      if (marked) ++fs.window_marked;
      if (fs.window_acked >= fs.window_size) {
        double fraction = static_cast<double>(fs.window_marked) /
                          static_cast<double>(fs.window_acked);
        fs.alpha = (1.0 - config_.dctcp_gain) * fs.alpha + config_.dctcp_gain * fraction;
        if (fs.window_marked > 0) {
          fs.cwnd = std::max(
              1u, static_cast<std::uint32_t>(static_cast<double>(fs.cwnd) *
                                             (1.0 - fs.alpha / 2.0)));
          ++stats.window_cuts;
        } else {
          ++fs.cwnd;  // additive increase per clean window
        }
        fs.window_size = fs.cwnd;
        fs.window_acked = 0;
        fs.window_marked = 0;
      }
    }
    pump(f, now);
  };

  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    ++processed;

    if (ev.kind == EventKind::Inject) {
      state[ev.idx].inject_pending = false;
      pump(ev.idx, ev.time);
      continue;
    }
    if (ev.kind == EventKind::Credit) {
      credit(ev.idx, ev.time);
      continue;
    }

    Packet& pkt = packets[ev.idx];
    if (ev.at == pkt.dst_switch) {
      ++stats.delivered;
      delays.push_back(ev.time - pkt.injected_at);
      if (pkt.marked) ++stats.ecn_marked;
      last_delivery[pkt.flow] = std::max(last_delivery[pkt.flow], ev.time);
      stats.finish_time = std::max(stats.finish_time, ev.time);
      events.push({ev.time + config_.ack_delay, seq++, EventKind::Credit, 0, ev.idx});
      continue;
    }

    const std::uint32_t arc = route(ev.at, pkt.dst_switch, pkt.row, pkt.salt);
    ArcQueue& queue = arc_queue[arc];
    const std::size_t queued = queue.occupancy(ev.time);
    queues.sample(queued);

    if (config_.queue_packets != 0 && queued >= config_.queue_packets) {
      ++stats.dropped;
      pkt.dropped = true;
      stats.finish_time = std::max(stats.finish_time, ev.time);
      events.push({ev.time + config_.ack_delay, seq++, EventKind::Credit, 0, ev.idx});
      continue;
    }
    if (queued >= config_.ecn_threshold) pkt.marked = true;
    const double depart = std::max(ev.time, queue.busy_until) + arcs_[arc].service;
    queue.busy_until = depart;
    const double arrive = depart + config_.propagation_delay;
    queue.push(arrive);
    events.push({arrive, seq++, EventKind::Arrive, arcs_[arc].head, ev.idx});
  }

  stats.flowlet_switches = flowlets.switches();
  queues.finalize(stats);
  bill(stats, processed, delays);
  finalize_distributions(stats, delays, flows, last_delivery);
  return stats;
}

}  // namespace flattree::sim
