#include "workloads.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "harness.hpp"
#include "layers.hpp"

namespace perfbench {

namespace ft = flattree;

namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  return seed * 1000003ull + a * 7919ull + b;
}

/// Runs `f` as one operation: a fresh span op id, and its latency timed
/// from outside the call.
template <class F>
auto timed(RoundOut& out, std::uint32_t kind, F&& f) {
  Tracer::get().next_op();
  double t0 = wall_ms();
  auto result = f();
  out.op_ms.push_back(wall_ms() - t0);
  out.op_kind.push_back(kind);
  return result;
}

// -- mcf-sweep ----------------------------------------------------------------
//
// Figure 7 style broadcast (one hot spot to a whole-fabric cluster) and
// figure 8 style all-to-all in 20-server clusters under weak locality, on
// fat-tree, flat-tree local/global and Jellyfish. One operation is one
// certified-bracket max-concurrent-flow solve.

class McfSweep : public Workload {
 public:
  static constexpr std::uint32_t kK = 8;
  /// Placement draws per topology; every round solves all of them. An
  /// all-to-all solve costs about twenty broadcast ones and its cost hinges
  /// on the draw, so two draws per topology keep a seed's total steady;
  /// twelve broadcast draws keep their share of the time near a quarter.
  static constexpr std::uint32_t kBroadcastDraws = 12;
  static constexpr std::uint32_t kAllToAllDraws = 2;
  static constexpr double kEpsilon = 0.12;

  void setup(std::uint64_t seed) override {
    topos_.clear();
    instances_.clear();
    topos_.push_back(layers::fat_tree(kK));
    ft::core::FlatTreeNetwork net = layers::flat_tree_plant(kK);
    topos_.push_back(layers::flat_tree_mode(net, ft::core::Mode::LocalRandom));
    topos_.push_back(layers::flat_tree_mode(net, ft::core::Mode::GlobalRandom));
    topos_.push_back(layers::jellyfish(kK, seed));
    const std::uint32_t per_pod = kK * kK / 4;
    for (std::size_t t = 0; t < topos_.size(); ++t) {
      for (std::uint32_t d = 0; d < kBroadcastDraws; ++d)
        instances_.push_back(
            {t, false,
             layers::cluster_commodities(topos_[t], 1000, ft::workload::Placement::NoLocality,
                                         ft::workload::Pattern::Broadcast, per_pod,
                                         mix(seed, t, d))});
      for (std::uint32_t d = 0; d < kAllToAllDraws; ++d)
        instances_.push_back(
            {t, true,
             layers::cluster_commodities(topos_[t], 20, ft::workload::Placement::WeakLocality,
                                         ft::workload::Pattern::AllToAll, per_pod,
                                         mix(seed, t, kBroadcastDraws + d))});
    }
  }

  std::uint64_t input_digest() const override {
    Digest h;
    for (const auto& t : topos_) {
      h.u64(t.link_count());
      for (ft::graph::LinkId l = 0; l < t.graph().link_count(); ++l) {
        h.u64(t.graph().link(l).a);
        h.u64(t.graph().link(l).b);
      }
    }
    for (const Instance& in : instances_)
      for (const auto& c : in.commodities) {
        h.u64(c.src);
        h.u64(c.dst);
        h.f64(c.demand);
      }
    return h.value();
  }

  RoundOut round(bool check) override {
    RoundOut out;
    double t0 = wall_ms();
    double dijkstra = 0, phases = 0, augmentations = 0, gap = 0;
    for (const Instance& in : instances_) {
      const ft::graph::Graph& g = topos_[in.topo].graph();
      ft::mcf::McfResult r = timed(out, in.alltoall ? 0 : 1, [&] {
        return layers::max_concurrent_flow(
            in.alltoall ? "mcf.solve.alltoall" : "mcf.solve.broadcast", g, in.commodities,
            kEpsilon);
      });
      Digest h;
      h.f64(r.lambda_lower);
      h.f64(r.lambda_upper);
      h.u64(r.phases);
      h.u64(r.dijkstra_runs);
      out.op_digest.push_back(h.value());
      dijkstra += static_cast<double>(r.dijkstra_runs);
      phases += static_cast<double>(r.phases);
      augmentations += static_cast<double>(r.augmentations);
      gap += r.lambda_upper / r.lambda_lower;
      bool bad = r.truncated || !(r.lambda_lower > 0.0);
      if (check) bad = layers::certify(g, in.commodities, r, kEpsilon) > 0 || bad;
      if (bad) ++out.failed;
    }
    out.e2e_ms = wall_ms() - t0;
    out.work = static_cast<double>(instances_.size());
    out.counts["mcf.dijkstra_runs"] = dijkstra;
    out.counts["mcf.phases"] = phases;
    out.counts["mcf.augmentations"] = augmentations;
    out.counts["mcf.gap"] = gap / static_cast<double>(instances_.size());
    return out;
  }

  std::vector<std::string> op_kinds() const override { return {"alltoall", "broadcast"}; }

 private:
  struct Instance {
    std::size_t topo;
    bool alltoall;
    std::vector<ft::mcf::Commodity> commodities;
  };
  std::vector<ft::topo::Topology> topos_;
  std::vector<Instance> instances_;
};

// -- convert-apl ----------------------------------------------------------------
//
// A k=24 flat-tree plant under fault::ResilientController: seeded fault
// traces go through on_event while staged conversions cycle through
// global, local, Clos and a hybrid per-pod target. One operation (a step)
// is an event or a conversion advance, followed by the APL of the live
// degraded fabric.

/// Servers per switch counting only servers that are not stranded and sit
/// in the component holding the most of them (APL is defined per
/// component).
std::vector<std::uint32_t> live_servers(const ft::fault::DegradeResult& d) {
  const ft::topo::Topology& t = d.topo;
  const ft::graph::Graph& g = t.graph();
  std::vector<ft::graph::NodeId> parent(t.switch_count());
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](ft::graph::NodeId v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (ft::graph::LinkId l = 0; l < g.link_count(); ++l) {
    if (!g.link_live(l)) continue;
    ft::graph::NodeId ra = find(g.link(l).a), rb = find(g.link(l).b);
    if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
  }
  std::vector<char> stranded(t.server_count(), 0);
  for (ft::topo::ServerId s : d.stranded) stranded[s] = 1;
  std::vector<std::uint32_t> per_root(t.switch_count(), 0), weight(t.switch_count(), 0);
  for (ft::topo::ServerId s = 0; s < t.server_count(); ++s)
    if (!stranded[s]) ++per_root[find(t.host(s))];
  auto best = static_cast<ft::graph::NodeId>(
      std::max_element(per_root.begin(), per_root.end()) - per_root.begin());
  for (ft::topo::ServerId s = 0; s < t.server_count(); ++s)
    if (!stranded[s] && find(t.host(s)) == best) ++weight[t.host(s)];
  return weight;
}

class ConvertApl : public Workload {
 public:
  static constexpr std::uint32_t kK = 24;
  /// Independent fault traces per round, each replayed on a fresh
  /// controller. A round's cost averages over them, so another seed changes
  /// which faults are drawn but hardly how much work they make.
  static constexpr std::size_t kTraces = 10;
  /// Events per trace: a fixed prefix of a longer seeded trace, so every
  /// seed gives the same number of steps.
  static constexpr std::size_t kEventsPerTrace = 15;
  /// Advances per conversion: each conversion is spread over this many
  /// steps so faults keep landing mid-reconfiguration.
  static constexpr std::size_t kAdvancesPerConversion = 12;

  void setup(std::uint64_t seed) override {
    plant_ = std::make_unique<ft::core::FlatTreeNetwork>(layers::flat_tree_plant(kK));
    ft::topo::Topology clos = layers::flat_tree_mode(*plant_, ft::core::Mode::Clos);
    // Switch, link (with flapping) and converter faults. Pod-power outages
    // are left out: one takes a whole pod down at once, and whether a
    // short trace happens to draw one would decide most of its cost.
    ft::fault::ScenarioParams sp;
    sp.duration = 10.0;
    sp.switches = {250.0, 4.0};
    sp.link = {600.0, 3.0};
    sp.converter = {500.0, 6.0};
    sp.flap_probability = 0.25;
    scenarios_.clear();
    for (std::size_t j = 0; j < kTraces; ++j) {
      sp.seed = mix(seed, j);
      scenarios_.push_back(layers::fault_scenario(clos, sp, plant_->converters().size(),
                                                  plant_->params().pods()));
      if (scenarios_.back().events.size() > kEventsPerTrace)
        scenarios_.back().events.resize(kEventsPerTrace);
    }
    const std::uint32_t pods = plant_->params().pods();
    std::vector<ft::core::Mode> hybrid(pods);
    for (std::uint32_t p = 0; p < pods; ++p)
      hybrid[p] = p < pods / 2 ? ft::core::Mode::LocalRandom : ft::core::Mode::Clos;
    targets_ = {std::vector<ft::core::Mode>(pods, ft::core::Mode::GlobalRandom),
                std::vector<ft::core::Mode>(pods, ft::core::Mode::LocalRandom),
                std::vector<ft::core::Mode>(pods, ft::core::Mode::Clos), hybrid};
  }

  std::uint64_t input_digest() const override {
    Digest h;
    h.u64(plant_->converters().size());
    for (const ft::fault::Scenario& s : scenarios_)
      for (const auto& e : s.events) {
        h.f64(e.time);
        h.u64(static_cast<std::uint64_t>(e.kind));
        h.u64(e.a);
        h.u64(e.b);
      }
    return h.value();
  }

  RoundOut round(bool check) override {
    RoundOut out;
    double t0 = wall_ms();
    double replans = 0, rollbacks = 0;
    for (std::size_t j = 0; j < scenarios_.size(); ++j)
      replay(out, check, scenarios_[j], /*first_target=*/j, replans, rollbacks);
    out.e2e_ms = wall_ms() - t0;
    out.work = static_cast<double>(out.op_ms.size());
    out.counts["fault.replans"] = replans;
    out.counts["fault.rollbacks"] = rollbacks;
    return out;
  }

  std::vector<std::string> op_kinds() const override { return {"event", "advance"}; }

 private:
  /// Replays one trace on a fresh controller: each event is a step, and
  /// so is each conversion advance between events. Conversions cycle
  /// through the targets from `first_target` on.
  void replay(RoundOut& out, bool check, const ft::fault::Scenario& scenario,
              std::size_t first_target, double& replans, double& rollbacks) {
    ft::fault::ResilientController ctl(*plant_);
    std::size_t next_target = first_target, rate = 1;

    // The read half of a step: APL of the live degraded fabric.
    auto answer = [&](Digest& h) {
      ft::fault::DegradeResult d = layers::degraded(ctl);
      std::vector<std::uint32_t> w = live_servers(d);
      std::uint64_t servers = std::accumulate(w.begin(), w.end(), std::uint64_t{0});
      ft::graph::AplResult apl;
      if (servers >= 2) apl = layers::server_apl(d.topo.graph(), w);
      h.f64(apl.average);
      h.u64(apl.pairs);
      h.u64(d.stranded.size());
    };
    auto finish = [&](Digest& h) {
      out.op_digest.push_back(h.value());
      if (check && layers::self_check(ctl) > 0) ++out.failed;
    };

    for (const ft::fault::FaultEvent& e : scenario.events) {
      Digest h;
      timed(out, 0, [&] {
        ft::fault::EventOutcome o = layers::on_event(ctl, e);
        h.u64(o.steps_applied);
        h.u64(o.replans);
        h.u64(o.rolled_back);
        replans += o.replans;
        rollbacks += o.rolled_back ? 1 : 0;
        answer(h);
        return 0;
      });
      finish(h);

      Digest a;
      timed(out, 1, [&] {
        if (!ctl.conversion_in_flight()) {
          layers::begin_conversion(ctl, targets_[next_target++ % targets_.size()]);
          rate = std::max<std::size_t>(1, (ctl.pending_micro_txs() + kAdvancesPerConversion - 1) /
                                              kAdvancesPerConversion);
        }
        a.u64(layers::advance(ctl, rate));
        answer(a);
        if (!ctl.conversion_in_flight()) {
          // A conversion just landed: also answer for the intended fabric.
          ft::topo::Topology live = layers::live_topology(ctl);
          ft::graph::AplResult apl = layers::server_apl(live.graph(), live.servers_per_switch());
          a.f64(apl.average);
        }
        return 0;
      });
      finish(a);
    }
  }

  std::unique_ptr<ft::core::FlatTreeNetwork> plant_;
  std::vector<ft::fault::Scenario> scenarios_;
  std::vector<std::vector<ft::core::Mode>> targets_;
};

// -- packet-des ------------------------------------------------------------------
//
// ECMP and WCMP tables compiled once per round for fat-tree and flat-tree
// (global) at k=12; the same permutation and incast flow sets then run
// under drop-tail and DCTCP. One operation is one compile or one DES run.

class PacketDes : public Workload {
 public:
  static constexpr std::uint32_t kK = 12;
  static constexpr std::uint32_t kTrain = 120;
  static constexpr std::uint32_t kIncastSources = 48;

  void setup(std::uint64_t seed) override {
    topos_.clear();
    pairs_.clear();
    topos_.push_back(layers::fat_tree(kK));
    ft::core::FlatTreeNetwork net = layers::flat_tree_plant(kK);
    topos_.push_back(layers::flat_tree_mode(net, ft::core::Mode::GlobalRandom));
    for (const auto& t : topos_) pairs_.push_back(layers::server_pairs(t));
    const auto servers = static_cast<std::uint32_t>(topos_[0].server_count());
    auto to_flows = [](const std::vector<ft::mcf::ServerDemand>& demands) {
      std::vector<ft::sim::PacketFlow> flows;
      for (const auto& d : demands) flows.push_back({d.src, d.dst, kTrain, 0.0});
      return flows;
    };
    flow_sets_ = {to_flows(layers::permutation(servers, seed)),
                  to_flows(layers::incast(servers, kIncastSources, mix(seed, 5)))};
  }

  std::uint64_t input_digest() const override {
    Digest h;
    for (const auto& flows : flow_sets_)
      for (const auto& f : flows) {
        h.u64(f.src);
        h.u64(f.dst);
        h.u64(f.packets);
      }
    return h.value();
  }

  RoundOut round(bool check) override {
    RoundOut out;
    double t0 = wall_ms();
    double injected = 0, dropped = 0;
    ft::sim::PacketSimConfig base;
    base.queue_packets = 16;
    base.nic_rate = 4.0;
    base.propagation_delay = 0.01;
    base.flowlet_gap = 0.5;
    base.ecn_threshold = 8;

    auto simulate = [&](const ft::topo::Topology& t, const auto& fib) {
      for (const auto& flows : flow_sets_)
        for (bool ecn : {false, true}) {
          ft::sim::PacketSimConfig cfg = base;
          cfg.ecn = ecn;
          ft::sim::PacketStats s = timed(out, ecn ? 3 : 2, [&] {
            return layers::run_packets(ecn ? "sim.run.dctcp" : "sim.run.droptail", t, fib,
                                       cfg, flows);
          });
          Digest h;
          h.u64(s.injected);
          h.u64(s.delivered);
          h.u64(s.dropped);
          h.f64(s.mean_delay);
          h.f64(s.p99_delay);
          h.f64(s.fct_p99);
          h.f64(s.finish_time);
          h.f64(s.mean_queue);
          out.op_digest.push_back(h.value());
          if (s.injected != s.delivered + s.dropped || s.injected == 0) ++out.failed;
          injected += static_cast<double>(s.injected);
          dropped += static_cast<double>(s.dropped);
        }
    };
    auto table_digest = [&](const auto& fib) {
      Digest h;
      h.u64(fib.rule_count());
      h.u64(fib.entry_count());
      out.op_digest.push_back(h.value());
    };

    for (std::size_t i = 0; i < topos_.size(); ++i) {
      const ft::topo::Topology& t = topos_[i];
      auto ecmp = timed(out, 0, [&] { return layers::compile_ecmp(t, pairs_[i]); });
      table_digest(ecmp);
      if (check && layers::verify_fib(t, ecmp, pairs_[i]) > 0) ++out.failed;
      auto wcmp = timed(out, 1, [&] { return layers::compile_wcmp(t, pairs_[i]); });
      table_digest(wcmp);
      if (check && layers::verify_fib(t, wcmp, pairs_[i]) > 0) ++out.failed;
      simulate(t, ecmp);
      simulate(t, wcmp);
    }
    out.e2e_ms = wall_ms() - t0;
    out.work = injected;
    out.counts["sim.loss_rate"] = injected > 0 ? dropped / injected : 0.0;
    return out;
  }

  std::vector<std::string> op_kinds() const override {
    return {"routing.compile", "te.compile", "sim.droptail", "sim.dctcp"};
  }

 private:
  std::vector<ft::topo::Topology> topos_;
  std::vector<layers::SwitchPairs> pairs_;
  std::vector<std::vector<ft::sim::PacketFlow>> flow_sets_;
};

// -- svc-session ---------------------------------------------------------------------
//
// A seeded JSON-lines script through an in-process svc::Service with a v2
// journal and periodic snapshots, one request in flight; afterwards the
// journal and latest snapshot recover a fresh service, which must reach
// the same state. One operation is one request.

std::string event_json(const ft::fault::FaultEvent& e) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"t\":" << e.time << ",\"kind\":\"" << ft::fault::to_string(e.kind)
     << "\",\"a\":" << e.a;
  if (e.kind == ft::fault::FaultKind::LinkDown || e.kind == ft::fault::FaultKind::LinkUp)
    os << ",\"b\":" << e.b;
  os << "}";
  return os.str();
}

class SvcSession : public Workload {
 public:
  static constexpr std::uint32_t kK = 8;
  /// Session shards, each with its own plant and fault trace. A fabric's
  /// fault state sets the cost of every solve on it, so a round averages
  /// over several traces rather than hinge on one.
  static constexpr std::uint32_t kSessions = 4;
  /// Script rounds, each on the next session with its own traffic draw and
  /// one solving request: a solve's cost hinges on its draw, so the more
  /// draws the steadier a round's total.
  static constexpr int kRounds = 48;
  /// A session takes a fault batch every kFaultEvery of its rounds.
  static constexpr int kFaultEvery = 4;
  static constexpr std::size_t kEventsPerBatch = 3;
  static constexpr int kAdvance = 6;

  // Op kinds, in the order op_kinds() names them.
  enum Kind : std::uint32_t { Hello, Build, Traffic, Fault, Convert, Query, WhatIf, Design, Stats };

  void setup(std::uint64_t seed) override {
    lines_.clear();
    kinds_.clear();
    ft::core::FlatTreeNetwork net = layers::flat_tree_plant(kK);
    ft::topo::Topology clos = layers::flat_tree_mode(net, ft::core::Mode::Clos);
    ft::fault::ScenarioParams sp;
    sp.duration = 40.0;
    sp.switches = {250.0, 4.0};
    sp.link = {600.0, 3.0};
    sp.converter = {500.0, 6.0};
    std::vector<ft::fault::Scenario> scenarios;
    for (std::uint32_t i = 0; i < kSessions; ++i) {
      sp.seed = mix(seed, 100 + i);
      scenarios.push_back(
          layers::fault_scenario(clos, sp, net.converters().size(), net.params().pods()));
    }
    ScopedSpan span("workload.script");
    // Every per-session request names its shard: {"op":"...","session":i,...}.
    auto add = [&](Kind kind, const std::string& op, std::uint32_t session,
                   const std::string& fields) {
      kinds_.push_back(kind);
      lines_.push_back("{\"op\":\"" + op + "\",\"session\":" + std::to_string(session) +
                       fields + "}");
    };
    kinds_.push_back(Hello);
    lines_.push_back("{\"op\":\"hello\"}");
    for (std::uint32_t i = 0; i < kSessions; ++i) {
      add(Build, "build", i, ",\"k\":" + std::to_string(kK));
      add(Convert, "convert", i, ",\"target\":\"global\",\"advance\":0");
    }
    // Design at the floor budget: a 1 ms deadline buys the minimum
    // iteration count.
    add(Design, "design", 0,
        ",\"iters\":64,\"deadline_ms\":1,\"mix\":[{\"kind\":\"broadcast\","
        "\"affinity\":\"global\",\"cluster\":8,\"count\":1}]");
    // Each round, on the next session: a fault batch on every kFaultEvery-th
    // of the session's rounds, new traffic, then one solving request in
    // turn: a query with a deadline, one without, and a what-if towards each
    // of two targets.
    static const char* const kTargets[] = {"local", "clos", "global"};
    std::vector<std::size_t> cursor(kSessions, 0);
    for (int r = 0; r < kRounds; ++r) {
      const std::uint32_t i = static_cast<std::uint32_t>(r) % kSessions;
      const int turn = r / static_cast<int>(kSessions);  // the session's round count
      const std::vector<ft::fault::FaultEvent>& events = scenarios[i].events;
      const std::size_t take = std::min(kEventsPerBatch, events.size() - cursor[i]);
      if (turn % kFaultEvery == 0 && take > 0) {
        std::string batch;
        for (std::size_t e = 0; e < take; ++e)
          batch += (e ? "," : "") + event_json(events[cursor[i] + e]);
        cursor[i] += take;
        add(Fault, "fault", i,
            ",\"events\":[" + batch + "],\"advance\":" + std::to_string(kAdvance));
      }
      add(Traffic, "traffic", i,
          ",\"cluster\":40,\"pattern\":\"broadcast\",\"placement\":\"none\",\"seed\":" +
              std::to_string(mix(seed, static_cast<std::uint64_t>(r)) % 1000000007ull));
      switch (turn % 4) {
        case 0: add(Query, "query", i, ",\"deadline_ms\":50"); break;
        case 1: add(Query, "query", i, ""); break;
        default:
          add(WhatIf, "what_if", i,
              std::string(",\"target\":\"") + kTargets[(turn + r) % 3] + "\",\"deadline_ms\":50");
      }
    }
    for (std::uint32_t i = 0; i < kSessions; ++i)
      add(Convert, "convert", i, ",\"advance\":1000000");
    add(Convert, "convert", 0, ",\"target\":\"clos\"");
    kinds_.push_back(Stats);
    lines_.push_back("{\"op\":\"stats\"}");
  }

  std::uint64_t input_digest() const override {
    Digest h;
    for (const std::string& line : lines_) h.str(line);
    return h.value();
  }

  RoundOut round(bool) override {
    RoundOut out;
    ft::svc::ServiceOptions opt;
    opt.epsilon = 0.12;
    std::ostringstream journal;
    std::string latest_snapshot;
    opt.journal = &journal;
    opt.snapshot_every = 5;
    opt.snapshot_sink = [&](const std::string& bytes) { latest_snapshot = bytes; };
    ft::svc::Service service(opt);

    double t0 = wall_ms();
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      std::string response =
          timed(out, kinds_[i], [&] { return layers::request(service, lines_[i]); });
      Digest h;
      h.str(response);
      out.op_digest.push_back(h.value());
      if (response.find("\"ok\":true") == std::string::npos) ++out.failed;
    }
    out.e2e_ms = wall_ms() - t0;
    out.work = static_cast<double>(lines_.size());

    // Outside the request loop: the parser alone (traced runs only), then
    // crash recovery from the journal and the latest snapshot.
    if (Tracer::get().on())
      for (std::size_t i = 0; i < lines_.size(); ++i) layers::parse_request(lines_[i], i + 1);
    const std::string journal_bytes = journal.str();
    ft::svc::durable::JournalContents contents;
    ft::svc::durable::ServiceSnapshot snap;
    bool recovered_ok = layers::read_journal(journal_bytes, contents);
    bool have_snap = !latest_snapshot.empty();
    if (have_snap) recovered_ok = layers::decode_snapshot(latest_snapshot, snap) && recovered_ok;
    ft::svc::ServiceOptions ropt;
    ropt.epsilon = opt.epsilon;
    ft::svc::Service fresh(ropt);
    recovered_ok = recovered_ok && layers::recover(fresh, have_snap ? &snap : nullptr, contents);
    if (!recovered_ok || layers::encoded_state(fresh) != layers::encoded_state(service))
      ++out.failed;
    out.counts["durable.journal_bytes"] = static_cast<double>(journal_bytes.size());
    out.counts["durable.snapshot_bytes"] = static_cast<double>(latest_snapshot.size());
    return out;
  }

  std::vector<std::string> op_kinds() const override {
    return {"hello", "build", "traffic", "fault", "convert", "query", "what_if", "design",
            "stats"};
  }

 private:
  std::vector<std::string> lines_;
  std::vector<std::uint32_t> kinds_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"mcf-sweep", "convert-apl", "packet-des",
                                                 "svc-session"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "mcf-sweep") return std::make_unique<McfSweep>();
  if (name == "convert-apl") return std::make_unique<ConvertApl>();
  if (name == "packet-des") return std::make_unique<PacketDes>();
  if (name == "svc-session") return std::make_unique<SvcSession>();
  return nullptr;
}

}  // namespace perfbench
