#include "metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

const char* const kLayers[] = {"topo", "workload", "core", "fault", "graph", "mcf",  "routing",
                               "te",   "sim",      "svc",  "durable", "check", "bench"};
const char* const kSvcOps[] = {"hello",   "build",   "traffic", "fault", "convert",
                               "query",   "what_if", "design",  "stats"};

/// Mean duration per call of the spans named `name` (0 when never called).
double per_call(const std::vector<Span>& spans, const std::string& name) {
  SpanTotal t = span_total(spans, name);
  return t.calls ? t.ms / static_cast<double>(t.calls) : 0.0;
}

double per_call(const std::vector<Span>& spans, const std::string& a, const std::string& b) {
  SpanTotal x = span_total(spans, a), y = span_total(spans, b);
  return x.calls + y.calls ? (x.ms + y.ms) / static_cast<double>(x.calls + y.calls) : 0.0;
}

double counter(const flattree::obs::MetricsSnapshot& s, const char* name) {
  for (const auto& [n, v] : s.counters)
    if (n == name) return static_cast<double>(v);
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The workload's own names for work_per_s and for one operation.
struct Alias {
  const char* workload;
  const char* rate;
  const char* op;
};

const Alias* alias_of(const std::string& workload) {
  static const Alias aliases[] = {{"mcf-sweep", "solves_per_s", "solve"},
                                  {"convert-apl", "steps_per_s", "step"},
                                  {"packet-des", "pkts_per_s", "call"},
                                  {"svc-session", "req_per_s", "req"}};
  for (const Alias& a : aliases)
    if (workload == a.workload) return &a;
  return nullptr;
}

}  // namespace

// -- RunTotals ------------------------------------------------------------------

void RunTotals::add(const RoundOut& r, bool traced, int cpu) {
  counts_ = r.counts;
  rounds_.push_back(
      {cpu, traced, r.e2e_ms, r.work, r.work / (r.e2e_ms / 1000.0), r.op_ms, r.op_kind});
}

std::size_t RunTotals::traced_rounds() const {
  return static_cast<std::size_t>(
      std::count_if(rounds_.begin(), rounds_.end(), [](const Round& r) { return r.traced; }));
}

std::vector<double> RunTotals::rates() const {
  std::vector<double> v;
  for (const Round& r : rounds_)
    if (!r.traced) v.push_back(r.rate);
  return v;
}

std::vector<double> RunTotals::best_op_ms() const {
  std::vector<double> best;
  for (const Round& r : rounds_) {
    // A round with another operation count failed its digest check.
    if (r.traced || (!best.empty() && r.op_ms.size() != best.size())) continue;
    if (best.empty()) {
      best = r.op_ms;
      continue;
    }
    for (std::size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], r.op_ms[i]);
  }
  return best;
}

const RunTotals::Round* RunTotals::first_untraced() const {
  for (const Round& r : rounds_)
    if (!r.traced) return &r;
  return nullptr;
}

double RunTotals::work_per_s() const {
  const Round* first = first_untraced();
  if (first == nullptr) return 0.0;
  double ms = 0.0;
  for (double b : best_op_ms()) ms += b;
  return ratio(first->work, ms / 1000.0);
}

double RunTotals::rate_spread() const { return relative_iqr(rates()); }

std::vector<double> RunTotals::op_latencies() const {
  std::vector<double> v;
  for (const Round& r : rounds_)
    if (!r.traced) v.insert(v.end(), r.op_ms.begin(), r.op_ms.end());
  return v;
}

double RunTotals::kind_p50(std::uint32_t kind) const {
  const Round* first = first_untraced();
  if (first == nullptr) return 0.0;
  std::vector<double> best = best_op_ms(), v;
  for (std::size_t i = 0; i < best.size(); ++i)
    if (first->op_kind[i] == kind) v.push_back(best[i]);
  return median(v);
}

double RunTotals::trace_overhead() const {
  std::vector<double> traced, untraced;
  for (const Round& r : rounds_) (r.traced ? traced : untraced).push_back(r.e2e_ms);
  if (traced.empty() || untraced.empty()) return 0.0;
  return median(traced) / median(untraced) - 1.0;
}

void RunTotals::print_cpus() const {
  std::map<int, std::vector<double>> by_cpu;
  for (const Round& r : rounds_)
    if (!r.traced) by_cpu[r.cpu].push_back(r.rate);
  for (const auto& [cpu, v] : by_cpu)
    std::printf("cpu %d rounds=%zu median_rate=%.6g spread=%.4f\n", cpu, v.size(), median(v),
                relative_iqr(v));
}

// -- names ----------------------------------------------------------------------

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {"setup_s", "peak_rss_mb", "work_per_s"};
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const char* l : kLayers) n.push_back(std::string("self_ms.") + l);
    for (const char* l : kLayers) n.push_back(std::string("share.") + l);
    for (const char* m :
         {"topo.build_ms", "workload.demand_ms", "core.build_ms", "mcf.solve_ms",
          "mcf.solve_ms.alltoall", "mcf.solve_ms.broadcast", "mcf.us_per_dijkstra",
          "mcf.dijkstra_runs", "mcf.phases", "mcf.augmentations", "mcf.stale_retree_frac",
          "mcf.gap", "fault.on_event_ms", "fault.advance_ms", "fault.degraded_ms",
          "core.topology_ms", "fault.replans", "fault.rollbacks", "graph.apl_ms",
          "graph.bitbfs.words_touched", "graph.bitbfs.batches", "graph.csr.full_builds",
          "graph.bfs.runs", "routing.compile_ms", "te.compile_ms", "sim.run_ms.droptail",
          "sim.run_ms.dctcp", "sim.ns_per_event", "sim.events", "sim.loss_rate"})
      n.push_back(m);
    for (const char* op : kSvcOps) n.push_back(std::string("svc.req_p50_ms.") + op);
    for (const char* m :
         {"svc.parse_ms", "durable.recover_ms", "durable.read_journal_ms",
          "durable.journal_bytes", "durable.snapshot_bytes", "check.certify_ms",
          "check.validate_ms", "check.fib_verify_ms", "bench.cpu_wait_frac",
          "bench.trace_overhead", "bench.round_spread"})
      n.push_back(m);
    return n;
  }();
  return names;
}

// -- end-to-end -------------------------------------------------------------------

bool end_to_end_sheet(MetricSheet& sheet, const RunTotals& totals, double setup_s,
                      double rss_mb) {
  sheet.set("setup_s", setup_s, "s");
  sheet.set("peak_rss_mb", rss_mb, "MB");
  sheet.set("work_per_s", totals.work_per_s(), "1/s");
  return percentile_supported(totals.op_latencies().size(), 0.95);
}

void print_latency(const std::string& workload, const RunTotals& totals) {
  const Alias* a = alias_of(workload);
  const char* op = a ? a->op : "op";
  const std::vector<double> best = totals.best_op_ms(), pooled = totals.op_latencies();
  std::printf("latency %s_p50_ms=%.6g ms (median of %zu operations' best times over %zu "
              "rounds)\n",
              op, median(best), best.size(), best.empty() ? 0 : pooled.size() / best.size());
  std::printf("latency %s_p50_ms=%.6g ms %s_p95_ms=%.6g ms (pooled: %zu samples, %zu beyond "
              "p95)\n",
              op, percentile(pooled, 0.50), op, percentile(pooled, 0.95), pooled.size(),
              samples_beyond(pooled.size(), 0.95));
}

void print_aliases(const std::string& workload, const MetricSheet& sheet) {
  if (const Alias* a = alias_of(workload))
    std::printf("alias %s=%.6g 1/s (work_per_s)\n", a->rate, sheet.value("work_per_s"));
}

// -- per-layer ---------------------------------------------------------------------

void per_layer_sheet(MetricSheet& sheet, const RunTotals& totals, const LayerInputs& in) {
  const double rounds = static_cast<double>(std::max<std::size_t>(1, totals.traced_rounds()));
  const std::map<std::string, double>& counts = totals.counts();
  auto count = [&](const char* name, double fallback) {
    auto it = counts.find(name);
    return it != counts.end() ? it->second : fallback;
  };

  std::map<std::string, double> self = self_time_by_layer(in.rounds);
  double self_total = 0.0;
  for (const auto& [layer, ms] : self) self_total += ms;
  for (const char* l : kLayers) sheet.set(std::string("self_ms.") + l, self[l] / rounds, "ms");
  for (const char* l : kLayers)
    sheet.set(std::string("share.") + l, ratio(self[l], self_total), "frac");

  sheet.set("topo.build_ms", span_total(in.setup, "topo.build").ms, "ms");
  sheet.set("workload.demand_ms",
            span_total(in.setup, "workload.demand").ms + span_total(in.setup, "workload.script").ms,
            "ms");
  sheet.set("core.build_ms", span_total(in.setup, "core.build").ms, "ms");

  const double dijkstra = count("mcf.dijkstra_runs", counter(in.counters, "mcf.gk.dijkstra_runs") / rounds);
  const double solve_ms = span_total(in.rounds, "mcf.solve.alltoall").ms +
                          span_total(in.rounds, "mcf.solve.broadcast").ms;
  sheet.set("mcf.solve_ms", per_call(in.rounds, "mcf.solve.alltoall", "mcf.solve.broadcast"), "ms");
  sheet.set("mcf.solve_ms.alltoall", per_call(in.rounds, "mcf.solve.alltoall"), "ms");
  sheet.set("mcf.solve_ms.broadcast", per_call(in.rounds, "mcf.solve.broadcast"), "ms");
  sheet.set("mcf.us_per_dijkstra", ratio(solve_ms * 1000.0 / rounds, dijkstra), "us");
  sheet.set("mcf.dijkstra_runs", dijkstra, "count");
  sheet.set("mcf.phases", count("mcf.phases", counter(in.counters, "mcf.gk.phases") / rounds),
            "count");
  sheet.set("mcf.augmentations",
            count("mcf.augmentations", counter(in.counters, "mcf.gk.augmentations") / rounds),
            "count");
  sheet.set("mcf.stale_retree_frac",
            ratio(counter(in.counters, "mcf.gk.stale_retrees"),
                  counter(in.counters, "mcf.gk.dijkstra_runs")),
            "frac");
  sheet.set("mcf.gap", count("mcf.gap", 0.0), "ratio");

  sheet.set("fault.on_event_ms", per_call(in.rounds, "fault.on_event"), "ms");
  sheet.set("fault.advance_ms", per_call(in.rounds, "fault.advance"), "ms");
  sheet.set("fault.degraded_ms", per_call(in.rounds, "fault.degraded"), "ms");
  sheet.set("core.topology_ms", per_call(in.rounds, "core.topology"), "ms");
  sheet.set("fault.replans", count("fault.replans", 0.0), "count");
  sheet.set("fault.rollbacks", count("fault.rollbacks", 0.0), "count");

  sheet.set("graph.apl_ms", per_call(in.rounds, "graph.apl"), "ms");
  sheet.set("graph.bitbfs.words_touched", static_cast<double>(in.bfs.words_touched) / rounds,
            "count");
  sheet.set("graph.bitbfs.batches", static_cast<double>(in.bfs.batches) / rounds, "count");
  sheet.set("graph.csr.full_builds", counter(in.counters, "graph.csr.full_builds") / rounds,
            "count");
  sheet.set("graph.bfs.runs", counter(in.counters, "graph.bfs.runs") / rounds, "count");

  sheet.set("routing.compile_ms", per_call(in.rounds, "routing.compile"), "ms");
  sheet.set("te.compile_ms", per_call(in.rounds, "te.compile"), "ms");

  const double events = counter(in.counters, "sim.packet.events_processed") / rounds;
  const double sim_ms = (span_total(in.rounds, "sim.run.droptail").ms +
                         span_total(in.rounds, "sim.run.dctcp").ms) /
                        rounds;
  sheet.set("sim.run_ms.droptail", per_call(in.rounds, "sim.run.droptail"), "ms");
  sheet.set("sim.run_ms.dctcp", per_call(in.rounds, "sim.run.dctcp"), "ms");
  sheet.set("sim.ns_per_event", ratio(sim_ms * 1e6, events), "ns");
  sheet.set("sim.events", events, "count");
  sheet.set("sim.loss_rate", count("sim.loss_rate", 0.0), "frac");

  for (std::size_t i = 0; i < std::size(kSvcOps); ++i) {
    double p50 = 0.0;
    for (std::size_t k = 0; k < in.op_kinds.size(); ++k)
      if (in.op_kinds[k] == kSvcOps[i] && in.op_kinds.size() == std::size(kSvcOps))
        p50 = totals.kind_p50(static_cast<std::uint32_t>(k));
    sheet.set(std::string("svc.req_p50_ms.") + kSvcOps[i], p50, "ms");
  }
  sheet.set("svc.parse_ms", per_call(in.rounds, "svc.parse"), "ms");
  sheet.set("durable.recover_ms", per_call(in.rounds, "durable.recover"), "ms");
  sheet.set("durable.read_journal_ms", per_call(in.rounds, "durable.read_journal"), "ms");
  sheet.set("durable.journal_bytes", count("durable.journal_bytes", 0.0), "bytes");
  sheet.set("durable.snapshot_bytes", count("durable.snapshot_bytes", 0.0), "bytes");

  sheet.set("check.certify_ms", per_call(in.check, "check.certify"), "ms");
  sheet.set("check.validate_ms", per_call(in.check, "check.validate"), "ms");
  sheet.set("check.fib_verify_ms", per_call(in.check, "check.fib_verify"), "ms");

  sheet.set("bench.cpu_wait_frac", in.cpu_wait_frac, "frac");
  sheet.set("bench.trace_overhead", totals.trace_overhead(), "frac");
  sheet.set("bench.round_spread", totals.rate_spread(), "frac");

  if (sheet.names() != per_layer_names())
    throw std::logic_error("per-layer sheet out of step with per_layer_names()");
}

void print_layer_table(const MetricSheet& sheet) {
  std::printf("layer      self_ms/round  share\n");
  for (const char* l : kLayers) {
    double ms = sheet.value(std::string("self_ms.") + l);
    if (ms <= 0.0) continue;
    std::printf("%-10s %13.3f  %5.1f%%\n", l, ms,
                100.0 * sheet.value(std::string("share.") + l));
  }
}

}  // namespace perfbench
