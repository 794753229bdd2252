#pragma once
// Turns timed rounds and spans into the two metric sheets: end-to-end
// (untraced runs) and per-layer (traced runs).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/multi_bfs.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Accumulates the rounds of one run.
class RunTotals {
 public:
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void add(const RoundOut& r, bool traced, int cpu);

  std::size_t rounds() const { return rounds_.size(); }
  std::size_t traced_rounds() const;

  /// Each operation's fastest latency over the untraced rounds (ms), in
  /// round order. Every round runs the same operations on the same inputs,
  /// so a slower repeat of an operation is time lost to the machine (a
  /// co-tenant's cache or memory traffic), not to the program.
  std::vector<double> best_op_ms() const;
  /// Work of one round over the sum of best_op_ms(), per second.
  double work_per_s() const;
  /// Every operation latency of the untraced rounds (ms).
  std::vector<double> op_latencies() const;
  /// Median best latency of one operation kind (ms).
  double kind_p50(std::uint32_t kind) const;
  /// Median e2e interval of traced over untraced rounds, minus one.
  double trace_overhead() const;
  /// Relative IQR of the untraced rounds' work rates.
  double rate_spread() const;
  /// One line per CPU: untraced rounds, their median rate and spread.
  void print_cpus() const;

  /// Deterministic counts of the last round (every round has the same).
  const std::map<std::string, double>& counts() const { return counts_; }

 private:
  struct Round {
    int cpu = -1;
    bool traced = false;
    double e2e_ms = 0.0;
    double work = 0.0;
    double rate = 0.0;
    std::vector<double> op_ms;
    std::vector<std::uint32_t> op_kind;
  };
  /// Work rates of the untraced rounds.
  std::vector<double> rates() const;
  /// The first untraced round (null when there is none).
  const Round* first_untraced() const;

  std::vector<Round> rounds_;
  std::map<std::string, double> counts_;
};

/// Names, in output order, of the end-to-end and per-layer metrics.
const std::vector<std::string>& end_to_end_names();
const std::vector<std::string>& per_layer_names();

/// Fills the end-to-end sheet. Returns false when the latency stream is
/// too short for its p95 (see percentile_supported).
bool end_to_end_sheet(MetricSheet& sheet, const RunTotals& totals, double setup_s,
                      double rss_mb);

/// Prints operation latency under the workload's own names (solve, step,
/// call, req): the median of the operations' best times, and the p50 and
/// p95 of every sample pooled, with the sample counts.
void print_latency(const std::string& workload, const RunTotals& totals);

/// Prints the workload's own name for work_per_s (solves_per_s,
/// steps_per_s, pkts_per_s, req_per_s).
void print_aliases(const std::string& workload, const MetricSheet& sheet);

struct LayerInputs {
  const std::vector<Span>& setup;   ///< spans of one traced setup
  const std::vector<Span>& check;   ///< spans of the checked round
  const std::vector<Span>& rounds;  ///< spans of the traced timed rounds
  flattree::obs::MetricsSnapshot counters;  ///< obs counters, traced rounds
  flattree::graph::MultiBfsStats bfs;       ///< batched BFS work, traced rounds
  std::vector<std::string> op_kinds;
  double cpu_wait_frac = 0.0;
};

void per_layer_sheet(MetricSheet& sheet, const RunTotals& totals, const LayerInputs& in);

/// Prints self time and share per layer from a per-layer sheet.
void print_layer_table(const MetricSheet& sheet);

}  // namespace perfbench
