#pragma once
// The four workloads. Each builds all of its inputs from the seed in
// setup(), then runs the same round of operations again and again;
// main.cpp times setup and rounds and turns them into metrics.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What one round did.
struct RoundOut {
  /// The end-to-end interval the work rate is computed over (ms).
  double e2e_ms = 0.0;
  /// Work units completed in that interval (solves, steps, packets or
  /// requests).
  double work = 0.0;
  /// Latency of every operation, timed from outside the call, with the
  /// index of its kind in Workload::op_kinds().
  std::vector<double> op_ms;
  std::vector<std::uint32_t> op_kind;
  /// Hash of every operation's deterministic output, in order.
  std::vector<std::uint64_t> op_digest;
  /// Operations that failed a check (checked rounds) or failed outright.
  std::size_t failed = 0;
  /// Deterministic per-round counts and quality figures for the per-layer
  /// sheet (e.g. "mcf.dijkstra_runs", "sim.loss_rate").
  std::map<std::string, double> counts;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input the rounds use from `seed`.
  virtual void setup(std::uint64_t seed) = 0;
  /// Hash of the inputs built by setup().
  virtual std::uint64_t input_digest() const = 0;
  /// Runs one round. With `check` every operation's output also goes
  /// through the library's checkers, outside the timed calls.
  virtual RoundOut round(bool check) = 0;
  /// Names of the operation kinds (RoundOut::op_kind indexes this).
  virtual std::vector<std::string> op_kinds() const = 0;
};

const std::vector<std::string>& workload_names();
/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
