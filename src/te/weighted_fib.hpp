#pragma once
// Weighted forwarding tables (WCMP) — the traffic-engineering extension of
// routing::Fib.
//
// ECMP splits a flow set evenly over equal-cost next hops; WCMP [Zhou et
// al., EuroSys'14] attaches an integer weight to each next-hop rule so the
// split tracks downstream capacity or a solver's flow assignment instead.
// A WeightedFib stores, per (switch, destination) entry, a list of
// (link, weight) rules whose weights sum to the table's weight budget;
// select() hashes a flow id onto the weight line deterministically, so a
// uniform flow-id sweep hits each next hop proportionally to its weight.
//
// Tables are compiled by te::compile_wcmp_* (te/wcmp.hpp) and
// model-checked by te::verify_weighted_fib plus the Report-style
// check::validate_weighted_fib (check/te_check.hpp). add_route()
// deliberately accepts any weight — including zero — so validators can be
// exercised against corrupted tables; the compilers never emit zero-weight
// rules.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "routing/fib.hpp"
#include "topo/topology.hpp"

namespace flattree::te {

using routing::NodeId;

/// One weighted forwarding rule: take `link` with probability
/// weight / (entry weight sum).
struct WeightedHop {
  graph::LinkId link = 0;
  std::uint32_t weight = 0;
};

/// Per-switch weighted forwarding table: destination -> weighted rules.
class WeightedFib {
 public:
  /// `weight_budget` is the per-entry weight sum the compilers quantize to
  /// (and validators check); it bounds the rule weight resolution the way
  /// hardware WCMP table entries do.
  explicit WeightedFib(std::size_t switches, std::uint32_t weight_budget = 64);

  /// Adds (or tops up) a rule at `at` toward `dst` via `link`. Weights
  /// accumulate on repeated calls for the same (at, dst, link). Zero
  /// weights are stored verbatim — validators flag them; compilers prune
  /// them before installation.
  void add_route(NodeId at, NodeId dst, graph::LinkId link, std::uint32_t weight);

  /// Rules at `at` toward `dst` in installation order (empty if none).
  const std::vector<WeightedHop>& next_hops(NodeId at, NodeId dst) const;

  /// Deterministic weighted per-flow choice: hashes (at, dst, flow_id)
  /// onto [0, entry weight sum) and walks the rule list. Zero-weight rules
  /// are never selected. Throws std::runtime_error when no rule with
  /// positive weight is installed.
  graph::LinkId select(NodeId at, NodeId dst, std::uint64_t flow_id) const;

  /// The per-entry weight sum compilers target (see constructor).
  std::uint32_t weight_budget() const { return weight_budget_; }

  /// Destinations with at least one rule at `at`, ascending (validators
  /// iterate the table deterministically through this).
  std::vector<NodeId> destinations(NodeId at) const;

  /// Calls fn(dst, rules) for every entry at `at`, in unspecified order
  /// (no sort; for consumers whose result does not depend on the order).
  template <class Fn>
  void for_each_entry(NodeId at, Fn&& fn) const {
    for (const auto& [dst, hops] : tables_.at(at)) fn(dst, hops);
  }

  std::size_t switch_count() const { return tables_.size(); }
  /// Total number of (switch, destination, link) rules.
  std::size_t rule_count() const;
  /// Number of (switch, destination) entries.
  std::size_t entry_count() const;
  /// Sum of all rule weights across the table.
  std::uint64_t total_weight() const;
  /// Largest per-switch rule count (TCAM pressure proxy).
  std::size_t max_rules_per_switch() const;

 private:
  std::vector<std::unordered_map<NodeId, std::vector<WeightedHop>>> tables_;
  std::uint32_t weight_budget_;
  static const std::vector<WeightedHop> kEmpty;
};

/// Outcome of a weighted-FIB model check (mirrors routing::FibVerification).
struct WeightedFibVerification {
  bool ok = false;
  std::size_t pairs_checked = 0;
  std::uint32_t max_walk_hops = 0;  ///< longest greedy walk seen
  std::string error;                ///< first violation description
};

/// Model-checks the weighted FIB for the given pairs: from src, every
/// choice of positive-weight next hop must reach dst within `hop_limit`
/// hops without revisiting a switch (exhaustive DFS over choices), every
/// stored rule must carry a positive weight, and every non-empty entry's
/// weights must sum to the table's weight budget. The Report-style variant
/// with per-violation codes is check::validate_weighted_fib.
WeightedFibVerification verify_weighted_fib(
    const topo::Topology& topo, const WeightedFib& fib,
    const std::vector<std::pair<NodeId, NodeId>>& pairs, std::uint32_t hop_limit = 32);

}  // namespace flattree::te
