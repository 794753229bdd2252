#include "te/weighted_fib.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "routing/ecmp.hpp"
#include "util/rng.hpp"

namespace flattree::te {

const std::vector<WeightedHop> WeightedFib::kEmpty{};

WeightedFib::WeightedFib(std::size_t switches, std::uint32_t weight_budget)
    : tables_(switches), weight_budget_(weight_budget) {
  if (weight_budget == 0)
    throw std::invalid_argument("WeightedFib: weight budget must be positive");
}

void WeightedFib::add_route(NodeId at, NodeId dst, graph::LinkId link,
                            std::uint32_t weight) {
  auto& hops = tables_.at(at)[dst];
  for (WeightedHop& hop : hops)
    if (hop.link == link) {
      hop.weight += weight;
      return;
    }
  hops.push_back({link, weight});
}

const std::vector<WeightedHop>& WeightedFib::next_hops(NodeId at, NodeId dst) const {
  const auto& table = tables_.at(at);
  auto it = table.find(dst);
  return it == table.end() ? kEmpty : it->second;
}

graph::LinkId WeightedFib::select(NodeId at, NodeId dst, std::uint64_t flow_id) const {
  const auto& hops = next_hops(at, dst);
  std::uint64_t total = 0;
  for (const WeightedHop& hop : hops) total += hop.weight;
  if (total == 0)
    throw std::runtime_error("WeightedFib::select: no positive-weight route installed");
  std::uint64_t h =
      util::mix64(flow_id ^ ((static_cast<std::uint64_t>(at) << 32) | dst));
  std::uint64_t point = h % total;
  for (const WeightedHop& hop : hops) {
    if (point < hop.weight) return hop.link;
    point -= hop.weight;
  }
  return hops.back().link;  // unreachable: point < total by construction
}

std::vector<NodeId> WeightedFib::destinations(NodeId at) const {
  std::vector<NodeId> dsts;
  dsts.reserve(tables_.at(at).size());
  for (const auto& [dst, hops] : tables_.at(at)) dsts.push_back(dst);
  std::sort(dsts.begin(), dsts.end());
  return dsts;
}

std::size_t WeightedFib::rule_count() const {
  std::size_t total = 0;
  for (const auto& table : tables_)
    for (const auto& [dst, hops] : table) total += hops.size();
  return total;
}

std::size_t WeightedFib::entry_count() const {
  std::size_t total = 0;
  for (const auto& table : tables_) total += table.size();
  return total;
}

std::uint64_t WeightedFib::total_weight() const {
  std::uint64_t total = 0;
  for (const auto& table : tables_)
    for (const auto& [dst, hops] : table)
      for (const WeightedHop& hop : hops) total += hop.weight;
  return total;
}

std::size_t WeightedFib::max_rules_per_switch() const {
  std::size_t best = 0;
  for (const auto& table : tables_) {
    std::size_t rules = 0;
    for (const auto& [dst, hops] : table) rules += hops.size();
    best = std::max(best, rules);
  }
  return best;
}

namespace {

/// Per-destination walk check over positive-weight rules, with the same
/// memoized good/on-stack scheme as routing::verify_fib.
class WeightedDestinationChecker {
 public:
  WeightedDestinationChecker(const topo::Topology& topo, const WeightedFib& fib,
                             NodeId dst, std::uint32_t hop_limit)
      : topo_(topo), fib_(fib), dst_(dst), hop_limit_(hop_limit),
        state_(topo.switch_count(), State::Unknown),
        depth_(topo.switch_count(), 0) {}

  /// Returns empty on success, else a violation description.
  std::string check(NodeId src, std::uint32_t& max_hops) {
    std::string err = visit(src);
    if (err.empty()) max_hops = std::max(max_hops, depth_[src]);
    return err;
  }

 private:
  enum class State : std::uint8_t { Unknown, OnStack, Good };

  std::string visit(NodeId u) {
    if (u == dst_) return {};
    if (state_[u] == State::Good) return {};
    if (state_[u] == State::OnStack) {
      std::ostringstream os;
      os << "forwarding loop through switch " << u << " toward " << dst_;
      return os.str();
    }
    const auto& hops = fib_.next_hops(u, dst_);
    std::uint32_t entry_weight = 0;
    for (const WeightedHop& hop : hops) {
      if (hop.weight == 0) {
        std::ostringstream os;
        os << "zero-weight rule at switch " << u << " toward " << dst_ << " via link "
           << hop.link << " (should have been pruned)";
        return os.str();
      }
      entry_weight += hop.weight;
    }
    if (hops.empty() || entry_weight == 0) {
      std::ostringstream os;
      os << "blackhole: switch " << u << " has no positive-weight route toward "
         << dst_;
      return os.str();
    }
    if (entry_weight != fib_.weight_budget()) {
      std::ostringstream os;
      os << "weight conservation violated at switch " << u << " toward " << dst_
         << ": weights sum to " << entry_weight << ", budget is "
         << fib_.weight_budget();
      return os.str();
    }
    state_[u] = State::OnStack;
    std::uint32_t worst = 0;
    for (const WeightedHop& hop : hops) {
      NodeId v = topo_.graph().link(hop.link).other(u);
      std::string err = visit(v);
      if (!err.empty()) return err;
      worst = std::max(worst, (v == dst_ ? 0u : depth_[v]) + 1u);
    }
    if (worst > hop_limit_) {
      std::ostringstream os;
      os << "walk from switch " << u << " toward " << dst_ << " exceeds " << hop_limit_
         << " hops";
      return os.str();
    }
    depth_[u] = worst;
    state_[u] = State::Good;
    return {};
  }

  const topo::Topology& topo_;
  const WeightedFib& fib_;
  NodeId dst_;
  std::uint32_t hop_limit_;
  std::vector<State> state_;
  std::vector<std::uint32_t> depth_;
};

}  // namespace

WeightedFibVerification verify_weighted_fib(
    const topo::Topology& topo, const WeightedFib& fib,
    const std::vector<std::pair<NodeId, NodeId>>& pairs, std::uint32_t hop_limit) {
  WeightedFibVerification result;
  // Group sources by destination so memoization is shared; ascending
  // destinations make the reported violation independent of hashing.
  for (const auto& [dst, sources] : routing::sources_by_destination(pairs)) {
    WeightedDestinationChecker checker(topo, fib, dst, hop_limit);
    for (NodeId src : sources) {
      std::string err = checker.check(src, result.max_walk_hops);
      ++result.pairs_checked;
      if (!err.empty()) {
        result.error = err;
        result.ok = false;
        return result;
      }
    }
  }
  result.ok = true;
  return result;
}

}  // namespace flattree::te
