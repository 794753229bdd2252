#pragma once
// Degraded topology under a FaultState.
//
// degrade() is the one form: a fresh Topology with every link that touches
// a down switch or rides a down pair left out (failed switches stay as
// isolated nodes, so ids are stable, matching core::recovery's
// convention). graph::Graph is append-only, so a degraded fabric is always
// rebuilt rather than edited; faults only take links out of a fabric the
// converter configurations built.
//
// Strandedness at link granularity (a live switch with a dead uplink does
// not count as a home): a server is stranded when its host switch is down
// OR the host has degree zero in the degraded graph.

#include <cstdint>
#include <vector>

#include "fault/state.hpp"
#include "topo/topology.hpp"

namespace flattree::fault {

using topo::ServerId;

/// A degraded topology plus the bookkeeping of what the faults removed.
struct DegradeResult {
  topo::Topology topo;                 ///< degraded copy, same node ids
  std::vector<ServerId> stranded;      ///< host down or isolated, ascending
  std::size_t dropped_links = 0;       ///< links left out of `topo`
};

/// One-shot degraded rebuild of `base` under `state`.
DegradeResult degrade(const topo::Topology& base, const FaultState& state);

/// Servers of `t` not flagged in `stranded` (indexed by server id) that
/// lie in the connected component holding the most such servers; ties go
/// to the component with the smallest union-find root. Ascending. This is
/// the subset a degraded fabric's server APL is defined on, since
/// topo::server_apl_subset throws on disconnected pairs.
std::vector<ServerId> largest_alive_component(const topo::Topology& t,
                                              const std::vector<char>& stranded);

}  // namespace flattree::fault
