#pragma once
// Mapping/routing evaluation: link loads, bandwidth feasibility
// (Inequality 3), communication cost (Equation 7) and the minimum uniform
// link bandwidth figure reported in Figure 4.

#include <vector>

#include "noc/commodity.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"

namespace nocmap::noc {

class EvalContext; // eval_context.hpp

/// Aggregate traffic per link, indexed by LinkId; MB/s.
using LinkLoads = std::vector<double>;

/// Accumulates the loads of single-path routes (routes[k] carries
/// commodities[k].value on each of its links). Sizes must match.
LinkLoads accumulate_loads(const Topology& topo, const std::vector<Commodity>& commodities,
                           const std::vector<Route>& routes);

/// Loads under XY dimension-ordered routing.
LinkLoads xy_loads(const Topology& topo, const std::vector<Commodity>& commodities);

/// Largest link load; 0 for an idle network.
double max_load(const LinkLoads& loads);

/// Inequality 3: every link's load within its capacity (+eps slack).
bool satisfies_bandwidth(const Topology& topo, const LinkLoads& loads, double eps = 1e-6);

/// Total capacity violation Σ max(0, load - capacity) — the quantity MCF1's
/// slack variables measure.
double total_violation(const Topology& topo, const LinkLoads& loads);

/// Equation 7: Σ_k vl(d_k) · dist(source(d_k), dest(d_k)), one distance
/// table load per commodity. Depends only on the mapping (every minimal
/// route realizes it); units: hops · MB/s.
double communication_cost(const EvalContext& ctx, const std::vector<Commodity>& commodities);

/// Σ over links of routed flow — the MCF2 objective. For single-path minimal
/// routing this equals communication_cost().
double total_flow(const LinkLoads& loads);

/// Minimum uniform link bandwidth that would make these loads feasible
/// (= max load): the y-axis of Figure 4.
inline double min_uniform_bandwidth(const LinkLoads& loads) { return max_load(loads); }

/// Average hops per unit of traffic (commcost / total demand); a secondary
/// delay proxy used in reports.
double average_weighted_hops(const EvalContext& ctx, const std::vector<Commodity>& commodities);

} // namespace nocmap::noc
