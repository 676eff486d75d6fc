#pragma once
// Frank–Wolfe approximation of the MCF programs.
//
// Exact simplex on every pairwise swap would dominate NMAP's runtime (the
// paper itself notes the ILP variant of path search takes minutes while the
// heuristic takes seconds and lands within 10% — we follow the same
// philosophy for the split-traffic inner loop). The approximation routes
// each commodity all-or-nothing on a derivative-priced shortest path and
// averages iterates with the classic 2/(t+2) step, which converges to the
// optimum of the smoothed convex surrogate of each objective:
//
//   MinSlack   — potential Σ_l max(0, load_l - cap_l)^2
//   MinFlow    — potential Σ_l load_l + μ Σ_l max(0, load_l - cap_l)^2/cap_l
//   MinMaxLoad — potential Σ_l (load_l / scale)^p, p = 8 (soft max)
//
// Flow conservation holds *exactly* at every iterate (each all-or-nothing
// assignment is a valid path flow, and convex combinations preserve Eq. 5).

#include "lp/mcf.hpp"

namespace nocmap::lp {

/// Approximate engine behind solve_mcf(use_exact_lp = false). `allowed` is
/// the per-commodity allowed-link list (lp::allowed_links) of quadrant
/// mode, where it is required; all-paths mode ignores it. `warm` carries
/// state across consecutive solves: with options.warm_start set,
/// commodities whose endpoints did not move since the previous solve start
/// from their converged flows (with a matching later step-size schedule)
/// and the iteration loop exits early once the objective stops improving;
/// the converged objective matches a cold run within the engine's own
/// convergence tolerance. Without warm_start the cold iteration sequence
/// is untouched (bit-identical results); the warm state still caches the
/// shared all-paths routing graph.
McfResult solve_mcf_approx(const noc::Topology& topo,
                           const std::vector<noc::Commodity>& commodities,
                           const McfOptions& options,
                           const std::vector<std::vector<noc::LinkId>>* allowed,
                           ApproxWarmState* warm);

} // namespace nocmap::lp
