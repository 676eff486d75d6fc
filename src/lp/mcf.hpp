#pragma once
// Multi-commodity-flow formulations of the paper (Section 6).
//
//  * MinSlack  — MCF1 (Eq. 8): minimize total capacity violation.
//  * MinFlow   — MCF2 (Eq. 9): minimize total routed flow subject to link
//                capacities (equals bandwidth-weighted hop count).
//  * MinMaxLoad — auxiliary program: minimize the uniform link bandwidth
//                needed to carry all traffic (the Figure 4 metric for the
//                split-routing series NMAPTM / NMAPTA).
//
// Each can be restricted to the source–destination quadrant of every
// commodity (Eq. 10) — split across *minimum* paths only (the "TM" mode,
// equal hop delay, low jitter) — or allowed to use all paths ("TA").
//
// Two engines: the exact simplex LP (lp/simplex) and a fast Frank–Wolfe
// approximation (lp/mcf_approx) used inside NMAP's pairwise-swap loop.

#include <vector>

#include "lp/simplex.hpp"
#include "noc/commodity.hpp"
#include "noc/eval_context.hpp"
#include "noc/evaluation.hpp"
#include "noc/topology.hpp"

namespace nocmap::lp {

enum class McfObjective {
    MinSlack,   ///< MCF1
    MinFlow,    ///< MCF2
    MinMaxLoad, ///< min uniform capacity
};

struct McfOptions {
    McfObjective objective = McfObjective::MinFlow;
    /// Eq. 10: flow variables restricted to each commodity's quadrant.
    bool quadrant_restricted = false;
    /// Exact simplex (true) or Frank–Wolfe approximation (false).
    bool use_exact_lp = true;
    /// Iterations for the approximate engine.
    std::size_t approx_iterations = 48;
    /// Reuse solver state across consecutive solves of perturbed instances.
    /// Only meaningful through an McfSolver (or an ApproxWarmState handle):
    /// the exact engine then re-solves a fixed LP skeleton from the previous
    /// optimal basis, and the Frank–Wolfe engine seeds its initial flow from
    /// the previous candidate's solution. Off by default — the warm paths
    /// converge to the same objectives but may pick different cost-equal
    /// optima, so the default results stay bit-identical to the one-shot
    /// engines.
    bool warm_start = false;
    SimplexOptions simplex{};
};

struct McfResult {
    bool solved = false;   ///< engine completed (LP optimal / FW converged)
    bool feasible = false; ///< bandwidth constraints satisfiable
    /// MinSlack: Σ slack; MinFlow: Σ flow; MinMaxLoad: max load.
    double objective = 0.0;
    noc::LinkLoads loads;                   ///< aggregate per-link traffic
    std::vector<std::vector<double>> flows; ///< [commodity][link] traffic
    LpStatus status = LpStatus::IterationLimit;
};

/// Solves the selected MCF program for a fixed mapping (commodities already
/// carry tile endpoints). Quadrant membership comes from the context's
/// distance table.
McfResult solve_mcf(const noc::EvalContext& ctx, const std::vector<noc::Commodity>& commodities,
                    const McfOptions& options = {});

/// Links commodity k may use: all links, or (quadrant mode) links whose
/// both endpoints lie in the quadrant of (src_tile, dst_tile).
std::vector<noc::LinkId> allowed_links(const noc::EvalContext& ctx, const noc::Commodity& c,
                                       bool quadrant_restricted);

/// Warm-start scratch of the Frank–Wolfe engine, carried by the caller
/// across consecutive solves (see McfOptions::warm_start). Holds the
/// previous converged per-commodity flows (seeds for commodities whose
/// endpoints did not move) and the shared all-paths routing graph.
struct ApproxWarmState {
    bool valid = false;
    std::vector<noc::Commodity> prev;       ///< commodity set of the previous solve
    std::vector<std::vector<double>> flows; ///< its converged [commodity][link] flows
    /// Cached all-paths routing adjacency: out[tile] = (link, next tile).
    std::vector<std::vector<std::pair<noc::LinkId, noc::TileId>>> all_paths_out;
};

/// Persistent MCF engine for a chain of per-candidate instances — the swap
/// sweeps of the split mappers solve the same program over and over with
/// only the commodity tile endpoints moving. The solver keeps:
///
///   * exact engine, all-paths mode: one LP skeleton per (topology,
///     commodity count) — variables, conservation rows (dropping the rows
///     of the fixed last tile instead of each commodity's destination, so
///     the structure is mapping-independent) and capacity rows are built
///     once; each candidate only rewrites the conservation RHS and
///     re-solves through a SimplexSolver, which warm-restarts from the
///     previous optimal basis (candidates differ by RHS only);
///   * approximate engine: an ApproxWarmState (flow seeding + shared
///     routing graph);
///   * exact engine, quadrant mode: the column structure changes with the
///     mapping, so every candidate is built fresh and solved cold (the
///     documented fallback).
///
/// The caller must keep the EvalContext alive for the solver's lifetime.
/// With warm_start=false the solver simply forwards to solve_mcf().
class McfSolver {
public:
    McfSolver(const noc::EvalContext& ctx, McfOptions options);

    /// Solves for the given commodity endpoints. The warm paths engage when
    /// the commodity count matches the previous call; anything else
    /// rebuilds from scratch (correct, just cold).
    McfResult solve(const std::vector<noc::Commodity>& commodities);

    struct Stats {
        std::size_t solves = 0;
        std::size_t skeleton_rebuilds = 0; ///< exact skeleton constructions
    };
    const Stats& stats() const noexcept { return stats_; }
    /// The underlying simplex engine (warm/cold/pivot counters).
    const SimplexSolver& simplex() const noexcept { return simplex_; }

private:
    void build_skeleton(const std::vector<noc::Commodity>& commodities);
    McfResult solve_skeleton(const std::vector<noc::Commodity>& commodities);

    const noc::EvalContext& ctx_;
    McfOptions options_;
    SimplexSolver simplex_;
    ApproxWarmState approx_warm_;
    Stats stats_;

    // Exact all-paths skeleton. Flow variable of (commodity k, link l) is
    // k * link_count + l; conservation_row_[k * tile_count + node] is the
    // row index of that node's conservation constraint (-1 when dropped).
    bool skeleton_valid_ = false;
    std::size_t skeleton_commodities_ = 0;
    LpProblem skeleton_;
    std::vector<std::int32_t> slack_var_;
    std::int32_t z_var_ = -1;
    std::vector<std::int32_t> conservation_row_;
    std::vector<std::size_t> dirty_rows_; ///< rows whose rhs is nonzero
};

/// Verifies Eq. 5/6 flow conservation of a per-commodity flow matrix;
/// returns the largest violation found (0 for a perfect solution).
double max_conservation_violation(const noc::Topology& topo,
                                  const std::vector<noc::Commodity>& commodities,
                                  const std::vector<std::vector<double>>& flows);

/// Decomposes one commodity's fractional link flow into weighted paths
/// (weights sum to ~1 after normalization) — this is how the split-traffic
/// solution becomes the NoC's multipath routing tables. Tiny residuals and
/// flow cycles below `eps` (relative to the commodity value) are discarded.
std::vector<std::pair<noc::Route, double>> decompose_into_paths(
    const noc::Topology& topo, const noc::Commodity& commodity,
    const std::vector<double>& flow, double eps = 1e-6);

} // namespace nocmap::lp
