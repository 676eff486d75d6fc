#pragma once
// mappingwithsplitting() (Section 6): NMAP with traffic splitting.
//
// Phase 1 searches pairwise swaps with MCF1 (slack minimization) until a
// mapping satisfying the bandwidth constraints is found; phase 2 continues
// the swap search with MCF2 (total-flow minimization) to improve the cost.
//
// Phase 2 skips LP solves whose outcome is already known. Every unit of a
// commodity crosses at least dist(src, dst) links, so a candidate's MCF2
// objective is at least its Eq. 7 cost (equal in MinPaths mode). A
// candidate whose Eq. 7 cost, available in O(deg) from an incremental
// evaluator, already reaches the incumbent's flow is rejected unsolved.
// The final polish solves MCF2 first: a feasible flow is the result
// and proves MCF1's slack is zero; only an infeasible one falls through to
// MCF1, which supplies the least-violating loads and flows.
//
// SplitMode::MinPaths restricts every commodity's flow to its quadrant
// (Eq. 10) — traffic split across minimum paths only, equal hop delay, low
// jitter (the paper's NMAPTM series). SplitMode::AllPaths is NMAPTA.

#include <functional>

#include "graph/core_graph.hpp"
#include "lp/mcf.hpp"
#include "nmap/result.hpp"
#include "noc/topology.hpp"

namespace nocmap::nmap {

enum class SplitMode {
    AllPaths, ///< NMAPTA
    MinPaths, ///< NMAPTM (quadrant-restricted, Eq. 10)
};

/// Inner MCF engine selection for the per-swap evaluations.
enum class McfEngine {
    Auto,   ///< follow SplitOptions::exact_inner_lp (the legacy knob)
    Exact,  ///< exact simplex on every swap
    Approx, ///< Frank–Wolfe approximation on every swap
};

struct SplitOptions {
    SplitMode mode = SplitMode::AllPaths;
    /// Engine for the per-swap MCF evaluations. The exact simplex on every
    /// swap reproduces the paper literally but costs minutes; the default
    /// follows the paper's own speed/quality trade-off (cf. its ILP remark)
    /// and uses the Frank–Wolfe approximation inside the loop.
    bool exact_inner_lp = false;
    /// Overrides exact_inner_lp when not Auto.
    McfEngine mcf_engine = McfEngine::Auto;
    /// Warm-start the inner engines across consecutive swap candidates: the
    /// exact simplex re-solves a fixed LP skeleton from the previous optimal
    /// basis, the Frank–Wolfe engine seeds flows from the previous
    /// candidate's solution (see lp::McfSolver). Objectives and feasibility
    /// verdicts match the cold engines; tie-breaking among cost-equal
    /// optimal *flows* may differ, hence default off for bit-stable output.
    /// Phase 2's lower-bound prune skips candidates, so the warm chain is
    /// shorter than the candidate stream and can steer the search apart.
    bool warm_start = false;
    /// Iterations for the approximate inner engine.
    std::size_t approx_iterations = 32;
    /// Re-score the final mapping with the exact simplex LP (recommended;
    /// this is what the reported cost/flows come from).
    bool exact_final_polish = true;
    /// Number of pairwise-swap sweeps (1 = the paper's pseudocode).
    std::size_t max_sweeps = 1;
    /// Figure-4 variant: instead of MCF1/MCF2 under fixed capacities, the
    /// swap search minimizes the *min-max link load* — i.e. it looks for the
    /// mapping that needs the least uniform link bandwidth under the chosen
    /// split mode. The result's loads/flows come from the exact MinMaxLoad
    /// program, so MappingResult::min_bandwidth() is the Figure-4 number;
    /// comm_cost still reports the MCF2 flow of the final mapping.
    bool optimize_bandwidth = false;
    /// Phase-1 shortcut: keep an engine::IncrementalRouter (Exact mode) on
    /// the sweep's base mapping and skip a candidate's MCF1 slack solve
    /// when the O(deg) single-path re-route already proves the bandwidth
    /// constraints hold (a single-path routing is an MCF-feasible flow for
    /// both split modes, so the shortcut is sound). Default off: the
    /// approximate MCF1 engine may fail to certify a feasible candidate
    /// that the router certifies, so the sweep's phase-1 decisions — and
    /// with them the final mapping — can legitimately differ.
    bool routing_prefilter = false;
    /// Cooperative cancellation, polled at sweep-row boundaries (see
    /// engine::SweepOptions::cancel); the best mapping so far still gets
    /// its final exact scoring.
    std::function<bool()> cancel;
};

/// Runs NMAP with split-traffic routing. `comm_cost` is the MCF2 objective
/// (total flow = bandwidth-weighted hops); `flows` carries the per-commodity
/// split so routing tables can be generated.
MappingResult map_with_splitting(const graph::CoreGraph& graph, const noc::Topology& topo,
                                 const SplitOptions& options = {});

/// Context-threaded variant: quadrant construction and the MCF engines use
/// the shared EvalContext; the topology overload wraps a borrowed context.
/// Bit-identical to the topology overload for every option set.
MappingResult map_with_splitting(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                                 const SplitOptions& options = {});

} // namespace nocmap::nmap
