#pragma once
// Shared runners for the paper-reproduction benches.
//
// Every bench binary prints its table/figure reproduction first (plain
// deterministic computation) and then hands over to google-benchmark for
// timing of the underlying algorithms.

#include <chrono>
#include <string>
#include <vector>

#include "graph/core_graph.hpp"
#include "lp/mcf.hpp"
#include "noc/eval_context.hpp"

namespace nocmap::bench {

/// Effectively-unconstrained link capacity used when a mapping algorithm
/// should optimize cost only (Figures 3/4 measure the resulting loads).
constexpr double kAmpleCapacity = 1e9;

/// The smallest mesh for an application, with ample capacity.
noc::Topology ample_mesh_for(const graph::CoreGraph& graph);

/// Equation-7 cost of a complete mapping.
double mapping_cost(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                    const noc::Mapping& mapping);

/// Peak link load under XY dimension-ordered routing (the "D" series of
/// Figure 4).
double dimension_ordered_bandwidth(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                                   const noc::Mapping& mapping);

/// Peak link load under NMAP's congestion-aware single-min-path routing.
double min_path_bandwidth(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                          const noc::Mapping& mapping);

/// Minimum uniform bandwidth with split traffic (exact LP MinMaxLoad);
/// quadrant=true restricts to minimum paths (NMAPTM), false is NMAPTA.
double split_bandwidth(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                       const noc::Mapping& mapping, bool quadrant);

/// Figure 4's NMAPTM/NMAPTA series: the best bandwidth over (a) re-routing
/// the given cost-optimal NMAP mapping with split traffic and (b) the
/// bandwidth-optimizing split swap search (SplitOptions::optimize_bandwidth).
double best_split_bandwidth(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                            const noc::Mapping& nmap_mapping, bool quadrant);

/// Convenience: run the four mapping algorithms of Figure 3 and return
/// their Eq.7 costs, in the paper's order {PMAP, GMAP, PBB, NMAP}.
struct Fig3Row {
    std::string app;
    double pmap = 0.0;
    double gmap = 0.0;
    double pbb = 0.0;
    double nmap = 0.0;
};
std::vector<Fig3Row> run_fig3_costs();

/// Writes a CSV next to the binary's working directory; failures are
/// reported to stderr but never abort a bench.
void try_write_csv(const std::string& path, const std::vector<std::string>& header,
                   const std::vector<std::vector<std::string>>& rows);

/// Milliseconds elapsed since `start` on the steady clock.
inline double ms_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     start)
        .count();
}

} // namespace nocmap::bench
