#pragma once
// The Naive reference oracle for NMAP's single-path sweep: every candidate
// swap is scored by a full shortestpath() re-route (nmap::evaluate_mapping),
// exactly as the paper's pseudocode reads, on the real
// engine::SwapSweepDriver. map_with_single_path() prunes with Eq. 7 deltas
// and scores the survivors by the incremental router's bounded ledger
// replay; every result it returns must be bit-identical to this oracle's.

#include "engine/sweep.hpp"
#include "graph/core_graph.hpp"
#include "nmap/initialize.hpp"
#include "nmap/shortest_path_router.hpp"
#include "noc/eval_context.hpp"

namespace nocmap::testing_oracle {

class NaiveSinglePathPolicy final : public engine::SweepPolicy {
public:
    NaiveSinglePathPolicy(const graph::CoreGraph& graph, const noc::EvalContext& ctx)
        : graph_(graph), ctx_(ctx) {}

    engine::Score evaluate(const noc::Mapping& mapping) override {
        count_evaluation();
        const nmap::SinglePathRouting routed = nmap::evaluate_mapping(graph_, ctx_, mapping);
        return engine::Score{routed.cost, routed.max_load, routed.feasible};
    }

    engine::Score evaluate_swap(const noc::Mapping& base, const engine::Score&,
                                const engine::Score&, noc::TileId a, noc::TileId b) override {
        noc::Mapping candidate = base;
        candidate.swap_tiles(a, b);
        return evaluate(candidate);
    }

    // Stateless apart from the atomic evaluation counter.
    bool parallel_safe() const override { return true; }

private:
    const graph::CoreGraph& graph_;
    const noc::EvalContext& ctx_;
};

/// NMAP with the Naive policy: initialize(), `sweeps` greedy pairwise-swap
/// sweeps, and the final scoring of the winner — the reporting of
/// map_with_single_path, evaluations included. `threads` only spreads the
/// candidate scoring; the driver's lowest-index-first reduction makes the
/// outcome independent of it.
inline engine::MappingResult naive_single_path(const graph::CoreGraph& graph,
                                               const noc::EvalContext& ctx,
                                               std::size_t sweeps = 1,
                                               std::size_t threads = 1) {
    NaiveSinglePathPolicy policy(graph, ctx);
    engine::SweepOptions options;
    options.max_sweeps = sweeps;
    options.threads = threads;
    const engine::SweepOutcome outcome = engine::SwapSweepDriver(options).sweep(
        nmap::initial_mapping(graph, ctx.topology()), policy);
    return nmap::scored_result(graph, ctx, outcome.best, policy.evaluations());
}

} // namespace nocmap::testing_oracle
