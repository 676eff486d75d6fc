#include "nmap/split.hpp"

#include <cmath>
#include <limits>
#include <optional>

#include "engine/incremental_cost.hpp"
#include "engine/incremental_router.hpp"
#include "engine/sweep.hpp"
#include "nmap/initialize.hpp"
#include "noc/commodity.hpp"
#include "util/log.hpp"

namespace nocmap::nmap {

namespace {

bool use_exact_inner(const SplitOptions& options) {
    switch (options.mcf_engine) {
    case McfEngine::Exact: return true;
    case McfEngine::Approx: return false;
    case McfEngine::Auto: break;
    }
    return options.exact_inner_lp;
}

lp::McfOptions make_mcf_options(const SplitOptions& options, lp::McfObjective objective,
                                bool exact) {
    lp::McfOptions mcf;
    mcf.objective = objective;
    mcf.quadrant_restricted = options.mode == SplitMode::MinPaths;
    mcf.use_exact_lp = exact;
    mcf.approx_iterations = options.approx_iterations;
    mcf.warm_start = options.warm_start;
    return mcf;
}

/// Graph-side commodity skeleton (id, cores, value), built once per run;
/// each candidate only rewrites the tile endpoints via remap_commodities.
/// Remapped, this equals build_commodities(graph, mapping) exactly.
std::vector<noc::Commodity> graph_commodities(const graph::CoreGraph& graph) {
    std::vector<noc::Commodity> commodities;
    commodities.reserve(graph.edge_count());
    std::int32_t id = 0;
    for (const graph::CoreEdge& e : graph.edges()) {
        noc::Commodity c;
        c.id = id++;
        c.src_core = e.src;
        c.dst_core = e.dst;
        c.value = e.bandwidth;
        commodities.push_back(c);
    }
    return commodities;
}

/// One inner MCF engine slot: a persistent warm McfSolver when the options
/// ask for warm starts, the one-shot context solve otherwise.
class InnerMcf {
public:
    InnerMcf(const noc::EvalContext& ctx, lp::McfOptions options)
        : ctx_(ctx), options_(std::move(options)) {
        if (options_.warm_start) solver_.emplace(ctx_, options_);
    }

    lp::McfResult solve(const std::vector<noc::Commodity>& commodities) {
        if (solver_) return solver_->solve(commodities);
        return lp::solve_mcf(ctx_, commodities, options_);
    }

private:
    const noc::EvalContext& ctx_;
    lp::McfOptions options_;
    std::optional<lp::McfSolver> solver_;
};

/// Two-phase MCF sweep policy (the body of mappingwithsplitting()):
/// phase 1 minimizes the MCF1 slack until some candidate satisfies the
/// bandwidth constraints, phase 2 minimizes the MCF2 total flow. Encoded in
/// engine::Score as primary = MCF2 cost (kMaxValue before feasibility),
/// secondary = slack, so the driver's standard acceptance rule reproduces
/// the seed algorithm's decisions exactly. Stateful (the scoring mode flips
/// mid-row), hence not parallel_safe.
///
/// Phase 2 prunes with the Eq. 7 lower bound before any LP: every unit of
/// commodity k crosses at least dist(src_k, dst_k) links, so the MCF2
/// objective of any conserving flow (exact simplex, Frank–Wolfe path
/// blends, warm or cold) is at least the candidate's Eq. 7 cost, with
/// equality in MinPaths mode. An engine::IncrementalEvaluator bound to the
/// sweep's `placed` mapping yields that cost in O(deg); a candidate whose
/// bound reaches the incumbent plus a rounding guard could never satisfy
/// better_than, so it is rejected unsolved and counts one (swap-delta)
/// evaluation, like the solve it replaces.
class SplitPolicy final : public engine::SweepPolicy {
public:
    SplitPolicy(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                const lp::McfOptions& slack_mcf, const lp::McfOptions& flow_mcf,
                bool routing_prefilter)
        : graph_(graph), ctx_(ctx), slack_(ctx, slack_mcf), flow_(ctx, flow_mcf),
          routing_prefilter_(routing_prefilter), commodities_(graph_commodities(graph)) {}

    engine::Score evaluate(const noc::Mapping& mapping) override {
        count_evaluation();
        if (!bw_satisfied_ && routed_feasible(mapping, noc::kInvalidTile, noc::kInvalidTile))
            bw_satisfied_ = true;
        if (!bw_satisfied_) {
            noc::remap_commodities(commodities_, mapping);
            const lp::McfResult slack = slack_.solve(commodities_);
            if (!slack.feasible)
                return engine::Score{engine::kMaxValue, slack.objective, false};
            bw_satisfied_ = true;
        }
        count_evaluation();
        noc::remap_commodities(commodities_, mapping);
        const lp::McfResult cost = flow_.solve(commodities_);
        return feasible_score(cost);
    }

    engine::Score evaluate_swap(const noc::Mapping& base, const engine::Score&,
                                const engine::Score& incumbent, noc::TileId a,
                                noc::TileId b) override {
        if (bw_satisfied_ && incumbent.primary < engine::kMaxValue) {
            const double bound = evaluator_->cost() + evaluator_->swap_delta(a, b);
            const double guard = 1e-6 * (1.0 + std::abs(incumbent.primary));
            if (bound >= incumbent.primary + guard) {
                count_evaluation();
                ++pruned_;
                return engine::Score::rejected();
            }
        }
        noc::Mapping candidate = base;
        candidate.swap_tiles(a, b);
        if (!bw_satisfied_) {
            if (routed_feasible(base, a, b)) {
                // The O(deg) single-path re-route already satisfies the
                // bandwidth constraints — a fortiori so does the best
                // split-traffic flow; skip the MCF1 solve.
                bw_satisfied_ = true;
            } else {
                count_evaluation();
                noc::remap_commodities(commodities_, candidate);
                const lp::McfResult slack = slack_.solve(commodities_);
                if (!slack.feasible)
                    return engine::Score{engine::kMaxValue, slack.objective, false};
                // First bandwidth-satisfying candidate: switch to the cost
                // phase. It beats any infeasible incumbent by construction.
                bw_satisfied_ = true;
            }
        }
        count_evaluation();
        noc::remap_commodities(commodities_, candidate);
        const lp::McfResult cost = flow_.solve(commodities_);
        return feasible_score(cost);
    }

    void on_rebase(const noc::Mapping& placed, const engine::Score&) override {
        // Rebased every row, not only in phase 2: the phase can flip
        // mid-row, and the bound must then already describe `placed`.
        if (!evaluator_)
            evaluator_.emplace(graph_, ctx_, placed);
        else
            evaluator_->rebase(placed);
        if (!routing_prefilter_ || bw_satisfied_) return;
        if (!router_)
            router_.emplace(graph_, ctx_, placed);
        else
            router_->rebase(placed);
    }

    bool bw_satisfied() const noexcept { return bw_satisfied_; }
    /// Phase-2 candidates rejected by the Eq. 7 bound without an LP solve.
    std::size_t pruned() const noexcept { return pruned_; }

private:
    /// Prefilter check: true when single-path routing of `base` (or of
    /// `base` with a, b swapped) satisfies the bandwidth constraints.
    bool routed_feasible(const noc::Mapping& base, noc::TileId a, noc::TileId b) {
        if (!routing_prefilter_) return false;
        if (!router_)
            router_.emplace(graph_, ctx_, base);
        if (a == noc::kInvalidTile) return router_->feasible();
        // Only the verdict is read and the candidate is always rolled
        // back: any infeasible candidate may stop the replay early.
        const bool feasible =
            router_->reroute_swap(a, b, -std::numeric_limits<double>::infinity()).feasible;
        router_->rollback();
        return feasible;
    }

    static engine::Score feasible_score(const lp::McfResult& cost) {
        // Bandwidth holds even when the flow LP failed to converge: the
        // mapping is accepted (secondary -inf outranks every slack) but its
        // cost stays at maxvalue, exactly as the seed implementation did.
        if (!cost.feasible)
            return engine::Score{engine::kMaxValue,
                                 -std::numeric_limits<double>::infinity(), true};
        return engine::Score{cost.objective, 0.0, true};
    }

    const graph::CoreGraph& graph_;
    const noc::EvalContext& ctx_;
    InnerMcf slack_;
    InnerMcf flow_;
    const bool routing_prefilter_;
    std::vector<noc::Commodity> commodities_;
    std::optional<engine::IncrementalEvaluator> evaluator_;
    std::optional<engine::IncrementalRouter> router_;
    bool bw_satisfied_ = false;
    std::size_t pruned_ = 0;
};

/// Figure-4 variant policy: minimize the min-max link load (the uniform
/// bandwidth the design would need) under the split mode.
class BandwidthPolicy final : public engine::SweepPolicy {
public:
    BandwidthPolicy(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                    const lp::McfOptions& minmax_mcf)
        : ctx_(ctx), minmax_(ctx, minmax_mcf), commodities_(graph_commodities(graph)) {}

    engine::Score evaluate(const noc::Mapping& mapping) override {
        count_evaluation();
        noc::remap_commodities(commodities_, mapping);
        return engine::Score{minmax_.solve(commodities_).objective, 0.0, true};
    }

    engine::Score evaluate_swap(const noc::Mapping& base, const engine::Score&,
                                const engine::Score&, noc::TileId a,
                                noc::TileId b) override {
        noc::Mapping candidate = base;
        candidate.swap_tiles(a, b);
        return evaluate(candidate);
    }

private:
    const noc::EvalContext& ctx_;
    InnerMcf minmax_;
    std::vector<noc::Commodity> commodities_;
};

engine::SwapSweepDriver make_driver(const SplitOptions& options) {
    engine::SweepOptions sweep;
    sweep.max_sweeps = options.max_sweeps;
    sweep.cancel = options.cancel;
    return engine::SwapSweepDriver(sweep);
}

/// Final exact scoring of the chosen mapping (one-shot, never warm).
lp::McfResult polish_mcf(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                         const noc::Mapping& mapping, const SplitOptions& options,
                         lp::McfObjective objective, bool exact) {
    return lp::solve_mcf(ctx, noc::build_commodities(graph, mapping),
                         make_mcf_options(options, objective, exact));
}

MappingResult map_minimizing_bandwidth(const graph::CoreGraph& graph,
                                       const noc::EvalContext& ctx,
                                       const SplitOptions& options) {
    BandwidthPolicy policy(
        graph, ctx,
        make_mcf_options(options, lp::McfObjective::MinMaxLoad, use_exact_inner(options)));
    const engine::SweepOutcome outcome =
        make_driver(options).sweep(initial_mapping(graph, ctx.topology()), policy);

    MappingResult result;
    result.mapping = outcome.best;
    result.evaluations = policy.evaluations();

    // Final (exact) scoring of the chosen mapping.
    const bool exact = options.exact_final_polish || use_exact_inner(options);
    const lp::McfResult final_bw =
        polish_mcf(graph, ctx, outcome.best, options, lp::McfObjective::MinMaxLoad, exact);
    ++result.evaluations;
    result.feasible = final_bw.solved;
    result.loads = final_bw.loads;
    result.flows = final_bw.flows;
    const lp::McfResult final_cost =
        polish_mcf(graph, ctx, outcome.best, options, lp::McfObjective::MinFlow, exact);
    ++result.evaluations;
    result.comm_cost = final_cost.feasible ? final_cost.objective : kMaxValue;
    return result;
}

} // namespace

MappingResult map_with_splitting(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                                 const SplitOptions& options) {
    if (options.optimize_bandwidth) return map_minimizing_bandwidth(graph, ctx, options);

    SplitPolicy policy(
        graph, ctx,
        make_mcf_options(options, lp::McfObjective::MinSlack, use_exact_inner(options)),
        make_mcf_options(options, lp::McfObjective::MinFlow, use_exact_inner(options)),
        options.routing_prefilter);
    const engine::SweepOutcome outcome =
        make_driver(options).sweep(initial_mapping(graph, ctx.topology()), policy);

    MappingResult result;
    result.mapping = outcome.best;
    result.evaluations = policy.evaluations();

    // Final (exact) scoring of the chosen mapping. MinFlow goes first: a
    // feasible MCF2 flow already proves MCF1's slack is zero, so MinSlack
    // is only solved when MinFlow is infeasible, to report the
    // least-violating loads and flows.
    const bool exact = options.exact_final_polish || use_exact_inner(options);
    const lp::McfResult final_cost =
        polish_mcf(graph, ctx, outcome.best, options, lp::McfObjective::MinFlow, exact);
    ++result.evaluations;
    result.feasible = final_cost.feasible;
    if (result.feasible) {
        result.comm_cost = final_cost.objective;
        result.loads = final_cost.loads;
        result.flows = final_cost.flows;
    } else {
        const lp::McfResult final_slack =
            polish_mcf(graph, ctx, outcome.best, options, lp::McfObjective::MinSlack, exact);
        ++result.evaluations;
        result.comm_cost = kMaxValue;
        result.loads = final_slack.loads;
        result.flows = final_slack.flows;
    }
    util::log_debug("nmap.split") << "sweeps " << outcome.sweeps << " pruned " << policy.pruned()
                                  << " polish solves " << (result.feasible ? 1 : 2)
                                  << (policy.bw_satisfied() ? " cost " : " slack ")
                                  << (policy.bw_satisfied() ? outcome.best_score.primary
                                                            : outcome.best_score.secondary);
    return result;
}

MappingResult map_with_splitting(const graph::CoreGraph& graph, const noc::Topology& topo,
                                 const SplitOptions& options) {
    const noc::EvalContext ctx = noc::EvalContext::borrow(topo);
    return map_with_splitting(graph, ctx, options);
}

} // namespace nocmap::nmap
