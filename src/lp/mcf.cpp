#include "lp/mcf.hpp"

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "lp/mcf_approx.hpp"

namespace nocmap::lp {

namespace {

/// Tiny per-unit-flow cost added to slack/min-max objectives so the LP does
/// not return flow cycles or needlessly long paths among cost-equal optima.
constexpr double kFlowRegularizer = 1e-6;

struct VariableLayout {
    // var_of[k][link] = LP variable id or -1 when the link is not allowed
    // for commodity k.
    std::vector<std::vector<std::int32_t>> var_of;
};

/// Per-link LP variable lookup for solution extraction: either the dense
/// lookup of solve_exact's layout or the implicit k*L+l layout of the
/// McfSolver skeleton.
using VarOf = std::function<std::int32_t(std::size_t k, std::size_t l)>;

/// Turns an optimal (or failed) LP solution into an McfResult: per-commodity
/// flows, aggregate loads and the objective/feasibility semantics of each
/// program.
McfResult extract_exact(const noc::Topology& topo,
                        const std::vector<noc::Commodity>& commodities,
                        const McfOptions& options, const LpSolution& lp, const VarOf& var_of,
                        const std::vector<std::int32_t>& slack_var, std::int32_t z_var) {
    const std::size_t link_count = topo.link_count();
    McfResult result;
    result.status = lp.status;
    result.solved = lp.status == LpStatus::Optimal;
    result.loads.assign(link_count, 0.0);
    result.flows.assign(commodities.size(), std::vector<double>(link_count, 0.0));
    if (!result.solved) {
        // MinFlow with tight capacities can be genuinely infeasible; that is
        // a meaningful answer, not an error.
        result.feasible = false;
        return result;
    }

    for (std::size_t k = 0; k < commodities.size(); ++k)
        for (std::size_t l = 0; l < link_count; ++l) {
            const std::int32_t v = var_of(k, l);
            if (v < 0) continue;
            const double flow = lp.x[static_cast<std::size_t>(v)];
            result.flows[k][l] = flow;
            result.loads[l] += flow;
        }

    switch (options.objective) {
    case McfObjective::MinSlack: {
        double slack_total = 0.0;
        for (std::size_t l = 0; l < link_count; ++l)
            slack_total += lp.x[static_cast<std::size_t>(slack_var[l])];
        result.objective = slack_total;
        result.feasible = slack_total <= 1e-6 * std::max(1.0, noc::total_value(commodities));
        break;
    }
    case McfObjective::MinFlow:
        result.objective = noc::total_flow(result.loads);
        result.feasible = true;
        break;
    case McfObjective::MinMaxLoad:
        result.objective = lp.x[static_cast<std::size_t>(z_var)];
        result.feasible = true;
        break;
    }
    return result;
}

McfResult solve_exact(const noc::Topology& topo,
                      const std::vector<noc::Commodity>& commodities,
                      const McfOptions& options,
                      const std::vector<std::vector<noc::LinkId>>& allowed) {
    const std::size_t link_count = topo.link_count();
    LpProblem problem;
    VariableLayout layout;
    layout.var_of.assign(commodities.size(),
                         std::vector<std::int32_t>(link_count, -1));

    const double flow_cost =
        options.objective == McfObjective::MinFlow ? 1.0 : kFlowRegularizer;

    // Flow variables.
    for (std::size_t k = 0; k < commodities.size(); ++k) {
        for (const noc::LinkId l : allowed[k]) {
            layout.var_of[k][static_cast<std::size_t>(l)] =
                problem.add_variable(flow_cost);
        }
    }

    // Slack / min-max auxiliaries.
    std::vector<std::int32_t> slack_var; // MinSlack: one per link
    std::int32_t z_var = -1;             // MinMaxLoad
    if (options.objective == McfObjective::MinSlack) {
        slack_var.assign(link_count, -1);
        for (std::size_t l = 0; l < link_count; ++l)
            slack_var[l] = problem.add_variable(1.0, "s" + std::to_string(l));
    } else if (options.objective == McfObjective::MinMaxLoad) {
        z_var = problem.add_variable(1.0, "z");
    }

    // Flow conservation (Eq. 5/6) per commodity and node; the destination
    // row is the negated sum of the others and is dropped to reduce
    // degeneracy.
    for (std::size_t k = 0; k < commodities.size(); ++k) {
        const noc::Commodity& c = commodities[k];
        for (std::size_t node = 0; node < topo.tile_count(); ++node) {
            const auto u = static_cast<noc::TileId>(node);
            if (u == c.dst_tile) continue;
            std::vector<std::pair<std::int32_t, double>> terms;
            for (const noc::LinkId l : topo.out_links(u)) {
                const std::int32_t v = layout.var_of[k][static_cast<std::size_t>(l)];
                if (v >= 0) terms.emplace_back(v, 1.0);
            }
            for (const noc::LinkId l : topo.in_links(u)) {
                const std::int32_t v = layout.var_of[k][static_cast<std::size_t>(l)];
                if (v >= 0) terms.emplace_back(v, -1.0);
            }
            const double rhs = (u == c.src_tile) ? c.value : 0.0;
            if (terms.empty()) {
                if (rhs != 0.0)
                    throw std::logic_error("MCF: source has no allowed outgoing links");
                continue;
            }
            problem.add_constraint(std::move(terms), Relation::Equal, rhs);
        }
    }

    // Capacity rows (Inequality 3, with the objective-specific auxiliary).
    for (std::size_t l = 0; l < link_count; ++l) {
        std::vector<std::pair<std::int32_t, double>> terms;
        for (std::size_t k = 0; k < commodities.size(); ++k) {
            const std::int32_t v = layout.var_of[k][l];
            if (v >= 0) terms.emplace_back(v, 1.0);
        }
        if (terms.empty()) continue;
        switch (options.objective) {
        case McfObjective::MinSlack:
            terms.emplace_back(slack_var[l], -1.0);
            problem.add_constraint(std::move(terms), Relation::LessEqual,
                                   topo.link(static_cast<noc::LinkId>(l)).capacity);
            break;
        case McfObjective::MinFlow:
            problem.add_constraint(std::move(terms), Relation::LessEqual,
                                   topo.link(static_cast<noc::LinkId>(l)).capacity);
            break;
        case McfObjective::MinMaxLoad:
            terms.emplace_back(z_var, -1.0);
            problem.add_constraint(std::move(terms), Relation::LessEqual, 0.0);
            break;
        }
    }

    const LpSolution lp = solve_lp(problem, options.simplex);
    return extract_exact(topo, commodities, options, lp,
                         [&layout](std::size_t k, std::size_t l) {
                             return layout.var_of[k][l];
                         },
                         slack_var, z_var);
}

std::vector<std::vector<noc::LinkId>> allowed_per_commodity(
    const noc::EvalContext& ctx, const std::vector<noc::Commodity>& commodities,
    bool quadrant_restricted) {
    std::vector<std::vector<noc::LinkId>> allowed;
    allowed.reserve(commodities.size());
    for (const noc::Commodity& c : commodities)
        allowed.push_back(allowed_links(ctx, c, quadrant_restricted));
    return allowed;
}

} // namespace

std::vector<noc::LinkId> allowed_links(const noc::EvalContext& ctx, const noc::Commodity& c,
                                       bool quadrant_restricted) {
    const noc::Topology& topo = ctx.topology();
    std::vector<noc::LinkId> links;
    if (!quadrant_restricted) {
        links.resize(topo.link_count());
        for (std::size_t l = 0; l < topo.link_count(); ++l)
            links[l] = static_cast<noc::LinkId>(l);
        return links;
    }
    for (std::size_t l = 0; l < topo.link_count(); ++l) {
        const noc::Link& link = topo.link(static_cast<noc::LinkId>(l));
        if (ctx.in_quadrant(link.src, c.src_tile, c.dst_tile) &&
            ctx.in_quadrant(link.dst, c.src_tile, c.dst_tile))
            links.push_back(static_cast<noc::LinkId>(l));
    }
    return links;
}

double max_conservation_violation(const noc::Topology& topo,
                                  const std::vector<noc::Commodity>& commodities,
                                  const std::vector<std::vector<double>>& flows) {
    if (flows.size() != commodities.size())
        throw std::invalid_argument("max_conservation_violation: size mismatch");
    double worst = 0.0;
    for (std::size_t k = 0; k < commodities.size(); ++k) {
        const noc::Commodity& c = commodities[k];
        for (std::size_t node = 0; node < topo.tile_count(); ++node) {
            const auto u = static_cast<noc::TileId>(node);
            double net = 0.0;
            for (const noc::LinkId l : topo.out_links(u))
                net += flows[k][static_cast<std::size_t>(l)];
            for (const noc::LinkId l : topo.in_links(u))
                net -= flows[k][static_cast<std::size_t>(l)];
            double expected = 0.0;
            if (u == c.src_tile) expected = c.value;
            else if (u == c.dst_tile) expected = -c.value;
            worst = std::max(worst, std::abs(net - expected));
        }
    }
    return worst;
}

std::vector<std::pair<noc::Route, double>> decompose_into_paths(
    const noc::Topology& topo, const noc::Commodity& commodity,
    const std::vector<double>& flow, double eps) {
    if (flow.size() != topo.link_count())
        throw std::invalid_argument("decompose_into_paths: flow vector size mismatch");
    std::vector<double> residual = flow;
    const double threshold = std::max(eps, eps * commodity.value);

    std::vector<std::pair<noc::Route, double>> paths;
    double extracted = 0.0;
    // Greedy path stripping: follow the largest-residual outgoing link from
    // src to dst; the min along the path is one path weight. Cycles in the
    // residual (possible only up to the LP regularizer) make a step revisit
    // a node; a visited-guard aborts that extraction.
    for (int guard = 0; guard < 256 && extracted < commodity.value * (1.0 - 1e-4); ++guard) {
        std::vector<char> visited(topo.tile_count(), 0);
        noc::Route route;
        noc::TileId at = commodity.src_tile;
        visited[static_cast<std::size_t>(at)] = 1;
        bool reached = at == commodity.dst_tile;
        while (!reached) {
            noc::LinkId best = noc::kInvalidLink;
            double best_flow = threshold;
            for (const noc::LinkId l : topo.out_links(at)) {
                if (residual[static_cast<std::size_t>(l)] > best_flow &&
                    !visited[static_cast<std::size_t>(topo.link(l).dst)]) {
                    best_flow = residual[static_cast<std::size_t>(l)];
                    best = l;
                }
            }
            if (best == noc::kInvalidLink) break;
            route.push_back(best);
            at = topo.link(best).dst;
            visited[static_cast<std::size_t>(at)] = 1;
            reached = at == commodity.dst_tile;
        }
        if (!reached) break;
        double weight = commodity.value;
        for (const noc::LinkId l : route)
            weight = std::min(weight, residual[static_cast<std::size_t>(l)]);
        if (weight <= threshold) break;
        for (const noc::LinkId l : route) residual[static_cast<std::size_t>(l)] -= weight;
        paths.emplace_back(std::move(route), weight);
        extracted += weight;
    }

    if (paths.empty())
        throw std::logic_error("decompose_into_paths: no path carries flow for commodity");
    // Normalize to fractions of the commodity value.
    double total = 0.0;
    for (const auto& [route, weight] : paths) total += weight;
    for (auto& [route, weight] : paths) weight /= total;
    return paths;
}

namespace {

McfResult empty_instance_result(const noc::Topology& topo) {
    McfResult empty;
    empty.solved = true;
    empty.feasible = true;
    empty.status = LpStatus::Optimal;
    empty.loads.assign(topo.link_count(), 0.0);
    return empty;
}

} // namespace

McfResult solve_mcf(const noc::EvalContext& ctx, const std::vector<noc::Commodity>& commodities,
                    const McfOptions& options) {
    const noc::Topology& topo = ctx.topology();
    if (commodities.empty()) return empty_instance_result(topo);
    if (options.use_exact_lp)
        return solve_exact(topo, commodities, options,
                           allowed_per_commodity(ctx, commodities, options.quadrant_restricted));
    if (options.quadrant_restricted) {
        const auto allowed = allowed_per_commodity(ctx, commodities, true);
        return solve_mcf_approx(topo, commodities, options, &allowed, nullptr);
    }
    return solve_mcf_approx(topo, commodities, options, nullptr, nullptr);
}

// ----------------------------------------------------------------- McfSolver

McfSolver::McfSolver(const noc::EvalContext& ctx, McfOptions options)
    : ctx_(ctx), options_(std::move(options)) {}

void McfSolver::build_skeleton(const std::vector<noc::Commodity>& commodities) {
    ++stats_.skeleton_rebuilds;
    const noc::Topology& topo = ctx_.topology();
    const std::size_t link_count = topo.link_count();
    const std::size_t tiles = topo.tile_count();
    const std::size_t K = commodities.size();

    skeleton_ = LpProblem{};
    slack_var_.clear();
    z_var_ = -1;
    conservation_row_.assign(K * tiles, -1);
    dirty_rows_.clear();
    simplex_.invalidate();

    const double flow_cost =
        options_.objective == McfObjective::MinFlow ? 1.0 : kFlowRegularizer;
    for (std::size_t k = 0; k < K; ++k)
        for (std::size_t l = 0; l < link_count; ++l) skeleton_.add_variable(flow_cost);

    if (options_.objective == McfObjective::MinSlack) {
        slack_var_.assign(link_count, -1);
        for (std::size_t l = 0; l < link_count; ++l)
            slack_var_[l] = skeleton_.add_variable(1.0, "s" + std::to_string(l));
    } else if (options_.objective == McfObjective::MinMaxLoad) {
        z_var_ = skeleton_.add_variable(1.0, "z");
    }

    // Conservation rows with a *fixed* dropped node (the last tile) instead
    // of each commodity's destination: out - in = +value at src, -value at
    // dst, 0 elsewhere. One row per commodity is dependent and may be
    // dropped; pinning which one makes the row layout mapping-independent,
    // so consecutive candidates differ in RHS only.
    const auto drop = static_cast<std::size_t>(tiles - 1);
    std::int32_t row = 0;
    for (std::size_t k = 0; k < K; ++k) {
        for (std::size_t node = 0; node < tiles; ++node) {
            if (node == drop) continue;
            const auto u = static_cast<noc::TileId>(node);
            std::vector<std::pair<std::int32_t, double>> terms;
            for (const noc::LinkId l : topo.out_links(u))
                terms.emplace_back(
                    static_cast<std::int32_t>(k * link_count + static_cast<std::size_t>(l)),
                    1.0);
            for (const noc::LinkId l : topo.in_links(u))
                terms.emplace_back(
                    static_cast<std::int32_t>(k * link_count + static_cast<std::size_t>(l)),
                    -1.0);
            if (terms.empty()) continue; // isolated tile — guarded at refresh
            conservation_row_[k * tiles + node] = row++;
            skeleton_.add_constraint(std::move(terms), Relation::Equal, 0.0);
        }
    }

    // Capacity rows (structure and rhs are mapping-independent).
    for (std::size_t l = 0; l < link_count; ++l) {
        std::vector<std::pair<std::int32_t, double>> terms;
        for (std::size_t k = 0; k < K; ++k)
            terms.emplace_back(static_cast<std::int32_t>(k * link_count + l), 1.0);
        switch (options_.objective) {
        case McfObjective::MinSlack:
            terms.emplace_back(slack_var_[l], -1.0);
            skeleton_.add_constraint(std::move(terms), Relation::LessEqual,
                                     topo.link(static_cast<noc::LinkId>(l)).capacity);
            break;
        case McfObjective::MinFlow:
            skeleton_.add_constraint(std::move(terms), Relation::LessEqual,
                                     topo.link(static_cast<noc::LinkId>(l)).capacity);
            break;
        case McfObjective::MinMaxLoad:
            terms.emplace_back(z_var_, -1.0);
            skeleton_.add_constraint(std::move(terms), Relation::LessEqual, 0.0);
            break;
        }
    }

    skeleton_valid_ = true;
    skeleton_commodities_ = K;
}

McfResult McfSolver::solve_skeleton(const std::vector<noc::Commodity>& commodities) {
    const noc::Topology& topo = ctx_.topology();
    const std::size_t tiles = topo.tile_count();
    if (!skeleton_valid_ || skeleton_commodities_ != commodities.size())
        build_skeleton(commodities);

    // RHS refresh: clear the previous candidate's nonzero rows, then write
    // the new endpoints. O(commodities), not O(rows).
    for (const std::size_t r : dirty_rows_) skeleton_.set_constraint_rhs(r, 0.0);
    dirty_rows_.clear();
    for (std::size_t k = 0; k < commodities.size(); ++k) {
        const noc::Commodity& c = commodities[k];
        const auto bump = [&](noc::TileId tile, double delta) {
            const auto node = static_cast<std::size_t>(tile);
            const std::int32_t row = conservation_row_[k * tiles + node];
            if (row < 0) {
                // The dropped row is implied by the others; an isolated tile
                // carrying demand is not representable.
                if (delta != 0.0 && node != tiles - 1)
                    throw std::logic_error("MCF: commodity endpoint on an isolated tile");
                return;
            }
            const auto r = static_cast<std::size_t>(row);
            skeleton_.set_constraint_rhs(r, skeleton_.constraints()[r].rhs + delta);
            dirty_rows_.push_back(r);
        };
        bump(c.src_tile, c.value);
        bump(c.dst_tile, -c.value);
    }

    const LpSolution lp = simplex_.solve(skeleton_, options_.simplex);
    const std::size_t link_count = topo.link_count();
    return extract_exact(topo, commodities, options_, lp,
                         [link_count](std::size_t k, std::size_t l) {
                             return static_cast<std::int32_t>(k * link_count + l);
                         },
                         slack_var_, z_var_);
}

McfResult McfSolver::solve(const std::vector<noc::Commodity>& commodities) {
    ++stats_.solves;
    const noc::Topology& topo = ctx_.topology();
    if (commodities.empty()) return empty_instance_result(topo);
    if (!options_.use_exact_lp) {
        ApproxWarmState* warm = options_.warm_start ? &approx_warm_ : nullptr;
        if (options_.quadrant_restricted) {
            const auto allowed = allowed_per_commodity(ctx_, commodities, true);
            return solve_mcf_approx(topo, commodities, options_, &allowed, warm);
        }
        return solve_mcf_approx(topo, commodities, options_, nullptr, warm);
    }
    if (options_.warm_start && !options_.quadrant_restricted)
        return solve_skeleton(commodities);
    // Quadrant mode changes the column structure with the mapping: build
    // fresh and solve cold (the documented fallback).
    return solve_mcf(ctx_, commodities, options_);
}

} // namespace nocmap::lp
