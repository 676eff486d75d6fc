#include "lp/mcf_approx.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

namespace nocmap::lp {

namespace {

/// Per-commodity routing adjacency: for each tile, outgoing (link, next
/// tile) pairs restricted to the commodity's allowed link set. In all-paths
/// mode every commodity shares one instance.
using Adjacency = std::vector<std::vector<std::pair<noc::LinkId, noc::TileId>>>;

Adjacency build_adjacency(const noc::Topology& topo, const std::vector<noc::LinkId>& links) {
    Adjacency out(topo.tile_count());
    for (const noc::LinkId l : links) {
        const noc::Link& link = topo.link(l);
        out[static_cast<std::size_t>(link.src)].emplace_back(l, link.dst);
    }
    return out;
}

std::vector<noc::LinkId> all_links(const noc::Topology& topo) {
    std::vector<noc::LinkId> links(topo.link_count());
    for (std::size_t l = 0; l < links.size(); ++l) links[l] = static_cast<noc::LinkId>(l);
    return links;
}

/// Dijkstra over a routing adjacency with per-link costs; returns the link
/// sequence of a cheapest src->dst path (empty if unreachable).
std::vector<noc::LinkId> cheapest_path(const Adjacency& out,
                                       const std::vector<double>& link_cost,
                                       noc::TileId src, noc::TileId dst) {
    const std::size_t n = out.size();
    std::vector<double> dist(n, std::numeric_limits<double>::infinity());
    std::vector<noc::LinkId> via(n, noc::kInvalidLink);
    std::vector<noc::TileId> prev(n, noc::kInvalidTile);
    using Entry = std::pair<double, noc::TileId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    dist[static_cast<std::size_t>(src)] = 0.0;
    heap.emplace(0.0, src);
    while (!heap.empty()) {
        const auto [d, u] = heap.top();
        heap.pop();
        if (d > dist[static_cast<std::size_t>(u)]) continue;
        if (u == dst) break;
        for (const auto& [l, v] : out[static_cast<std::size_t>(u)]) {
            const double nd = d + link_cost[static_cast<std::size_t>(l)];
            if (nd < dist[static_cast<std::size_t>(v)]) {
                dist[static_cast<std::size_t>(v)] = nd;
                via[static_cast<std::size_t>(v)] = l;
                prev[static_cast<std::size_t>(v)] = u;
                heap.emplace(nd, v);
            }
        }
    }
    if (dist[static_cast<std::size_t>(dst)] == std::numeric_limits<double>::infinity())
        return {};
    std::vector<noc::LinkId> path;
    for (noc::TileId v = dst; v != src; v = prev[static_cast<std::size_t>(v)])
        path.push_back(via[static_cast<std::size_t>(v)]);
    std::reverse(path.begin(), path.end());
    return path;
}

/// The convergence measure watched by the warm-start early exit: the
/// smoothed surrogate each objective actually descends on.
double monitored_objective(const noc::Topology& topo, const McfOptions& options,
                           const noc::LinkLoads& loads) {
    switch (options.objective) {
    case McfObjective::MinSlack: return noc::total_violation(topo, loads);
    case McfObjective::MinFlow:
        return noc::total_flow(loads) + 16.0 * noc::total_violation(topo, loads);
    case McfObjective::MinMaxLoad: return noc::max_load(loads);
    }
    return 0.0;
}

} // namespace

McfResult solve_mcf_approx(const noc::Topology& topo,
                           const std::vector<noc::Commodity>& commodities,
                           const McfOptions& options,
                           const std::vector<std::vector<noc::LinkId>>* allowed,
                           ApproxWarmState* warm) {
    const std::size_t link_count = topo.link_count();
    const std::size_t K = commodities.size();
    const bool all_paths = !options.quadrant_restricted;
    const bool use_warm = warm != nullptr && options.warm_start;

    // Routing adjacency. All-paths mode: one shared instance (the per-
    // commodity restriction is vacuous), cached in the warm state when one
    // is supplied. Quadrant mode: one per commodity.
    Adjacency shared;
    std::vector<Adjacency> per_commodity;
    if (all_paths) {
        if (warm != nullptr) {
            if (warm->all_paths_out.empty())
                warm->all_paths_out = build_adjacency(topo, all_links(topo));
        } else {
            shared = build_adjacency(topo, all_links(topo));
        }
    } else {
        if (allowed == nullptr || allowed->size() != K)
            throw std::invalid_argument(
                "solve_mcf_approx: quadrant mode needs one allowed-link list per commodity");
        per_commodity.reserve(K);
        for (std::size_t k = 0; k < K; ++k)
            per_commodity.push_back(build_adjacency(topo, (*allowed)[k]));
    }
    const Adjacency& shared_adj = (all_paths && warm != nullptr) ? warm->all_paths_out : shared;
    const auto adj_of = [&](std::size_t k) -> const Adjacency& {
        return all_paths ? shared_adj : per_commodity[k];
    };

    McfResult result;
    result.flows.assign(K, std::vector<double>(link_count, 0.0));
    result.loads.assign(link_count, 0.0);

    // Initial assignment: hop-count shortest paths — or, warm, the previous
    // candidate's converged flow for every commodity whose endpoints and
    // value are unchanged.
    std::vector<double> unit_cost(link_count, 1.0);
    bool seeded = false;
    for (std::size_t k = 0; k < K; ++k) {
        const noc::Commodity& c = commodities[k];
        if (use_warm && warm->valid && k < warm->prev.size() &&
            warm->prev[k].src_tile == c.src_tile && warm->prev[k].dst_tile == c.dst_tile &&
            warm->prev[k].value == c.value && warm->flows[k].size() == link_count) {
            result.flows[k] = warm->flows[k];
            for (std::size_t l = 0; l < link_count; ++l)
                result.loads[l] += result.flows[k][l];
            seeded = true;
            continue;
        }
        const auto path = cheapest_path(adj_of(k), unit_cost, c.src_tile, c.dst_tile);
        if (path.empty())
            throw std::logic_error("mcf_approx: commodity has no admissible path");
        for (const noc::LinkId l : path) {
            result.flows[k][static_cast<std::size_t>(l)] += c.value;
            result.loads[static_cast<std::size_t>(l)] += c.value;
        }
    }

    const double demand = std::max(1.0, noc::total_value(commodities));
    std::vector<double> link_cost(link_count, 0.0);

    // A seeded start is already near the optimum: shift the Frank–Wolfe
    // step schedule as if that many iterations had run, so the first blends
    // refine rather than overwrite the seed.
    const std::size_t step_offset = seeded ? 8 : 0;
    double monitored_prev = std::numeric_limits<double>::infinity();
    int flat_rounds = 0;

    const std::size_t iterations = std::max<std::size_t>(options.approx_iterations, 2);
    for (std::size_t t = 0; t < iterations; ++t) {
        // Derivative of the objective's potential at the current loads.
        const double peak = std::max(1e-12, noc::max_load(result.loads));
        for (std::size_t l = 0; l < link_count; ++l) {
            const double load = result.loads[l];
            const double cap = topo.link(static_cast<noc::LinkId>(l)).capacity;
            double cost = 0.0;
            switch (options.objective) {
            case McfObjective::MinSlack:
                cost = std::max(0.0, load - cap) / demand + 1e-4;
                break;
            case McfObjective::MinFlow:
                cost = 1.0 + 16.0 * std::max(0.0, load - cap) / cap;
                break;
            case McfObjective::MinMaxLoad: {
                const double ratio = load / peak;
                // d/dload of (load/peak)^8, scaled; +epsilon prefers short paths.
                cost = ratio * ratio * ratio * ratio * ratio * ratio * ratio + 1e-4;
                break;
            }
            }
            link_cost[l] = cost;
        }

        const double step = 2.0 / static_cast<double>(t + step_offset + 3);
        for (std::size_t k = 0; k < K; ++k) {
            const auto path = cheapest_path(adj_of(k), link_cost, commodities[k].src_tile,
                                            commodities[k].dst_tile);
            // Blend this commodity's flow toward the all-or-nothing path.
            for (double& f : result.flows[k]) f *= (1.0 - step);
            for (const noc::LinkId l : path)
                result.flows[k][static_cast<std::size_t>(l)] +=
                    step * commodities[k].value;
        }
        // Recompute aggregate loads from scratch (cheap, avoids drift).
        std::fill(result.loads.begin(), result.loads.end(), 0.0);
        for (std::size_t k = 0; k < K; ++k)
            for (std::size_t l = 0; l < link_count; ++l)
                result.loads[l] += result.flows[k][l];

        // Warm-only early exit once the surrogate stops improving (the cold
        // path always runs the full schedule so its iterate sequence — and
        // therefore its results — stay bit-identical to the one-shot engine).
        if (use_warm) {
            const double monitored = monitored_objective(topo, options, result.loads);
            if (options.objective == McfObjective::MinSlack &&
                monitored <= 1e-6 * demand)
                break;
            if (t >= 4 && std::abs(monitored - monitored_prev) <=
                              1e-4 * std::max(1.0, std::abs(monitored))) {
                if (++flat_rounds >= 2) break;
            } else {
                flat_rounds = 0;
            }
            monitored_prev = monitored;
        }
    }

    result.solved = true;
    result.status = LpStatus::Optimal;
    switch (options.objective) {
    case McfObjective::MinSlack:
        result.objective = noc::total_violation(topo, result.loads);
        result.feasible = result.objective <= 1e-6 * demand;
        break;
    case McfObjective::MinFlow:
        result.objective = noc::total_flow(result.loads);
        result.feasible = noc::satisfies_bandwidth(topo, result.loads,
                                                   1e-6 * demand);
        break;
    case McfObjective::MinMaxLoad:
        result.objective = noc::max_load(result.loads);
        result.feasible = true;
        break;
    }

    if (use_warm) {
        warm->valid = true;
        warm->prev = commodities;
        warm->flows = result.flows;
    }
    return result;
}

} // namespace nocmap::lp
