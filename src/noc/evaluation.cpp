#include "noc/evaluation.hpp"

#include <algorithm>
#include <stdexcept>

#include "noc/eval_context.hpp"

namespace nocmap::noc {

LinkLoads accumulate_loads(const Topology& topo, const std::vector<Commodity>& commodities,
                           const std::vector<Route>& routes) {
    if (commodities.size() != routes.size())
        throw std::invalid_argument("accumulate_loads: commodity/route count mismatch");
    LinkLoads loads(topo.link_count(), 0.0);
    for (std::size_t k = 0; k < commodities.size(); ++k) {
        if (!is_valid_route(topo, routes[k], commodities[k].src_tile, commodities[k].dst_tile))
            throw std::invalid_argument("accumulate_loads: route " + std::to_string(k) +
                                        " does not connect its commodity endpoints");
        for (const LinkId l : routes[k])
            loads[static_cast<std::size_t>(l)] += commodities[k].value;
    }
    return loads;
}

LinkLoads xy_loads(const Topology& topo, const std::vector<Commodity>& commodities) {
    std::vector<Route> routes;
    routes.reserve(commodities.size());
    for (const Commodity& c : commodities)
        routes.push_back(xy_route(topo, c.src_tile, c.dst_tile));
    return accumulate_loads(topo, commodities, routes);
}

double max_load(const LinkLoads& loads) {
    double peak = 0.0;
    for (const double load : loads) peak = std::max(peak, load);
    return peak;
}

bool satisfies_bandwidth(const Topology& topo, const LinkLoads& loads, double eps) {
    if (loads.size() != topo.link_count())
        throw std::invalid_argument("satisfies_bandwidth: load vector size mismatch");
    for (std::size_t l = 0; l < loads.size(); ++l)
        if (loads[l] > topo.link(static_cast<LinkId>(l)).capacity + eps) return false;
    return true;
}

double total_violation(const Topology& topo, const LinkLoads& loads) {
    if (loads.size() != topo.link_count())
        throw std::invalid_argument("total_violation: load vector size mismatch");
    double violation = 0.0;
    for (std::size_t l = 0; l < loads.size(); ++l)
        violation += std::max(0.0, loads[l] - topo.link(static_cast<LinkId>(l)).capacity);
    return violation;
}

double communication_cost(const EvalContext& ctx, const std::vector<Commodity>& commodities) {
    double cost = 0.0;
    for (const Commodity& c : commodities)
        cost += c.value * static_cast<double>(ctx.distance(c.src_tile, c.dst_tile));
    return cost;
}

double total_flow(const LinkLoads& loads) {
    double sum = 0.0;
    for (const double load : loads) sum += load;
    return sum;
}

double average_weighted_hops(const EvalContext& ctx, const std::vector<Commodity>& commodities) {
    double demand = 0.0;
    for (const Commodity& c : commodities) demand += c.value;
    if (demand <= 0.0) return 0.0;
    return communication_cost(ctx, commodities) / demand;
}

} // namespace nocmap::noc
