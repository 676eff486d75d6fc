#include "noc/energy.hpp"

#include <stdexcept>

#include "noc/eval_context.hpp"

namespace nocmap::noc {

namespace {
// MB/s * pJ/bit -> mW: 1e6 byte/s * 8 bit/byte * 1e-12 J/pJ * 1e3 mW/W.
constexpr double kMbpsPjToMw = 8.0 * 1e6 * 1e-12 * 1e3;
} // namespace

double mapping_energy_mw(const EvalContext& ctx, const std::vector<Commodity>& commodities) {
    double total = 0.0;
    for (const Commodity& c : commodities) {
        const auto hops = static_cast<std::size_t>(ctx.distance(c.src_tile, c.dst_tile));
        total += c.value * ctx.bit_energy(hops);
    }
    return total * kMbpsPjToMw;
}

double routed_energy_mw(const std::vector<Commodity>& commodities,
                        const std::vector<Route>& routes, const EnergyModel& model) {
    if (commodities.size() != routes.size())
        throw std::invalid_argument("routed_energy_mw: commodity/route count mismatch");
    double total = 0.0;
    for (std::size_t k = 0; k < commodities.size(); ++k)
        total += commodities[k].value * model.bit_energy(routes[k].size());
    return total * kMbpsPjToMw;
}

double split_flow_energy_mw(const Topology& topo,
                            const std::vector<Commodity>& commodities,
                            const std::vector<std::vector<double>>& flows,
                            const EnergyModel& model) {
    if (commodities.size() != flows.size())
        throw std::invalid_argument("split_flow_energy_mw: commodity/flow count mismatch");
    double total = 0.0;
    for (std::size_t k = 0; k < commodities.size(); ++k) {
        if (flows[k].size() != topo.link_count())
            throw std::invalid_argument("split_flow_energy_mw: flow vector size mismatch");
        // Each unit of flow over a link pays one link plus the upstream
        // switch; the destination switch is paid once for the whole demand.
        double link_flow = 0.0;
        for (const double f : flows[k]) link_flow += f;
        total += link_flow * (model.link_pj_per_bit + model.switch_pj_per_bit) +
                 commodities[k].value * model.switch_pj_per_bit;
    }
    return total * kMbpsPjToMw;
}

} // namespace nocmap::noc
