// Independent output validators. Nothing here calls the library's
// evaluator, router or distance tables: hop distances come from a BFS over
// the topology's link list, and Eq. 7, capacities and flow conservation
// are recomputed from the raw result fields.

#include <algorithm>
#include <cmath>
#include <deque>
#include <sstream>

#include "bench.hpp"

namespace bench {

using nocmap::engine::MappingResult;
using nocmap::graph::CoreGraph;
using nocmap::noc::Topology;

std::vector<std::int32_t> bfs_distances(const Topology& topo) {
    const std::size_t n = topo.tile_count();
    std::vector<std::int32_t> dist(n * n, -1);
    const auto links = topo.links();
    std::vector<std::vector<std::int32_t>> next(n);
    for (const auto& link : links)
        next[static_cast<std::size_t>(link.src)].push_back(link.dst);
    for (std::size_t s = 0; s < n; ++s) {
        std::int32_t* row = dist.data() + s * n;
        std::deque<std::int32_t> queue{static_cast<std::int32_t>(s)};
        row[s] = 0;
        while (!queue.empty()) {
            const std::int32_t u = queue.front();
            queue.pop_front();
            for (const std::int32_t v : next[static_cast<std::size_t>(u)])
                if (row[v] < 0) {
                    row[v] = row[u] + 1;
                    queue.push_back(v);
                }
        }
    }
    return dist;
}

namespace {

double rel_diff(double a, double b) { return std::abs(a - b) / std::max(1.0, std::abs(b)); }

std::string fmt(double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

} // namespace

ResultKind result_kind(const std::string& mapper) {
    if (mapper == "nmap-split") return ResultKind::SplitAll;
    if (mapper == "nmap-tm") return ResultKind::SplitMin;
    return ResultKind::SinglePath;
}

std::optional<std::string> check_result(const CoreGraph& graph, const Topology& topo,
                                        const std::vector<std::int32_t>& dist,
                                        const MappingResult& result, ResultKind kind) {
    const std::size_t tiles = topo.tile_count();
    const auto& mapping = result.mapping;
    if (mapping.core_count() != graph.node_count() || mapping.tile_count() != tiles)
        return "mapping shape " + std::to_string(mapping.core_count()) + "x" +
               std::to_string(mapping.tile_count()) + " does not match the instance";

    // Injective, complete placement.
    std::vector<std::int32_t> tile_of(graph.node_count());
    std::vector<char> used(tiles, 0);
    for (std::size_t c = 0; c < graph.node_count(); ++c) {
        const auto core = static_cast<nocmap::graph::NodeId>(c);
        if (!mapping.is_placed(core)) return "core " + std::to_string(c) + " is not placed";
        const auto t = mapping.tile_of(core);
        if (t < 0 || static_cast<std::size_t>(t) >= tiles)
            return "core " + std::to_string(c) + " on tile " + std::to_string(t) + " out of range";
        if (used[static_cast<std::size_t>(t)]) return "tile " + std::to_string(t) + " holds two cores";
        used[static_cast<std::size_t>(t)] = 1;
        tile_of[c] = t;
    }

    // Equation 7 from BFS hop distances.
    double eq7 = 0.0;
    for (const auto& e : graph.edges())
        eq7 += e.bandwidth *
               dist[static_cast<std::size_t>(tile_of[static_cast<std::size_t>(e.src)]) * tiles +
                    static_cast<std::size_t>(tile_of[static_cast<std::size_t>(e.dst)])];

    if (!result.feasible)
        return std::isfinite(result.comm_cost)
                   ? std::optional<std::string>("infeasible result reports a finite cost")
                   : std::nullopt;
    if (!std::isfinite(result.comm_cost)) return "feasible result reports an infinite cost";

    // Inequality 3 on every link.
    const auto links = topo.links();
    if (result.loads.size() != links.size())
        return "loads cover " + std::to_string(result.loads.size()) + " of " +
               std::to_string(links.size()) + " links";
    double load_sum = 0.0;
    for (std::size_t l = 0; l < links.size(); ++l) {
        const double load = result.loads[l];
        if (load < -1e-6 || load > links[l].capacity * (1.0 + 1e-9) + 1e-6)
            return "link " + std::to_string(l) + " load " + fmt(load) + " outside [0, " +
                   fmt(links[l].capacity) + "]";
        load_sum += load;
    }

    if (kind == ResultKind::SinglePath) {
        if (!result.flows.empty()) return "single-path result carries split flows";
        if (rel_diff(result.comm_cost, eq7) > 1e-9)
            return "Eq. 7 mismatch: reported " + fmt(result.comm_cost) + ", recomputed " + fmt(eq7);
        // Minimal single-path routes load exactly vl * hops in total.
        if (rel_diff(load_sum, eq7) > 1e-9)
            return "link loads sum to " + fmt(load_sum) + ", minimal routes carry " + fmt(eq7);
        return std::nullopt;
    }

    // Split traffic: per-commodity conservation, flows summing to loads.
    if (result.flows.size() != graph.edge_count())
        return "split result has " + std::to_string(result.flows.size()) + " flow rows for " +
               std::to_string(graph.edge_count()) + " commodities";
    std::vector<double> flow_sum(links.size(), 0.0);
    std::vector<double> net(tiles);
    for (std::size_t k = 0; k < graph.edge_count(); ++k) {
        const auto& e = graph.edges()[k];
        const auto& f = result.flows[k];
        if (f.size() != links.size()) return "flow row " + std::to_string(k) + " has the wrong size";
        const auto src = static_cast<std::size_t>(tile_of[static_cast<std::size_t>(e.src)]);
        const auto dst = static_cast<std::size_t>(tile_of[static_cast<std::size_t>(e.dst)]);
        const double tol = 1e-6 * std::max(1.0, e.bandwidth);
        std::fill(net.begin(), net.end(), 0.0);
        for (std::size_t l = 0; l < links.size(); ++l) {
            if (f[l] < -tol) return "commodity " + std::to_string(k) + " has negative flow";
            net[static_cast<std::size_t>(links[l].src)] += f[l];
            net[static_cast<std::size_t>(links[l].dst)] -= f[l];
            flow_sum[l] += f[l];
            if (kind == ResultKind::SplitMin && f[l] > tol) {
                const auto u = static_cast<std::size_t>(links[l].src);
                const auto w = static_cast<std::size_t>(links[l].dst);
                if (dist[src * tiles + u] + 1 + dist[w * tiles + dst] != dist[src * tiles + dst])
                    return "commodity " + std::to_string(k) + " uses non-minimal link " +
                           std::to_string(l);
            }
        }
        for (std::size_t t = 0; t < tiles; ++t) {
            const double want = t == src ? e.bandwidth : (t == dst ? -e.bandwidth : 0.0);
            if (std::abs(net[t] - want) > tol)
                return "commodity " + std::to_string(k) + " violates conservation at tile " +
                       std::to_string(t) + " (net " + fmt(net[t]) + ", expected " + fmt(want) + ")";
        }
    }
    for (std::size_t l = 0; l < links.size(); ++l)
        if (std::abs(flow_sum[l] - result.loads[l]) > 1e-6 * std::max(1.0, result.loads[l]))
            return "flows on link " + std::to_string(l) + " sum to " + fmt(flow_sum[l]) +
                   ", loads report " + fmt(result.loads[l]);
    if (rel_diff(result.comm_cost, load_sum) > 1e-6)
        return "split cost " + fmt(result.comm_cost) + " is not the total flow " + fmt(load_sum);
    if (result.comm_cost < eq7 * (1.0 - 1e-9) - 1e-6)
        return "split cost " + fmt(result.comm_cost) + " undercuts Eq. 7 " + fmt(eq7);
    if (kind == ResultKind::SplitMin && rel_diff(result.comm_cost, eq7) > 1e-6)
        return "minimal-path split cost " + fmt(result.comm_cost) + " differs from Eq. 7 " + fmt(eq7);
    return std::nullopt;
}

std::optional<std::string> compare_documents(const std::string& got, const std::string& want) {
    if (got == want) return std::nullopt;
    const auto diff = std::mismatch(got.begin(), got.end(), want.begin(), want.end());
    const auto at = static_cast<std::size_t>(diff.first - got.begin());
    const auto from = at < 40 ? 0 : at - 40;
    return "documents differ at byte " + std::to_string(at) + " (" + std::to_string(got.size()) +
           " vs " + std::to_string(want.size()) + " bytes): ..." + got.substr(from, 80) +
           " vs ..." + want.substr(from, 80);
}

std::vector<std::string> validator_self_test(const CoreGraph& graph, const Topology& topo,
                                             const MappingResult& valid, ResultKind kind) {
    const auto dist = bfs_distances(topo);
    std::vector<std::string> missed;
    if (const auto err = check_result(graph, topo, dist, valid, kind))
        missed.push_back("valid result rejected: " + *err);

    const auto expect_reject = [&](const std::string& name, MappingResult corrupt) {
        if (!check_result(graph, topo, dist, corrupt, kind)) missed.push_back(name);
    };
    {
        MappingResult r = valid; // one core lifted off the fabric
        r.mapping.unplace(0);
        expect_reject("unplaced core", r);
    }
    {
        MappingResult r = valid; // placement changed under an unchanged cost
        const auto a = r.mapping.tile_of(0);
        const auto b = r.mapping.tile_of(static_cast<nocmap::graph::NodeId>(graph.node_count() - 1));
        r.mapping.swap_tiles(a, b);
        if (r.mapping != valid.mapping) expect_reject("swapped placement", r);
    }
    {
        MappingResult r = valid;
        r.comm_cost *= 1.001;
        expect_reject("inflated cost", r);
    }
    {
        MappingResult r = valid; // one link pushed past its capacity
        const auto it = std::max_element(r.loads.begin(), r.loads.end());
        *it = topo.link(static_cast<nocmap::noc::LinkId>(it - r.loads.begin())).capacity * 1.5;
        expect_reject("capacity overrun", r);
    }
    {
        MappingResult r = valid;
        r.feasible = false;
        expect_reject("infeasible with finite cost", r);
    }
    if (kind != ResultKind::SinglePath) {
        {
            MappingResult r = valid; // half a commodity's flow vanishes
            auto& row = r.flows[0];
            const auto it = std::max_element(row.begin(), row.end());
            *it *= 0.5;
            expect_reject("broken conservation", r);
        }
        {
            MappingResult r = valid; // loads no longer the sum of the flows
            const auto it = std::min_element(r.loads.begin(), r.loads.end());
            *it += 1.0;
            expect_reject("loads not summing flows", r);
        }
    }
    return missed;
}

} // namespace bench
