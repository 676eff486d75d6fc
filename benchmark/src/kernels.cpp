// Per-layer replays of the traced run: each times one library layer in
// isolation on the instances of the workload that exercises it most.
//
//   apps / noc    graph loads and EvalContext builds of the nmap-tight and
//                 dse-sim instances
//   engine / nmap IncrementalRouter::reroute_swap + rollback over every
//                 `triangle_stride`-th pair of the candidate triangle of each
//                 nmap-tight instance (Exact and Fast modes), and full
//                 re-routes (resync)
//   lp            McfSolver chains (MCF1) over sweep row 0 of every
//                 split-tight nmap-split instance: Frank-Wolfe, cold exact,
//                 warm exact
//   eval / sim    eval::apply with the simulated backend and bare
//                 sim::Simulator runs over the dse-sim apps on a mesh

#include <algorithm>
#include <cmath>

#include "apps/registry.hpp"
#include "bench.hpp"
#include "engine/incremental_router.hpp"
#include "engine/map_api.hpp"
#include "engine/mapper.hpp"
#include "eval/backend.hpp"
#include "lp/mcf.hpp"
#include "noc/commodity.hpp"
#include "sim/simulator.hpp"

namespace bench {

namespace noc = nocmap::noc;
namespace engine = nocmap::engine;
using nocmap::graph::CoreGraph;

namespace {

struct Instance {
    CoreGraph graph;
    std::shared_ptr<const noc::EvalContext> ctx; ///< at the instance's bandwidth
    noc::Mapping mapping; ///< NMAP placement at ample bandwidth (complete, realistic)
};

Instance make_instance(const std::string& app, double bandwidth) {
    Instance inst;
    inst.graph = nocmap::apps::load_graph_or_application(app);
    const std::size_t cores = inst.graph.node_count();
    inst.ctx = std::make_shared<const noc::EvalContext>(noc::Topology::smallest_mesh_for(cores, bandwidth));
    const noc::EvalContext ample(noc::Topology::smallest_mesh_for(cores, 1e9));
    inst.mapping = map_or_throw("nmap", inst.graph, ample).mapping;
    return inst;
}

template <typename F>
double time_ms(F&& f) {
    const auto t0 = Clock::now();
    f();
    return ms_between(t0, Clock::now());
}

void apps_and_noc(const json::Value& config, Report& report) {
    std::vector<std::pair<std::string, double>> targets;
    for (const json::Value& e : config.find("nmap-tight")->find("instances")->as_array())
        targets.emplace_back(e.find("app")->as_string(), bandwidth_of(e));
    for (const json::Value& app : config.find("dse-sim")->find("apps")->as_array())
        targets.emplace_back(app.as_string(), 1e9);
    double load_ms = 0.0, context_ms = 0.0;
    const int reps = 5;
    for (const auto& [app, bw] : targets)
        for (int r = 0; r < reps; ++r) {
            CoreGraph graph;
            load_ms += time_ms([&] { graph = nocmap::apps::load_graph_or_application(app); });
            context_ms += time_ms([&] {
                const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(graph.node_count(), bw));
            });
        }
    const double n = static_cast<double>(targets.size() * reps);
    report.metric("apps.load_ms", load_ms / n, "ms", targets.size() * reps);
    report.metric("noc.context_build_ms", context_ms / n, "ms", targets.size() * reps);
}

void engine_and_nmap(const Options& options, const json::Value& config, Report& report) {
    const auto stride = static_cast<std::size_t>(config.find("kernels")->find("triangle_stride")->as_number()) *
                        (options.quick() ? 8 : 1);
    double exact_ms = 0.0, fast_ms = 0.0, full_ms = 0.0;
    std::size_t exact_n = 0, fast_n = 0, dijkstras = 0, full_n = 0;
    for (const json::Value& e : config.find("nmap-tight")->find("instances")->as_array()) {
        const Instance inst = make_instance(e.find("app")->as_string(), bandwidth_of(e));
        const auto tiles = static_cast<noc::TileId>(inst.ctx->tile_count());
        for (const auto mode : {engine::RerouteMode::Exact, engine::RerouteMode::Fast}) {
            engine::RerouteOptions ro;
            ro.mode = mode;
            engine::IncrementalRouter router(inst.graph, *inst.ctx, inst.mapping, ro);
            const std::size_t d0 = router.dijkstra_count();
            std::size_t candidates = 0, index = 0;
            const double ms = time_ms([&] {
                for (noc::TileId a = 0; a < tiles; ++a)
                    for (noc::TileId b = a + 1; b < tiles; ++b)
                        if (index++ % stride == 0) {
                            router.reroute_swap(a, b);
                            router.rollback();
                            ++candidates;
                        }
            });
            if (mode == engine::RerouteMode::Exact) {
                exact_ms += ms;
                exact_n += candidates;
                dijkstras += router.dijkstra_count() - d0;
                const int resyncs = 5;
                full_ms += time_ms([&] {
                    for (int r = 0; r < resyncs; ++r) router.resync();
                });
                full_n += resyncs;
            } else {
                fast_ms += ms;
                fast_n += candidates;
            }
        }
    }
    report.metric("engine.reroute_us", exact_ms * 1000.0 / static_cast<double>(exact_n), "us", exact_n);
    report.metric("engine.reroute_fast_us", fast_ms * 1000.0 / static_cast<double>(fast_n), "us", fast_n);
    report.metric("engine.dijkstras_per_reroute",
                  static_cast<double>(dijkstras) / static_cast<double>(exact_n), "count", exact_n);
    report.metric("nmap.full_route_us", full_ms * 1000.0 / static_cast<double>(full_n), "us", full_n);
}

void lp_chains(const Options& options, const json::Value& config, Report& report) {
    double approx_ms = 0.0, exact_ms = 0.0, warm_ms = 0.0;
    std::size_t solves = 0, warm_solves = 0, pivots = 0, warm_paths = 0, fallbacks = 0;
    for (const json::Value& e : config.find("split-tight")->find("instances")->as_array()) {
        if (e.find("mapper")->as_string() != "nmap-split") continue;
        if (options.quick() && solves > 0) break;
        const Instance inst = make_instance(e.find("app")->as_string(), bandwidth_of(e));
        // Sweep row 0: tile 0 swapped with every other tile.
        std::vector<std::vector<noc::Commodity>> row;
        for (noc::TileId j = 1; j < static_cast<noc::TileId>(inst.ctx->tile_count()); ++j) {
            noc::Mapping candidate = inst.mapping;
            candidate.swap_tiles(0, j);
            row.push_back(noc::build_commodities(inst.graph, candidate));
        }
        // MCF1 (min slack): the program the split sweep solves per
        // candidate until a bandwidth-feasible mapping is found; feasible
        // for every candidate, so the warm path is never short-circuited.
        nocmap::lp::McfOptions exact;
        exact.objective = nocmap::lp::McfObjective::MinSlack;
        nocmap::lp::McfOptions approx = exact;
        approx.use_exact_lp = false;
        nocmap::lp::McfOptions warm = exact;
        warm.warm_start = true;
        nocmap::lp::McfSolver approx_solver(*inst.ctx, approx), exact_solver(*inst.ctx, exact),
            warm_solver(*inst.ctx, warm);
        for (const auto& commodities : row) {
            approx_ms += time_ms([&] { approx_solver.solve(commodities); });
            exact_ms += time_ms([&] { exact_solver.solve(commodities); });
            warm_ms += time_ms([&] { warm_solver.solve(commodities); });
        }
        const auto& stats = warm_solver.simplex().stats();
        solves += row.size();
        warm_solves += stats.solves;
        pivots += stats.pivots;
        warm_paths += stats.warm_solves;
        fallbacks += stats.warm_fallbacks;
    }
    report.info("lp.warm_chain.warm_restarts", static_cast<double>(warm_paths), "count", warm_solves);
    report.info("lp.warm_chain.cold_fallbacks", static_cast<double>(fallbacks), "count", warm_solves);
    const double n = static_cast<double>(solves);
    report.metric("lp.mcf_approx_ms", approx_ms / n, "ms", solves);
    report.metric("lp.mcf_exact_ms", exact_ms / n, "ms", solves);
    report.metric("lp.mcf_warm_ms", warm_ms / n, "ms", solves);
    report.metric("lp.simplex_pivots_per_solve",
                  static_cast<double>(pivots) / static_cast<double>(std::max<std::size_t>(1, warm_solves)),
                  "count", warm_solves);
}

void eval_and_sim(const Options& options, const json::Value& config, Report& report) {
    double apply_ms = 0.0, sim_s = 0.0, packets = 0.0, cycles = 0.0;
    std::size_t applies = 0;
    nocmap::eval::EvalSpec spec;
    spec.backend = "simulated";
    for (const json::Value& app : config.find("dse-sim")->find("apps")->as_array()) {
        if (options.quick() && applies >= 2) break;
        const Instance inst = make_instance(app.as_string(), 1e9);
        engine::MappingResult result = map_or_throw("nmap", inst.graph, *inst.ctx);
        nocmap::eval::Evaluation evaluation;
        apply_ms += time_ms([&] { evaluation = nocmap::eval::apply(inst.graph, *inst.ctx, result, spec); });
        packets += static_cast<double>(evaluation.sim.packets);
        ++applies;

        // The bare simulator on the same routed traffic and window.
        const engine::IncrementalRouter router(inst.graph, *inst.ctx, result.mapping);
        auto flows = nocmap::sim::make_single_path_flows(inst.ctx->topology(), router.commodities(),
                                                         router.routes());
        nocmap::sim::SimConfig cfg;
        cfg.warmup_cycles = static_cast<std::uint64_t>(spec.sim_warmup);
        cfg.measure_cycles = static_cast<std::uint64_t>(spec.sim_cycles);
        cfg.drain_cycles = static_cast<std::uint64_t>(spec.sim_cycles);
        nocmap::sim::Simulator simulator(inst.ctx->topology(), std::move(flows), cfg);
        nocmap::sim::SimStats stats;
        sim_s += time_ms([&] { stats = simulator.run(); }) / 1000.0;
        cycles += static_cast<double>(stats.cycles_run);
    }
    report.metric("eval.apply_ms", apply_ms / static_cast<double>(applies), "ms", applies);
    report.metric("sim.cycles_per_s", cycles / sim_s, "1/s", applies);
    report.metric("sim.packets_per_eval", packets / static_cast<double>(applies), "count", applies);
}

} // namespace

void run_layer_kernels(const Options& options, const json::Value& config, Report& report) {
    const auto t0 = Clock::now();
    apps_and_noc(config, report);
    engine_and_nmap(options, config, report);
    lp_chains(options, config, report);
    eval_and_sim(options, config, report);
    run_service_kernels(options, config, report);
    report.phase("kernels", seconds_since(t0));
}

} // namespace bench
