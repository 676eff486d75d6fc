// The closed-loop workloads: nmap-tight and split-tight (one client maps
// one instance at a time: load -> context -> mapper) and dse-sim (a
// persistent PortfolioRunner evaluates one application on four fabrics per
// operation, with the simulated evaluation backend).
//
// Every run executes whole cycles over the workload's instance set, each
// cycle in a fresh seeded order, so each instance contributes the same
// number of samples whatever the seed and the per-instance statistics stay
// comparable between runs.

#include <algorithm>
#include <functional>

#include "apps/registry.hpp"
#include "bench.hpp"
#include "engine/map_api.hpp"
#include "engine/mapper.hpp"
#include "eval/backend.hpp"
#include "noc/commodity.hpp"
#include "noc/energy.hpp"
#include "noc/evaluation.hpp"
#include "portfolio/report.hpp"
#include "sim/area_model.hpp"

namespace bench {

namespace noc = nocmap::noc;
namespace engine = nocmap::engine;
namespace portfolio = nocmap::portfolio;
using nocmap::graph::CoreGraph;

namespace {

struct Instance {
    std::string app;
    std::string mapper;
    double bandwidth = 1e9;
};

std::vector<Instance> read_instances(const json::Value& workload) {
    std::vector<Instance> instances;
    for (const json::Value& entry : workload.find("instances")->as_array())
        instances.push_back({entry.find("app")->as_string(), entry.find("mapper")->as_string(),
                             bandwidth_of(entry)});
    return instances;
}

/// The validators' and quality metrics' view of one instance.
struct Prepared {
    CoreGraph graph;
    std::shared_ptr<const noc::EvalContext> ctx;
    std::vector<std::int32_t> dist;
};

std::vector<Prepared> prepare(const std::vector<Instance>& instances) {
    std::vector<Prepared> out;
    for (const Instance& inst : instances) {
        Prepared p;
        p.graph = nocmap::apps::load_graph_or_application(inst.app);
        p.ctx = std::make_shared<const noc::EvalContext>(
            noc::Topology::smallest_mesh_for(p.graph.node_count(), inst.bandwidth));
        p.dist = bfs_distances(p.ctx->topology());
        out.push_back(std::move(p));
    }
    return out;
}

std::size_t setup_repeats(const json::Value& config) {
    return static_cast<std::size_t>(config.find("setup_repeats")->as_number());
}

/// Median wall time of the configured number of `setup` runs (the first
/// also pays one-time initialization; the median keeps the steady cost).
template <typename F>
double median_setup_s(const json::Value& config, F&& setup) {
    std::vector<double> times;
    for (std::size_t i = 0; i < setup_repeats(config); ++i) {
        const auto t0 = Clock::now();
        setup();
        times.push_back(seconds_since(t0));
    }
    return median(times);
}

/// The operation order of a traced replay: one seeded cycle (two
/// operations in a quick run).
std::vector<std::size_t> trace_order(const Options& options, std::size_t n) {
    Rng rng(options.seed);
    auto order = seeded_order(n, rng);
    if (options.quick()) order.resize(std::min<std::size_t>(2, n));
    return order;
}

/// Operation times of a closed loop: whole cycles over `n` items, each in a
/// fresh seeded order, until the next cycle would overrun the run.
struct Cycles {
    std::vector<std::vector<double>> item_ms; ///< per item
    std::vector<double> all_ms;
    double elapsed_s = 0.0;
    std::size_t cycles = 0;
};

/// `op(i)` performs item i and returns its own timed milliseconds (so any
/// bookkeeping after the timed call stays out of the sample).
Cycles run_cycles(const Options& options, std::size_t n, const std::function<double(std::size_t)>& op) {
    Rng rng(options.seed);
    Cycles c;
    c.item_ms.resize(n);
    const auto t0 = Clock::now();
    do {
        for (const std::size_t i : seeded_order(n, rng)) {
            const double ms = op(i);
            c.item_ms[i].push_back(ms);
            c.all_ms.push_back(ms);
        }
        ++c.cycles;
        c.elapsed_s = seconds_since(t0);
    } while (c.elapsed_s + c.elapsed_s / static_cast<double>(c.cycles) <= options.seconds);
    return c;
}

/// The end-to-end metrics of a closed loop, in BENCHMARK.json order, plus
/// per-item medians as extras.
void report_cycles(Report& report, const json::Value& config, const json::Value& workload, double setup_s,
                   const Cycles& c, const std::vector<std::string>& labels, const std::vector<double>& costs,
                   double feasible_share, std::size_t results, const std::vector<double>& p99s) {
    std::vector<double> medians;
    for (const auto& ms : c.item_ms) medians.push_back(median(ms));
    const double tail_p = workload.find("tail_percentile")->as_number();
    const std::size_t n = c.all_ms.size();
    report.metric("setup_s", setup_s, "s", setup_repeats(config));
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.metric("op_ms_p50", geomean(medians), "ms", n);
    report.metric("op_ms_tail", percentile(c.all_ms, tail_p), "ms", n);
    report.metric("ops_per_s", static_cast<double>(n) / c.elapsed_s, "1/s", n);
    report.metric("comm_cost_geomean", geomean(costs), "hop.MB/s", costs.size());
    report.metric("feasible_share", feasible_share, "share", results);
    report.metric("sim_p99_cycles_geomean", geomean(p99s), "cycles", p99s.size());
    report.info("op_ms_tail.percentile", tail_p, "pct", n);
    report.info("op_ms_tail.samples_beyond", static_cast<double>(samples_beyond(n, tail_p)), "count", n);
    report.info("cycles", static_cast<double>(c.cycles), "count", c.cycles);
    for (std::size_t i = 0; i < labels.size(); ++i)
        report.info("op_ms_p50." + labels[i], medians[i], "ms", c.item_ms[i].size());
}

/// One closed-loop operation: load the graph, build the fabric's
/// evaluation context, run the mapper.
engine::MapOutcome map_instance(const Instance& inst, Tracer* tracer, std::uint64_t op) {
    const SpanScope root(tracer, "op", -1, op);
    CoreGraph graph;
    {
        const SpanScope span(tracer, "load", root.index(), op);
        graph = nocmap::apps::load_graph_or_application(inst.app);
    }
    std::optional<noc::EvalContext> ctx;
    {
        const SpanScope span(tracer, "context", root.index(), op);
        ctx.emplace(noc::Topology::smallest_mesh_for(graph.node_count(), inst.bandwidth));
    }
    engine::MapRequest request;
    request.graph = &graph;
    request.context = &*ctx;
    const SpanScope span(tracer, "map", root.index(), op);
    return engine::run_by_name(inst.mapper, request);
}

/// Simulated p99 packet latency of a finished mapping with the default
/// simulation knobs (the quality the network would see).
double simulated_p99(const CoreGraph& graph, const noc::EvalContext& ctx,
                     engine::MappingResult result, Report& report, const std::string& what) {
    nocmap::eval::EvalSpec spec;
    spec.backend = "simulated";
    const auto evaluation = nocmap::eval::apply(graph, ctx, result, spec);
    if (!evaluation.sim.measured()) {
        report.fail(what + ": simulation did not measure (" + evaluation.sim.note + ")");
        return 0.0;
    }
    return evaluation.sim.p99_latency_cycles;
}

/// nmap-tight / split-tight: the shared closed loop.
void run_instances(const Options& options, const json::Value& config, const json::Value& workload,
                   Report& report) {
    const std::vector<Instance> instances = read_instances(workload);
    std::vector<Prepared> prepared;
    // Set-up: the instance table the validators use, then one warm-up map
    // of the first (smallest) instance.
    const double setup_s = median_setup_s(config, [&] {
        prepared = prepare(instances);
        map_instance(instances.front(), nullptr, 0);
    });
    report.phase("setup", setup_s);

    if (options.trace) {
        const auto order = trace_order(options, instances.size());
        double evaluations = 0.0;
        std::size_t maps = 0;
        std::uint64_t op = 0;
        traced_replay(options, [&](Tracer* tracer) {
            for (const std::size_t i : order) {
                const auto outcome = map_instance(instances[i], tracer, op);
                if (!tracer) continue;
                ++op;
                ++report.attempted;
                if (!outcome.ok()) {
                    report.fail(instances[i].app + ": " + outcome.error().message);
                    continue;
                }
                evaluations += static_cast<double>(outcome.result().evaluations);
                ++maps;
            }
        }, report);
        report.metric("engine.evaluations_per_map", maps ? evaluations / static_cast<double>(maps) : 0.0,
                      "count", maps);
        return;
    }

    std::vector<std::string> labels;
    for (const Instance& inst : instances)
        labels.push_back(inst.app + "/" + inst.mapper + "@" + std::to_string(static_cast<long long>(inst.bandwidth)));
    std::vector<std::optional<engine::MappingResult>> first(instances.size());
    std::size_t feasible = 0;
    const Cycles cycles = run_cycles(options, instances.size(), [&](std::size_t i) {
        const auto t0 = Clock::now();
        engine::MapOutcome outcome = map_instance(instances[i], nullptr, 0);
        const double ms = ms_between(t0, Clock::now());
        ++report.attempted;
        if (!outcome.ok()) {
            report.fail(labels[i] + ": " + outcome.error().message);
            return ms;
        }
        engine::MappingResult& result = outcome.result();
        if (result.feasible) ++feasible;
        // Mappers are deterministic: every repeat must equal the first.
        if (!first[i])
            first[i] = std::move(result);
        else if (result.mapping != first[i]->mapping || result.comm_cost != first[i]->comm_cost)
            report.fail(labels[i] + ": repeated map differs from the first");
        return ms;
    });
    report.phase("measure", cycles.elapsed_s);

    const auto check_t0 = Clock::now();
    if (options.corrupt && first.front()) first.front()->comm_cost *= 1.001;
    std::vector<double> costs, p99s;
    for (std::size_t i = 0; i < instances.size(); ++i) {
        if (!first[i]) continue;
        if (const auto err = check_result(prepared[i].graph, prepared[i].ctx->topology(), prepared[i].dist,
                                          *first[i], result_kind(instances[i].mapper)))
            report.fail(labels[i] + ": " + *err);
        if (!first[i]->feasible) continue;
        costs.push_back(first[i]->comm_cost);
        p99s.push_back(simulated_p99(prepared[i].graph, *prepared[i].ctx, *first[i], report, labels[i]));
    }
    report.phase("validate", seconds_since(check_t0));
    const std::size_t ops = cycles.all_ms.size();
    report_cycles(report, config, workload, setup_s, cycles, labels, costs,
                  static_cast<double>(feasible) / static_cast<double>(ops), ops, p99s);
}

} // namespace

// ------------------------------------------------------------ grid replay

std::string report_document(const std::vector<portfolio::ScenarioResult>& results) {
    portfolio::JsonOptions json_options;
    json_options.timings = false;
    return portfolio::to_json(results, portfolio::PortfolioRunner::rank_topologies(results),
                              json_options);
}

std::vector<portfolio::ScenarioResult> run_grid_spanned(const std::vector<portfolio::Scenario>& grid,
                                                        portfolio::TopologyCache& cache,
                                                        Tracer* tracer, std::int64_t root,
                                                        std::uint64_t op) {
    std::vector<portfolio::ScenarioResult> results;
    results.reserve(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const portfolio::Scenario& scenario = grid[i];
        portfolio::ScenarioResult r;
        r.index = i;
        r.name = scenario.display_name();
        r.app = scenario.app;
        r.topology = scenario.topology.display_name();
        r.mapper = scenario.mapper;
        const std::size_t cores = scenario.graph->node_count();
        std::shared_ptr<const noc::EvalContext> ctx;
        {
            const SpanScope span(tracer, "cache_get", root, op);
            r.fabric = scenario.topology.cache_key(cores);
            ctx = cache.get(scenario.topology, cores);
        }
        r.tiles = ctx->topology().tile_count();
        r.links = ctx->topology().link_count();
        engine::MapRequest request;
        request.graph = scenario.graph.get();
        request.context = ctx.get();
        request.params = scenario.params;
        request.seed = scenario.seed;
        {
            const SpanScope span(tracer, "map", root, op);
            engine::MapOutcome outcome = engine::run_by_name(scenario.mapper, request);
            if (!outcome.ok()) {
                r.ok = false;
                r.error = outcome.error().message;
                r.error_code = std::string(engine::to_string(outcome.error().code));
                results.push_back(std::move(r));
                continue;
            }
            r.result = std::move(outcome.result());
        }
        if (!scenario.eval.empty()) {
            const SpanScope span(tracer, "eval", root, op);
            const auto spec = nocmap::eval::parse_spec(scenario.eval);
            if (spec.simulated() || spec.refine_sim)
                r.sim = nocmap::eval::apply(*scenario.graph, *ctx, r.result, spec).sim;
        }
        {
            const SpanScope span(tracer, "derive", root, op);
            if (r.result.mapping.core_count() == cores && r.result.mapping.is_complete()) {
                const auto commodities = noc::build_commodities(*scenario.graph, r.result.mapping);
                r.energy_mw = noc::mapping_energy_mw(*ctx, commodities);
                r.avg_hops = noc::average_weighted_hops(*ctx, commodities);
            }
            r.area_mm2 = nocmap::sim::fabric_area_mm2(ctx->topology(), cores);
        }
        results.push_back(std::move(r));
    }
    const SpanScope span(tracer, "scalarize", root, op);
    portfolio::PortfolioRunner::scalarize(results, portfolio::ScalarizationWeights{});
    return results;
}

// ------------------------------------------------------------- workloads

void run_nmap_tight(const Options& options, const json::Value& config, Report& report) {
    run_instances(options, config, *config.find("nmap-tight"), report);
}

void run_split_tight(const Options& options, const json::Value& config, Report& report) {
    run_instances(options, config, *config.find("split-tight"), report);
}

void run_dse_sim(const Options& options, const json::Value& config, Report& report) {
    const json::Value& workload = *config.find("dse-sim");
    const std::string mapper = workload.find("mapper")->as_string();
    const auto specs = portfolio::parse_topology_list(workload.find("topologies")->as_string());
    engine::Params eval;
    for (const json::Value& kv : workload.find("eval")->as_array()) eval.set_assignment(kv.as_string());
    std::vector<std::string> apps;
    for (const json::Value& app : workload.find("apps")->as_array()) apps.push_back(app.as_string());

    const auto make_runner = [&](std::size_t threads) {
        portfolio::PortfolioOptions po;
        po.threads = threads;
        return std::make_unique<portfolio::PortfolioRunner>(po);
    };
    const std::size_t threads =
        clamp_threads(static_cast<std::size_t>(workload.find("threads")->as_number()), options);
    std::unique_ptr<portfolio::PortfolioRunner> runner;
    std::vector<std::vector<portfolio::Scenario>> grids;
    // Set-up: the persistent runner, the app graphs, one grid per app, a
    // TopologyCache already holding every fabric (operations always hit),
    // and one warm-up operation.
    const double setup_s = median_setup_s(config, [&] {
        runner = make_runner(threads);
        grids.clear();
        for (const std::string& app : apps) {
            auto graph = std::make_shared<const CoreGraph>(nocmap::apps::load_graph_or_application(app));
            grids.push_back(portfolio::make_grid({{app, graph}}, specs, mapper, {}, 0, 0, eval));
            for (const portfolio::Scenario& s : grids.back())
                runner->cache().get(s.topology, graph->node_count());
        }
        report_document(runner->run(grids.front()));
    });
    report.phase("setup", setup_s);

    if (options.trace) {
        const auto order = trace_order(options, apps.size());
        std::vector<std::string> want(apps.size());
        for (const std::size_t a : order) want[a] = report_document(runner->run(grids[a]));
        double evaluations = 0.0;
        std::size_t maps = 0;
        std::uint64_t op = 0;
        traced_replay(options, [&](Tracer* t) {
            for (const std::size_t a : order) {
                std::vector<portfolio::ScenarioResult> results;
                std::string doc;
                {
                    const SpanScope root(t, "op", -1, op);
                    results = run_grid_spanned(grids[a], runner->cache(), t, root.index(), op);
                    const SpanScope span(t, "to_json", root.index(), op);
                    doc = report_document(results);
                }
                if (!t) continue;
                ++op;
                ++report.attempted;
                if (const auto diff = compare_documents(doc, want[a]))
                    report.fail(apps[a] + ": traced replay document differs from the runner's: " + *diff);
                for (const auto& r : results) {
                    evaluations += static_cast<double>(r.result.evaluations);
                    ++maps;
                }
            }
        }, report);
        report.metric("engine.evaluations_per_map",
                      maps ? evaluations / static_cast<double>(maps) : 0.0, "count", maps);
        return;
    }

    std::vector<std::string> first_doc(apps.size());
    std::vector<std::vector<portfolio::ScenarioResult>> first_results(apps.size());
    std::size_t scenarios = 0, feasible = 0;
    const Cycles cycles = run_cycles(options, apps.size(), [&](std::size_t a) {
        const auto t0 = Clock::now();
        auto results = runner->run(grids[a]);
        std::string doc = report_document(results);
        const double ms = ms_between(t0, Clock::now());
        ++report.attempted;
        for (const auto& r : results) {
            ++scenarios;
            if (!r.ok) report.fail(r.name + ": " + r.error);
            if (r.ok && r.result.feasible) ++feasible;
        }
        if (first_doc[a].empty()) {
            first_doc[a] = std::move(doc);
            first_results[a] = std::move(results);
        } else if (const auto diff = compare_documents(doc, first_doc[a])) {
            report.fail(apps[a] + ": repeated run differs: " + *diff);
        }
        return ms;
    });
    report.phase("measure", cycles.elapsed_s);

    // Validation: every scenario's mapping, then thread-count invariance.
    const auto check_t0 = Clock::now();
    const auto serial = make_runner(1);
    std::vector<double> costs, p99s;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (const auto& r : first_results[a]) {
            const portfolio::Scenario& s = grids[a][r.index];
            const auto ctx = runner->cache().get(s.topology, s.graph->node_count());
            if (const auto err = check_result(*s.graph, ctx->topology(), bfs_distances(ctx->topology()),
                                              r.result, result_kind(r.mapper)))
                report.fail(r.name + ": " + *err);
            if (!r.result.feasible) continue;
            costs.push_back(r.result.comm_cost);
            if (r.sim.measured())
                p99s.push_back(r.sim.p99_latency_cycles);
            else
                report.fail(r.name + ": simulation did not measure (" + r.sim.note + ")");
        }
        if (const auto diff = compare_documents(report_document(serial->run(grids[a])), first_doc[a]))
            report.fail(apps[a] + ": threads=1 document differs from threads=" + std::to_string(threads) +
                        ": " + *diff);
    }
    report.phase("validate", seconds_since(check_t0));
    report_cycles(report, config, workload, setup_s, cycles, apps, costs,
                  static_cast<double>(feasible) / static_cast<double>(std::max<std::size_t>(1, scenarios)),
                  scenarios, p99s);
    report.info("threads", static_cast<double>(threads), "count", 1);
}

} // namespace bench
