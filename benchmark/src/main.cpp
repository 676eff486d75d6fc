// nocmap_bench — command line of the repository benchmark.
//
//   nocmap_bench run --workload W --seed N --seconds S --trace 0|1
//                    --config FILE --out FILE [--trace-out FILE] [--git-sha SHA]
//                    [--corrupt]
//   nocmap_bench calibrate --config FILE
//   nocmap_bench self-test --config FILE
//
// `run` measures one workload and writes the result document to --out;
// benchmark/run.py builds this binary, runs it and prints the metrics.
// --corrupt damages one result before validation, so the self-test can show
// that a wrong output fails the run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "apps/registry.hpp"
#include "bench.hpp"
#include "engine/map_api.hpp"
#include "engine/mapper.hpp"

#ifndef NOCMAP_BENCH_BUILD_TYPE
#define NOCMAP_BENCH_BUILD_TYPE "unknown"
#endif

namespace bench {
namespace {

namespace noc = nocmap::noc;
namespace engine = nocmap::engine;

bool optimized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return false;
#elif !defined(NDEBUG)
    return false;
#else
    return std::strcmp(NOCMAP_BENCH_BUILD_TYPE, "Release") == 0;
#endif
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    return "unknown";
}

std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", v);
    return buffer;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
    std::string out = "[";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        out += std::string(i ? ",\n    " : "\n    ") + "{\"name\": " + json::quoted(m.name) +
               ", \"value\": " + number(m.value) + ", \"unit\": " + json::quoted(m.unit) +
               ", \"n\": " + std::to_string(m.samples) + "}";
    }
    return out + "]";
}

std::string report_json(const Report& r, const Options& o, const std::string& git_sha) {
    std::ostringstream os;
    os << "{\n  \"workload\": " << json::quoted(r.workload) << ",\n  \"seed\": " << r.seed
       << ",\n  \"trace\": " << (r.trace ? 1 : 0)
       << ",\n  \"correct\": " << (r.failed == 0 && r.attempted > 0 ? "true" : "false")
       << ",\n  \"attempted\": " << r.attempted << ",\n  \"failed\": " << r.failed
       << ",\n  \"metrics\": " << metrics_json(r.metrics) << ",\n  \"extra\": " << metrics_json(r.extra)
       << ",\n  \"failures\": [";
    for (std::size_t i = 0; i < r.failures.size(); ++i)
        os << (i ? ", " : "") << json::quoted(r.failures[i]);
    os << "],\n  \"phases_s\": {";
    for (std::size_t i = 0; i < r.phases.size(); ++i)
        os << (i ? ", " : "") << json::quoted(r.phases[i].first) << ": " << number(r.phases[i].second);
    os << "},\n  \"provenance\": {\"nproc\": " << o.nproc << ", \"cpu\": " << json::quoted(cpu_model())
       << ", \"build_type\": " << json::quoted(NOCMAP_BENCH_BUILD_TYPE)
       << ", \"compiler\": " << json::quoted(std::string("g++ ") + __VERSION__)
       << ", \"git_sha\": " << json::quoted(git_sha) << ", \"seed\": " << o.seed
       << ", \"seconds\": " << number(o.seconds) << "}\n}\n";
    return os.str();
}

json::Value load_config(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open config " + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return json::parse(buffer.str());
}

// ------------------------------------------------------------ calibration

constexpr double kGrid = 50.0;

double grid_ceil(double v) { return std::ceil(v / kGrid) * kGrid; }

bool feasible_at(const nocmap::graph::CoreGraph& graph, const std::string& mapper,
                 const nocmap::portfolio::TopologySpec& kind, double bw) {
    nocmap::portfolio::TopologySpec spec = kind;
    spec.capacity = bw;
    const noc::EvalContext ctx(spec.build(graph.node_count()));
    engine::MapRequest request;
    request.graph = &graph;
    request.context = &ctx;
    const auto outcome = engine::run_by_name(mapper, request);
    return outcome.ok() && outcome.result().feasible;
}

/// Lowest grid bandwidth at which `mapper` returns a feasible mapping,
/// scanning upward from a bound no mapping can beat: the largest single
/// flow (single path) or a core's traffic spread over four links (split).
double lowest_feasible(const nocmap::graph::CoreGraph& graph, const std::string& mapper,
                       const nocmap::portfolio::TopologySpec& kind) {
    double floor_bw = 0.0;
    for (const auto& e : graph.edges()) floor_bw = std::max(floor_bw, e.bandwidth);
    if (mapper != "nmap") {
        floor_bw /= 4.0;
        for (std::size_t v = 0; v < graph.node_count(); ++v)
            floor_bw = std::max(floor_bw, graph.node_traffic(static_cast<nocmap::graph::NodeId>(v)) / 8.0);
    }
    for (double bw = std::max(kGrid, grid_ceil(floor_bw)); bw <= 100000.0; bw += kGrid)
        if (feasible_at(graph, mapper, kind, bw)) return bw;
    throw std::runtime_error("no feasible bandwidth found for " + graph.name());
}

} // namespace

int calibrate(const json::Value& config) {
    const auto mesh = nocmap::portfolio::TopologySpec::parse("mesh");
    std::cout << "{";
    for (const char* workload : {"nmap-tight", "split-tight"}) {
        std::cout << "\n  \"" << workload << "\": [";
        const char* sep = "";
        for (const json::Value& e : config.find(workload)->find("instances")->as_array()) {
            const auto graph = nocmap::apps::load_graph_or_application(e.find("app")->as_string());
            const std::string mapper = e.find("mapper")->as_string();
            std::cout << sep << "\n    {\"app\": " << json::quoted(e.find("app")->as_string())
                      << ", \"mapper\": " << json::quoted(mapper)
                      << ", \"bandwidth\": " << lowest_feasible(graph, mapper, mesh) << "}" << std::flush;
            sep = ",";
        }
        std::cout << "],";
    }
    // serve-mixed light requests: the lowest grid point where every app is
    // feasible on every fabric kind the light requests use, and the next
    // all-feasible point at least 1.5x above it.
    const json::Value& light = *config.find("serve-mixed")->find("light");
    std::vector<nocmap::graph::CoreGraph> graphs;
    for (const json::Value& app : light.find("apps")->as_array())
        graphs.push_back(nocmap::apps::load_graph_or_application(app.as_string()));
    std::vector<nocmap::portfolio::TopologySpec> kinds;
    for (const json::Value& csv : light.find("topologies")->as_array())
        for (const auto& spec : nocmap::portfolio::parse_topology_list(csv.as_string()))
            if (std::none_of(kinds.begin(), kinds.end(),
                             [&](const auto& k) { return k.variant == spec.variant; }))
                kinds.push_back(spec);
    double t1 = 0.0;
    for (const auto& g : graphs)
        for (const auto& k : kinds) t1 = std::max(t1, lowest_feasible(g, "nmap", k));
    const auto all_feasible = [&](double bw) {
        for (const auto& g : graphs)
            for (const auto& k : kinds)
                if (!feasible_at(g, "nmap", k, bw)) return false;
        return true;
    };
    while (!all_feasible(t1)) t1 += kGrid;
    double t2 = grid_ceil(1.5 * t1);
    while (!all_feasible(t2)) t2 += kGrid;
    std::cout << "\n  \"serve-mixed light bandwidths\": [" << t1 << ", " << t2 << "]\n}\n";
    return 0;
}

// -------------------------------------------------------------- self-test

int self_test(const json::Value& config) {
    int failures = 0;
    const auto expect = [&](bool ok, const std::string& what) {
        std::cerr << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
        if (!ok) ++failures;
    };
    const auto near = [](double a, double b) { return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b)); };

    expect(near(percentile({1, 2, 3, 4}, 50), 2.5), "percentile({1,2,3,4}, 50) = 2.5");
    expect(near(percentile({5, 1, 4, 2, 3}, 90), 4.6), "percentile({5,1,4,2,3}, 90) = 4.6");
    expect(near(percentile({3, 1, 2}, 0), 1.0), "percentile({3,1,2}, 0) = 1");
    expect(near(percentile({7}, 99), 7.0), "percentile({7}, 99) = 7");
    expect(samples_beyond(100, 90) == 10 && samples_beyond(66, 80) == 13, "samples beyond p90 of 100 = 10");
    expect(near(geomean({1, 4, 16}), 4.0) && near(geomean({2, 8}), 4.0), "geomean({1,4,16}) = 4");
    expect(Rng(0).next() == 0xE220A8397B1DCDAFULL, "splitmix64(0) first output");
    {
        Rng rng(1);
        const auto s = poisson_schedule(100.0, 2, rng);
        expect(near(s[0], 0.008360055347703592) && near(s[1], 0.022055676922798625),
               "Poisson offsets for seed 1 at 100/s");
        Rng big(7);
        const auto many = poisson_schedule(100.0, 20000, big);
        bool increasing = true;
        for (std::size_t i = 1; i < many.size(); ++i) increasing &= many[i] > many[i - 1];
        expect(increasing && std::abs(many.back() / 20000.0 - 0.01) < 0.0002,
               "Poisson schedule increases with mean gap 1/rate");
    }
    expect(!compare_documents("{\"a\": 1}", "{\"a\": 1}"), "identical documents compare equal");
    expect(compare_documents("{\"a\": 1}", "{\"a\": 2}").has_value(), "a one-byte report corruption is caught");

    // Every validator against a corrupted copy of a real result of each kind.
    const auto split_bw = [&](const std::string& mapper) {
        for (const json::Value& e : config.find("split-tight")->find("instances")->as_array())
            if (e.find("app")->as_string() == "vopd" && e.find("mapper")->as_string() == mapper)
                return bandwidth_of(e);
        throw std::runtime_error("split-tight lacks vopd/" + mapper);
    };
    const std::pair<const char*, double> cases[] = {
        {"nmap", 1e9}, {"nmap-split", split_bw("nmap-split")}, {"nmap-tm", split_bw("nmap-tm")}};
    const auto graph = nocmap::apps::load_graph_or_application("vopd");
    for (const auto& [mapper, bw] : cases) {
        const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(graph.node_count(), bw));
        const auto result = map_or_throw(mapper, graph, ctx);
        const auto missed = validator_self_test(graph, ctx.topology(), result, result_kind(mapper));
        for (const std::string& m : missed) expect(false, std::string(mapper) + " validator missed: " + m);
        if (missed.empty()) expect(true, std::string(mapper) + " validators reject every corruption");
    }
    std::cerr << (failures ? "self-test FAILED\n" : "self-test passed\n");
    return failures;
}

} // namespace bench

namespace {

int usage() {
    std::cerr << "usage: nocmap_bench run --workload W --seed N --seconds S --trace 0|1 --config FILE "
                 "--out FILE [--trace-out FILE] [--git-sha SHA] [--corrupt]\n"
                 "       nocmap_bench calibrate --config FILE\n"
                 "       nocmap_bench self-test --config FILE\n";
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    using namespace bench;
    if (argc < 2) return usage();
    const std::string command = argv[1];
    Options options;
    options.nproc = static_cast<std::size_t>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
    std::string out_path, git_sha = "unknown";
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") options.workload = value();
            else if (arg == "--seed") options.seed = std::stoull(value());
            else if (arg == "--seconds") options.seconds = std::stod(value());
            else if (arg == "--trace") options.trace = value() != "0";
            else if (arg == "--config") options.config_path = value();
            else if (arg == "--out") out_path = value();
            else if (arg == "--trace-out") options.trace_path = value();
            else if (arg == "--git-sha") git_sha = value();
            else if (arg == "--corrupt") options.corrupt = true;
            else return usage();
        } catch (const std::exception& e) {
            std::cerr << "nocmap_bench: " << e.what() << "\n";
            return usage();
        }
    }
    if (!optimized_build()) {
        std::cerr << "nocmap_bench: refusing to measure a " << NOCMAP_BENCH_BUILD_TYPE
                  << " / assertion or sanitizer build; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 3;
    }
    try {
        const json::Value config = load_config(options.config_path);
        if (command == "calibrate") return calibrate(config);
        if (command == "self-test") return self_test(config) == 0 ? 0 : 1;
        if (command != "run" || out_path.empty()) return usage();

        Report report;
        report.workload = options.workload;
        report.seed = options.seed;
        report.trace = options.trace;
        if (options.workload == "nmap-tight") run_nmap_tight(options, config, report);
        else if (options.workload == "split-tight") run_split_tight(options, config, report);
        else if (options.workload == "dse-sim") run_dse_sim(options, config, report);
        else if (options.workload == "serve-mixed") run_serve_mixed(options, config, report);
        else {
            std::cerr << "nocmap_bench: unknown workload '" << options.workload << "'\n";
            return 2;
        }
        if (options.trace) run_layer_kernels(options, config, report);
        std::ofstream(out_path) << report_json(report, options, git_sha);
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "nocmap_bench: " << e.what() << "\n";
        return 1;
    }
}
