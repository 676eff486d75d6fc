// Distributed sweep sharding: sweeps/sec of the rows-mode shard
// coordinator at 1/2/4 workers, one nmap sweep per run, on two grids:
//
//   ample  random64 on an 8x8 mesh at 1e9 MB/s — the request the
//          BENCH_shard.json trajectory has always recorded. The Eq. 7
//          delta prune rejects most candidates without routing, rows are
//          light and the protocol round-trips dominate: rows mode runs
//          slower with more workers here. Reported, not gated.
//   tight  random144 on a 12x12 mesh at 0.9x the peak link load of its
//          initial placement. The incumbent stays infeasible, so the delta
//          prune (it needs a feasible incumbent) rejects nothing and every
//          candidate is scored by the ledger replay: compute-bound rows,
//          the workload rows-mode sharding exists for. Gated.
//
// Workers are in-process service::Service instances behind WorkerLink: the
// coordinator's fan-out threads drive them concurrently, so the scaling
// measured here is the scatter/merge pipeline itself, with the socket
// transport (identical line protocol) as the only part not exercised.
//
// Correctness is asserted on every run, at every worker count, on both
// grids: the merged report must be byte-identical to a single-node
// PortfolioRunner run of the same grid (the shard determinism contract).
// `--smoke` additionally gates >= 1.5x sweeps/sec at 4 workers vs 1 on the
// tight grid — only when the host has >= 4 hardware threads (a 1-core CI
// box cannot scale; parity still must hold) — and exits non-zero on any
// violation. Results land in shard_scaling.csv (both grids) and the
// BENCH_shard.json trajectory file (the ample rows, plus the tight grid's
// gate verdict).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/random_graph.hpp"
#include "nmap/initialize.hpp"
#include "nmap/shortest_path_router.hpp"
#include "portfolio/report.hpp"
#include "portfolio/runner.hpp"
#include "portfolio/scenario.hpp"
#include "shard/coordinator.hpp"
#include "shard/worker_link.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

#include "bench_common.hpp"

namespace {

using namespace nocmap;

std::shared_ptr<const graph::CoreGraph> random_app(std::size_t cores) {
    graph::RandomGraphConfig config;
    config.core_count = cores;
    config.average_out_degree = 2.5;
    config.seed = 7;
    return std::make_shared<const graph::CoreGraph>(graph::generate_random_core_graph(config));
}

/// Peak link load of the initial placement of `app` on its mesh.
double initial_peak_load(const graph::CoreGraph& app) {
    const auto topo = noc::Topology::smallest_mesh_for(app.node_count(), 1e9);
    return nmap::evaluate_mapping(app, noc::EvalContext::borrow(topo),
                                  nmap::initial_mapping(app, topo))
        .max_load;
}

std::vector<portfolio::Scenario> sweep_grid(
    const std::shared_ptr<const graph::CoreGraph>& app, std::size_t cores, double capacity) {
    engine::Params params;
    params.set("sweeps", engine::ParamValue::of_int(1));
    std::vector<std::pair<std::string, std::shared_ptr<const graph::CoreGraph>>> apps;
    apps.emplace_back("random" + std::to_string(cores), app);
    return portfolio::make_grid(apps, portfolio::parse_topology_list("mesh", capacity), "nmap",
                                params, 0);
}

/// One measured grid: nmap on `cores` random cores at `capacity` MB/s.
struct Workload {
    std::string name;
    std::size_t cores = 0;
    double capacity = 0.0;
};

Workload ample_workload() { return {"ample", 64, 1e9}; }

Workload tight_workload() {
    const std::size_t cores = 144;
    return {"tight", cores, 0.9 * initial_peak_load(*random_app(cores))};
}

std::string stable_json(const std::vector<portfolio::ScenarioResult>& results) {
    portfolio::JsonOptions json;
    json.timings = false;
    return portfolio::to_json(results, portfolio::PortfolioRunner::rank_topologies(results),
                              json);
}

std::vector<std::unique_ptr<shard::WorkerLink>> in_process_links(std::size_t count) {
    std::vector<std::unique_ptr<shard::WorkerLink>> links;
    for (std::size_t i = 0; i < count; ++i) links.push_back(shard::in_process_worker());
    return links;
}

struct ScaleRow {
    std::size_t workers = 0;
    double wall_ms = std::numeric_limits<double>::infinity();
    double sweeps_per_sec = 0.0;
    double speedup = 1.0; ///< vs the 1-worker row
    bool parity = true;
};

/// Best-of-repeats wall time of one sharded sweep at `workers`, with the
/// byte-parity check against `expected` applied to every repeat.
ScaleRow measure(const std::vector<portfolio::Scenario>& grid, std::size_t workers,
                 std::size_t repeats, const std::string& expected) {
    ScaleRow row;
    row.workers = workers;
    for (std::size_t r = 0; r < repeats; ++r) {
        shard::ShardOptions options;
        options.mode = shard::ShardMode::Rows;
        shard::Coordinator coordinator(in_process_links(workers), options);
        const auto start = std::chrono::steady_clock::now();
        const auto results = coordinator.run_grid(grid);
        row.wall_ms = std::min(row.wall_ms, bench::ms_since(start));
        if (stable_json(results) != expected) row.parity = false;
    }
    row.sweeps_per_sec = 1000.0 / row.wall_ms; // the grid runs exactly one sweep
    return row;
}

/// host_cores recorded in an existing BENCH_shard.json (0 when the file is
/// absent or unreadable). A trajectory measured on a bigger host must not be
/// silently replaced by one from a smaller host: the rows would "regress"
/// only because the hardware shrank, poisoning the bench-regression baseline.
std::size_t recorded_host_cores(const std::string& path) {
    std::ifstream in(path);
    if (!in) return 0;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    try {
        const auto doc = util::json::parse(text);
        if (const auto* cores = doc.find("host_cores"))
            return static_cast<std::size_t>(cores->as_number());
    } catch (const std::exception&) {
        // Unparseable file: treat as absent and overwrite with a valid one.
    }
    return 0;
}

struct Measured {
    Workload workload;
    std::size_t tiles = 0;
    std::vector<ScaleRow> rows; ///< 1, 2 and 4 workers
};

Measured measure_workload(const Workload& workload, std::size_t repeats) {
    const auto app = random_app(workload.cores);
    const auto grid = sweep_grid(app, workload.cores, workload.capacity);
    // The reference bytes every sharded run must reproduce.
    portfolio::PortfolioRunner runner{portfolio::PortfolioOptions{}};
    const std::string expected = stable_json(runner.run(grid));

    Measured m{workload, grid.front().topology.build(workload.cores).tile_count(), {}};
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}})
        m.rows.push_back(measure(grid, workers, repeats, expected));
    for (ScaleRow& row : m.rows) row.speedup = m.rows.front().wall_ms / row.wall_ms;
    return m;
}

void write_trajectory(const Measured& trajectory, const Measured& gated,
                      std::size_t host_cores, bool gate_enforced,
                      const std::string& skip_reason) {
    const std::size_t existing = recorded_host_cores("BENCH_shard.json");
    if (existing > host_cores) {
        std::cerr << "BENCH_shard.json: existing trajectory was measured on "
                  << existing << " cores, this host has " << host_cores
                  << "; refusing to overwrite (delete the file to force)\n";
        return;
    }
    std::ofstream out("BENCH_shard.json");
    if (!out) {
        std::cerr << "BENCH_shard.json: cannot open for writing\n";
        return;
    }
    out << "{\n  \"bench\": \"shard_scaling\",\n"
        << "  \"metric\": \"rows-mode sharded sweeps per second vs worker count\",\n"
        << "  \"host_cores\": " << host_cores << ",\n  \"tiles\": " << trajectory.tiles
        << ",\n  \"gate\": {\"floor_speedup_at_4\": 1.5, \"enforced\": "
        << (gate_enforced ? "true" : "false") << ", \"skip_reason\": \""
        << skip_reason << "\", \"tiles\": " << gated.tiles
        << ", \"speedup_at_4\": " << gated.rows.back().speedup << "},\n"
        << "  \"rows\": [\n";
    const std::vector<ScaleRow>& rows = trajectory.rows;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ScaleRow& r = rows[i];
        out << "    {\"workers\": " << r.workers << ", \"wall_ms\": " << r.wall_ms
            << ", \"sweeps_per_sec\": " << r.sweeps_per_sec
            << ", \"speedup_vs_1\": " << r.speedup
            << ", \"byte_parity\": " << (r.parity ? "true" : "false") << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

int run_report(bool smoke) {
    const std::size_t repeats = smoke ? 2 : 3;
    const std::size_t host_cores =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    const Measured ample = measure_workload(ample_workload(), repeats);
    const Measured tight = measure_workload(tight_workload(), repeats);

    util::Table table("Sharded swap-sweep scaling — nmap on a mesh, rows mode");
    table.set_header({"grid", "tiles", "workers", "wall (ms)", "sweeps/s", "speedup vs 1",
                      "byte parity"});
    std::vector<std::vector<std::string>> csv;
    bool ok = true;
    for (const Measured* m : {&ample, &tight}) {
        const std::string grid =
            m->workload.name + " random" + std::to_string(m->workload.cores);
        for (const ScaleRow& row : m->rows) {
            table.add_row({grid, util::Table::num(static_cast<long long>(m->tiles)),
                           util::Table::num(static_cast<long long>(row.workers)),
                           util::Table::num(row.wall_ms, 2),
                           util::Table::num(row.sweeps_per_sec, 3),
                           util::Table::num(row.speedup, 2), row.parity ? "yes" : "NO"});
            csv.push_back({m->workload.name, std::to_string(m->tiles),
                           std::to_string(row.workers), util::Table::num(row.wall_ms, 3),
                           util::Table::num(row.sweeps_per_sec, 4),
                           util::Table::num(row.speedup, 3), row.parity ? "1" : "0"});
            if (!row.parity) {
                std::cerr << "shard_scaling: " << grid << " " << row.workers
                          << "-worker run diverged from the single-node bytes\n";
                ok = false;
            }
        }
    }
    table.print(std::cout);
    std::cout << "(acceptance: every worker count byte-identical to single-node; smoke "
                 "gate: >= 1.5x sweeps/sec at 4 workers on the tight grid, on hosts with "
                 ">= 4 threads; this host: "
              << host_cores << ")\n";

    // The gate verdict goes into BENCH_shard.json too (not just stderr/
    // stdout): a scraped artifact must explain on its own why a 1-core run
    // shows no scaling.
    const bool gate_enforced = host_cores >= 4;
    const std::string skip_reason =
        gate_enforced ? ""
                      : "host has " + std::to_string(host_cores) +
                            " hardware threads < 4: in-process workers cannot "
                            "scale; byte parity still enforced";
    if (smoke) {
        if (gate_enforced && tight.rows.back().speedup < 1.5) {
            std::cerr << "smoke: 4-worker speedup " << tight.rows.back().speedup
                      << "x below the 1.5x gate\n";
            ok = false;
        } else if (!gate_enforced) {
            std::cout << "smoke: speedup gate skipped (" << skip_reason << ")\n";
        }
    }

    bench::try_write_csv("shard_scaling.csv",
                         {"grid", "tiles", "workers", "wall_ms", "sweeps_per_sec", "speedup",
                          "parity"},
                         csv);
    write_trajectory(ample, tight, host_cores, gate_enforced, skip_reason);
    return ok ? 0 : 1;
}

void bm_sharded_sweep(benchmark::State& state) {
    const std::size_t workers = static_cast<std::size_t>(state.range(0));
    const Workload workload = ample_workload();
    const auto grid = sweep_grid(random_app(workload.cores), workload.cores, workload.capacity);
    shard::ShardOptions options;
    options.mode = shard::ShardMode::Rows;
    shard::Coordinator coordinator(in_process_links(workers), options);
    for (auto _ : state) benchmark::DoNotOptimize(coordinator.run_grid(grid));
}

} // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (smoke) return run_report(true);

    const int status = run_report(false);
    benchmark::RegisterBenchmark("shard64/rows", bm_sharded_sweep)
        ->Arg(1)
        ->Arg(2)
        ->Arg(4)
        ->Unit(benchmark::kMillisecond);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return status;
}
