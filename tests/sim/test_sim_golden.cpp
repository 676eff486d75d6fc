// Packet-trace golden for the cycle-accurate simulator.
//
// Each case maps one application onto one fabric, routes it single-path
// (minimum paths) and split (MinMaxLoad MCF), and simulates both at four
// link capacities (4, 1.5, 1.1 and 0.9 x the routing's peak load) and two
// injection processes (bursty 4x and uniform). The FNV-1a hash of every
// run's packet trace CSV, cycles_run, stalled flag, link-utilization bits
// and per-flow latency/jitter/hop statistics is pinned below: any change to
// the simulator's schedule that moves a single flit shows up here.
//
// SimGoldenEdges pins the corners of the schedule: flows whose first packet
// falls just before, at or after the end of the measurement window (with
// and without a drain), flows whose burst peak rate is clamped to one
// packet per cycle, and a wormhole deadlock on a ring that the watchdog
// stops after light, idle-heavy traffic.
//
// The hashes were recorded from a simulator that visited every router on
// every cycle, so they hold any faster schedule to that reference.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>

#include "apps/registry.hpp"
#include "lp/mcf.hpp"
#include "nmap/shortest_path_router.hpp"
#include "nmap/single_path.hpp"
#include "noc/commodity.hpp"
#include "noc/evaluation.hpp"
#include "portfolio/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace nocmap::sim {
namespace {

class Fnv1a {
public:
    void bytes(const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= 1099511628211ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void stats(const util::RunningStats& s) {
        u64(s.count());
        f64(s.mean());
        f64(s.stddev());
        f64(s.min());
        f64(s.max());
    }
    std::uint64_t value() const { return hash_; }

private:
    std::uint64_t hash_ = 14695981039346656037ull;
};

SimConfig golden_config(double burstiness) {
    SimConfig cfg;
    cfg.warmup_cycles = 1'000;
    cfg.measure_cycles = 6'000;
    cfg.drain_cycles = 6'000;
    cfg.traffic.burstiness = burstiness;
    return cfg;
}

/// Hash of everything a run reports: the trace, the run length, the stall
/// flag, link utilization and the per-flow statistics.
void hash_run(Fnv1a& h, const Simulator& sim, const SimStats& stats) {
    std::ostringstream trace;
    write_packet_trace(trace, sim.packet_records());
    const std::string csv = trace.str();
    h.bytes(csv.data(), csv.size());
    h.u64(stats.cycles_run);
    h.u64(stats.stalled ? 1 : 0);
    h.u64(stats.packets_injected);
    h.u64(stats.packets_ejected);
    h.stats(stats.packet_latency);
    for (const double u : stats.link_utilization) h.f64(u);
    for (const FlowStats& f : stats.flows) {
        h.u64(f.packets_injected);
        h.u64(f.packets_ejected);
        h.stats(f.latency);
        h.stats(f.inter_arrival);
        h.stats(f.hops);
        h.f64(f.jitter());
    }
}

struct GoldenCase {
    std::string app;
    std::string fabric;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.app << '/' << c.fabric; }

std::string case_name(const testing::TestParamInfo<GoldenCase>& info) {
    return info.param.app + "_" + info.param.fabric;
}

/// Expected hashes per "app/fabric/routing" (each covers the 8 runs of the
/// capacity x injection grid in order) and per "edge/..." case.
const std::map<std::string, std::uint64_t>& expected_hashes() {
    static const std::map<std::string, std::uint64_t> table = {
        {"mpeg4/mesh/single", 0x76672dca5a01b5faull},
        {"mpeg4/mesh/split", 0x7f4632cdc4b65f96ull},
        {"mpeg4/torus/single", 0x51af706c5dd9d7b6ull},
        {"mpeg4/torus/split", 0x39ec09b0f416a6beull},
        {"mpeg4/ring/single", 0x4aa7bae4ce0eb6caull},
        {"mpeg4/ring/split", 0xa8aba435836d7fadull},
        {"mpeg4/hypercube/single", 0xf27f73c0cb9e4467ull},
        {"mpeg4/hypercube/split", 0x57f73530a1498337ull},
        {"vopd/mesh/single", 0x633cb438ad3e8c18ull},
        {"vopd/mesh/split", 0x7c33fd970053d07dull},
        {"vopd/torus/single", 0x976add13a27aae89ull},
        {"vopd/torus/split", 0x09a331858c25afa0ull},
        {"vopd/ring/single", 0xdfb3a1aeedc4ce40ull},
        {"vopd/ring/split", 0xea0934827ef292ddull},
        {"vopd/hypercube/single", 0x8f36a8f6d5fec72eull},
        {"vopd/hypercube/split", 0xfead80c32ff49812ull},
        {"pip/mesh/single", 0xc8be8e95261993e1ull},
        {"pip/mesh/split", 0x85c355123451eb18ull},
        {"pip/torus/single", 0x6b323998e9ffd37bull},
        {"pip/torus/split", 0xdab6986489472793ull},
        {"pip/ring/single", 0x2ad42dbff76a715dull},
        {"pip/ring/split", 0xb8dd2c96f61387dfull},
        {"pip/hypercube/single", 0xb7670666b0cf8047ull},
        {"pip/hypercube/split", 0xb46c17c83cee6e8full},
        {"mwa/mesh/single", 0x8481dfb50dd26140ull},
        {"mwa/mesh/split", 0x7ae5b48bc377776cull},
        {"mwa/torus/single", 0x03a5aaa98d6718acull},
        {"mwa/torus/split", 0x48f3589a9bb52c7bull},
        {"mwa/ring/single", 0x945589d16dfc3e9bull},
        {"mwa/ring/split", 0xf5983698fce0b9d6ull},
        {"mwa/hypercube/single", 0x313b8e6d26d5943cull},
        {"mwa/hypercube/split", 0xf68fee7d9ff7d04bull},
        {"mwag/mesh/single", 0x028f480fb8ea971eull},
        {"mwag/mesh/split", 0xcb1e8ff179c5f515ull},
        {"mwag/torus/single", 0x267716fcb14d36b0ull},
        {"mwag/torus/split", 0xacd33f28711d7df5ull},
        {"mwag/ring/single", 0xcb2462f6676d0aa9ull},
        {"mwag/ring/split", 0x0cd8d78ed09d9161ull},
        {"mwag/hypercube/single", 0xf3f9b1157936f319ull},
        {"mwag/hypercube/split", 0x779b398f7b785c92ull},
        {"dsd/mesh/single", 0x0e98ae8da871ed09ull},
        {"dsd/mesh/split", 0x369b524a781f4f00ull},
        {"dsd/torus/single", 0x0d4e60053929f7ebull},
        {"dsd/torus/split", 0xcf7f7425d6db9d85ull},
        {"dsd/ring/single", 0x9473f1c5361190a0ull},
        {"dsd/ring/split", 0x33c05dae34c16d27ull},
        {"dsd/hypercube/single", 0x66777b8c11d67960ull},
        {"dsd/hypercube/split", 0x91f93572316f4690ull},
        {"dsp/mesh/single", 0x06f61b5cdc57660cull},
        {"dsp/mesh/split", 0xa61107bc3c80ee0cull},
        {"dsp/torus/single", 0xeb01af1695fb538dull},
        {"dsp/torus/split", 0xb6d4b125a78cddf0ull},
        {"dsp/ring/single", 0xc29cd5a94bd60184ull},
        {"dsp/ring/split", 0x356e15b05df4d03dull},
        {"dsp/hypercube/single", 0x0083006ab7db6523ull},
        {"dsp/hypercube/split", 0x3dd79d39d7925f78ull},
        {"edge/late-first-emission", 0xf490b7a40580b62dull},
        {"edge/first-emission-at-window-end", 0xb431830e877e04c1ull},
        {"edge/peak-rate-clamped", 0x285944cb000a36b7ull},
        {"edge/watchdog-after-idle", 0x671caa0343d96d38ull},
    };
    return table;
}

void expect_golden(const std::string& key, const Fnv1a& h) {
    const auto it = expected_hashes().find(key);
    if (it == expected_hashes().end()) {
        ADD_FAILURE() << "no golden for " << key << ": 0x" << std::hex << h.value();
        return;
    }
    EXPECT_EQ(h.value(), it->second) << key << ": 0x" << std::hex << h.value();
}

class SimGolden : public testing::TestWithParam<GoldenCase> {};

TEST_P(SimGolden, TraceAndStatsHashesAreStable) {
    const GoldenCase& c = GetParam();
    const auto graph = apps::make_application(c.app);
    const noc::Topology ample =
        portfolio::TopologySpec::parse(c.fabric, 1e9).build(graph.node_count());
    const auto ctx = noc::EvalContext::borrow(ample);
    const auto mapped = nmap::map_with_single_path(graph, ctx);
    ASSERT_TRUE(mapped.feasible);
    const auto commodities = noc::build_commodities(graph, mapped.mapping);

    const auto routed = nmap::route_single_min_paths(ctx, commodities);
    ASSERT_TRUE(routed.feasible);
    lp::McfOptions minmax;
    minmax.objective = lp::McfObjective::MinMaxLoad;
    minmax.use_exact_lp = false; // Frank–Wolfe: the split needs no LP optimality here
    const auto balanced = lp::solve_mcf(ctx, commodities, minmax);
    ASSERT_TRUE(balanced.solved);

    struct Routing {
        const char* name;
        std::vector<FlowSpec> flows;
        double peak;
    };
    const Routing routings[] = {
        {"single", make_single_path_flows(ample, commodities, routed.routes),
         noc::max_load(routed.loads)},
        {"split", make_split_flows(ample, commodities, balanced.flows), balanced.objective},
    };
    for (const Routing& routing : routings) {
        Fnv1a h;
        for (const double factor : {4.0, 1.5, 1.1, 0.9}) {
            noc::Topology topo = ample;
            topo.set_uniform_capacity(routing.peak * factor);
            for (const double burstiness : {4.0, 1.0}) {
                Simulator sim(topo, routing.flows, golden_config(burstiness));
                const SimStats stats = sim.run();
                hash_run(h, sim, stats);
            }
        }
        expect_golden(c.app + "/" + c.fabric + "/" + routing.name, h);
    }
}

std::vector<GoldenCase> all_cases() {
    std::vector<GoldenCase> cases;
    for (const char* app : {"mpeg4", "vopd", "pip", "mwa", "mwag", "dsd", "dsp"})
        for (const char* fabric : {"mesh", "torus", "ring", "hypercube"})
            cases.push_back({app, fabric});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, SimGolden, testing::ValuesIn(all_cases()), case_name);

FlowSpec flow_along(const noc::Topology& topo, const std::vector<noc::TileId>& tiles,
                    double mbps, std::int32_t id) {
    FlowSpec f;
    f.commodity.id = id;
    f.commodity.src_core = id;
    f.commodity.dst_core = id + 1;
    f.commodity.src_tile = tiles.front();
    f.commodity.dst_tile = tiles.back();
    f.commodity.value = mbps;
    f.paths.emplace_back(noc::route_along(topo, tiles), 1.0);
    return f;
}

TEST(SimGoldenEdges, FirstEmissionAtOrAfterWindowEnd) {
    // 1 MB/s is one packet per 64,000 cycles: the random initial phase puts
    // most first packets past the 3,000-cycle window, a few inside it.
    const auto topo = noc::Topology::mesh(3, 1, 800.0);
    const std::vector<FlowSpec> flows = {flow_along(topo, {0, 1, 2}, 1.0, 0),
                                         flow_along(topo, {2, 1}, 1.5, 1)};
    Fnv1a h;
    std::size_t runs_with_packets = 0;
    for (const std::uint64_t drain : {std::uint64_t{0}, std::uint64_t{4'000}}) {
        for (std::uint64_t seed = 1; seed <= 24; ++seed) {
            SimConfig cfg;
            cfg.warmup_cycles = 500;
            cfg.measure_cycles = 3'000;
            cfg.drain_cycles = drain;
            cfg.seed = seed;
            Simulator sim(topo, flows, cfg);
            const SimStats stats = sim.run();
            runs_with_packets += sim.packet_records().empty() ? 0 : 1;
            hash_run(h, sim, stats);
        }
    }
    EXPECT_GT(runs_with_packets, 0u);
    expect_golden("edge/late-first-emission", h);
}

TEST(SimGoldenEdges, FirstEmissionNextToWindowEnd) {
    // The window closes one cycle before, at, and one cycle after the first
    // packet of a lone flow. The simulator seeds flow f's generator with
    // the f-th split of Rng(seed); a twin generator finds that cycle.
    const auto topo = noc::Topology::mesh(3, 1, 800.0);
    const std::vector<FlowSpec> flows = {flow_along(topo, {0, 1, 2}, 40.0, 0)};
    Fnv1a h;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        util::Rng master(seed);
        BurstyGenerator twin(40.0 / (1000.0 * 64.0), TrafficConfig{}, master.split());
        std::uint64_t first = 0;
        while (!twin.emits_at(first)) ++first;
        ASSERT_GT(first, 1u);
        for (const std::uint64_t end : {first - 1, first, first + 1}) {
            SimConfig cfg;
            cfg.warmup_cycles = 0;
            cfg.measure_cycles = end;
            cfg.drain_cycles = 2'000;
            cfg.seed = seed;
            Simulator sim(topo, flows, cfg);
            const SimStats stats = sim.run();
            EXPECT_EQ(sim.packet_records().size(), end > first ? 1u : 0u) << "end " << end;
            hash_run(h, sim, stats);
        }
    }
    expect_golden("edge/first-emission-at-window-end", h);
}

TEST(SimGoldenEdges, PeakRateClampedToOnePacketPerCycle) {
    // 20,000 MB/s is 0.31 packets/cycle: bursts at 4x clamp to 1 packet per
    // cycle; the uniform process spaces packets evenly.
    const auto topo = noc::Topology::mesh(2, 2, 64'000.0);
    const std::vector<FlowSpec> flows = {flow_along(topo, {0, 1, 3}, 20'000.0, 0),
                                         flow_along(topo, {2, 3}, 9'000.0, 1)};
    Fnv1a h;
    for (const double burstiness : {4.0, 1.0}) {
        SimConfig cfg;
        cfg.warmup_cycles = 500;
        cfg.measure_cycles = 4'000;
        cfg.drain_cycles = 4'000;
        cfg.traffic.burstiness = burstiness;
        Simulator sim(topo, flows, cfg);
        const SimStats stats = sim.run();
        hash_run(h, sim, stats);
    }
    expect_golden("edge/peak-rate-clamped", h);
}

TEST(SimGoldenEdges, WatchdogFiresAfterIdleStretches) {
    // Four flows each travel three hops clockwise around a 4-tile ring: a
    // cyclic channel dependency that deadlocks wormhole routing once enough
    // packets overlap. Light loads leave long idle stretches first.
    const auto ring = noc::Topology::ring(4, 1000.0);
    Fnv1a h;
    std::size_t stalled = 0;
    for (const double mbps : {300.0, 400.0, 800.0}) {
        std::vector<FlowSpec> flows;
        for (noc::TileId t = 0; t < 4; ++t)
            flows.push_back(
                flow_along(ring, {t, (t + 1) % 4, (t + 2) % 4, (t + 3) % 4}, mbps, t));
        for (const std::uint64_t watchdog : {std::uint64_t{2'000}, std::uint64_t{20'000}}) {
            SimConfig cfg;
            cfg.warmup_cycles = 1'000;
            cfg.measure_cycles = 30'000;
            cfg.drain_cycles = 30'000;
            cfg.stall_watchdog_cycles = watchdog;
            Simulator sim(ring, flows, cfg);
            const SimStats stats = sim.run();
            stalled += stats.stalled ? 1 : 0;
            hash_run(h, sim, stats);
        }
    }
    EXPECT_GE(stalled, 4u);
    expect_golden("edge/watchdog-after-idle", h);
}

} // namespace
} // namespace nocmap::sim
