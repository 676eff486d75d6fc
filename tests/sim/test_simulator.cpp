#include "sim/simulator.hpp"

#include <gtest/gtest.h>

namespace nocmap::sim {
namespace {

FlowSpec single_flow(const noc::Topology& topo, noc::TileId src, noc::TileId dst,
                     double mbps) {
    FlowSpec f;
    f.commodity.id = 0;
    f.commodity.src_core = 0;
    f.commodity.dst_core = 1;
    f.commodity.src_tile = src;
    f.commodity.dst_tile = dst;
    f.commodity.value = mbps;
    f.paths.emplace_back(noc::xy_route(topo, src, dst), 1.0);
    return f;
}

SimConfig quick_config() {
    SimConfig cfg;
    cfg.warmup_cycles = 2'000;
    cfg.measure_cycles = 30'000;
    cfg.drain_cycles = 30'000;
    return cfg;
}

TEST(Simulator, DeliversAllMeasuredPackets) {
    const auto topo = noc::Topology::mesh(2, 1, 1600.0);
    Simulator sim(topo, {single_flow(topo, 0, 1, 200.0)}, quick_config());
    const auto stats = sim.run();
    EXPECT_FALSE(stats.stalled);
    EXPECT_GT(stats.packets_injected, 50u);
    EXPECT_EQ(stats.packets_injected, stats.packets_ejected);
}

TEST(Simulator, LatencyAtLeastAnalyticalMinimum) {
    const auto topo = noc::Topology::mesh(2, 1, 1600.0);
    SimConfig cfg = quick_config();
    Simulator sim(topo, {single_flow(topo, 0, 1, 100.0)}, cfg);
    const auto stats = sim.run();
    // Minimum: serialization of 16 flits at 0.4 flits/cycle across one link
    // plus the 7-cycle hop delay.
    const double serialization =
        static_cast<double>(cfg.packet_bytes) / (1600.0 / (1000.0 * cfg.clock_ghz));
    EXPECT_GE(stats.packet_latency.min(), serialization);
    EXPECT_GE(stats.packet_latency.min(), static_cast<double>(cfg.hop_delay_cycles));
}

TEST(Simulator, MoreHopsMeansMoreLatency) {
    const auto topo = noc::Topology::mesh(4, 1, 1600.0);
    SimConfig cfg = quick_config();
    Simulator near_sim(topo, {single_flow(topo, 0, 1, 100.0)}, cfg);
    Simulator far_sim(topo, {single_flow(topo, 0, 3, 100.0)}, cfg);
    const auto near_stats = near_sim.run();
    const auto far_stats = far_sim.run();
    EXPECT_GT(far_stats.packet_latency.mean(), near_stats.packet_latency.mean());
}

TEST(Simulator, ContentionRaisesLatency) {
    // Two flows forced onto one shared link vs. the same flows alone.
    const auto topo = noc::Topology::mesh(3, 1, 1000.0);
    SimConfig cfg = quick_config();
    auto f1 = single_flow(topo, 0, 2, 350.0);
    auto f2 = single_flow(topo, 1, 2, 350.0);
    f2.commodity.id = 1;
    Simulator shared(topo, {f1, f2}, cfg);
    Simulator alone(topo, {f1}, cfg);
    const auto shared_stats = shared.run();
    const auto alone_stats = alone.run();
    EXPECT_FALSE(shared_stats.stalled);
    EXPECT_GT(shared_stats.packet_latency.mean(),
              alone_stats.packet_latency.mean() * 1.05);
}

TEST(Simulator, SplitFlowBeatsSinglePathUnderLoad) {
    // A heavy corner-to-corner flow on a 2x2 mesh: splitting across the two
    // minimal paths halves the per-link load and cuts queueing latency.
    const auto topo = noc::Topology::mesh(2, 2, 900.0);
    const noc::TileId src = topo.tile_at(0, 0);
    const noc::TileId dst = topo.tile_at(1, 1);
    SimConfig cfg = quick_config();

    auto single = single_flow(topo, src, dst, 600.0);
    FlowSpec split = single;
    split.paths.clear();
    const std::vector<noc::TileId> upper{src, topo.tile_at(1, 0), dst};
    const std::vector<noc::TileId> lower{src, topo.tile_at(0, 1), dst};
    split.paths.emplace_back(noc::route_along(topo, upper), 0.5);
    split.paths.emplace_back(noc::route_along(topo, lower), 0.5);

    Simulator single_sim(topo, {single}, cfg);
    Simulator split_sim(topo, {split}, cfg);
    const auto single_stats = single_sim.run();
    const auto split_stats = split_sim.run();
    EXPECT_FALSE(single_stats.stalled);
    EXPECT_FALSE(split_stats.stalled);
    EXPECT_LT(split_stats.packet_latency.mean(), single_stats.packet_latency.mean());
}

TEST(Simulator, UtilizationTracksOfferedLoad) {
    const auto topo = noc::Topology::mesh(2, 1, 1000.0);
    SimConfig cfg = quick_config();
    Simulator sim(topo, {single_flow(topo, 0, 1, 400.0)}, cfg);
    const auto stats = sim.run();
    const auto link = topo.link_between(0, 1).value();
    // Offered load is 40% of capacity; allow slack for warmup edges.
    EXPECT_NEAR(stats.link_utilization[static_cast<std::size_t>(link)], 0.4, 0.08);
    // The reverse link is idle.
    const auto back = topo.link_between(1, 0).value();
    EXPECT_NEAR(stats.link_utilization[static_cast<std::size_t>(back)], 0.0, 1e-9);
}

TEST(Simulator, DeterministicForFixedSeed) {
    const auto topo = noc::Topology::mesh(3, 2, 800.0);
    SimConfig cfg = quick_config();
    auto f1 = single_flow(topo, 0, 5, 150.0);
    auto f2 = single_flow(topo, 2, 3, 250.0);
    f2.commodity.id = 1;
    Simulator a(topo, {f1, f2}, cfg);
    Simulator b(topo, {f1, f2}, cfg);
    const auto sa = a.run();
    const auto sb = b.run();
    EXPECT_EQ(sa.packets_injected, sb.packets_injected);
    EXPECT_DOUBLE_EQ(sa.packet_latency.mean(), sb.packet_latency.mean());
}

TEST(Simulator, RunIsSingleUse) {
    // A second run() would restart at cycle 0 with generators already past
    // their schedule and statistics that keep accumulating: it throws.
    const auto topo = noc::Topology::mesh(2, 1, 1000.0);
    Simulator sim(topo, {single_flow(topo, 0, 1, 200.0)}, quick_config());
    const auto first = sim.run();
    const std::size_t packets = sim.packet_records().size();
    EXPECT_THROW(sim.run(), std::logic_error);
    EXPECT_EQ(sim.packet_records().size(), packets);
    EXPECT_GT(first.packets_injected, 0u);
}

TEST(Simulator, SeedChangesTraffic) {
    const auto topo = noc::Topology::mesh(2, 1, 1000.0);
    SimConfig cfg = quick_config();
    SimConfig cfg2 = cfg;
    cfg2.seed = cfg.seed + 1;
    Simulator a(topo, {single_flow(topo, 0, 1, 300.0)}, cfg);
    Simulator b(topo, {single_flow(topo, 0, 1, 300.0)}, cfg2);
    EXPECT_NE(a.run().packet_latency.mean(), b.run().packet_latency.mean());
}

TEST(Simulator, RejectsBadConfigs) {
    const auto topo = noc::Topology::mesh(2, 1, 1000.0);
    SimConfig cfg;
    cfg.hop_delay_cycles = 0;
    EXPECT_THROW(Simulator(topo, {single_flow(topo, 0, 1, 100.0)}, cfg),
                 std::invalid_argument);
    SimConfig cfg2;
    cfg2.flit_bytes = 0;
    EXPECT_THROW(Simulator(topo, {single_flow(topo, 0, 1, 100.0)}, cfg2),
                 std::invalid_argument);
    // A flow injecting >= 1 packet/cycle is rejected up front.
    SimConfig cfg3;
    EXPECT_THROW(Simulator(topo, {single_flow(topo, 0, 1, 100'000.0)}, cfg3),
                 std::invalid_argument);
}

TEST(Simulator, MakeSinglePathFlowsHelper) {
    const auto topo = noc::Topology::mesh(3, 1, 1000.0);
    noc::Commodity c;
    c.id = 0;
    c.src_core = 0;
    c.dst_core = 1;
    c.src_tile = 0;
    c.dst_tile = 2;
    c.value = 100.0;
    const auto route = noc::xy_route(topo, 0, 2);
    const auto flows = make_single_path_flows(topo, {c}, {route});
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_EQ(flows[0].paths.size(), 1u);
    EXPECT_THROW(make_single_path_flows(topo, {c}, {}), std::invalid_argument);
}

TEST(Simulator, FlowStatsPartitionTotals) {
    const auto topo = noc::Topology::mesh(3, 1, 1200.0);
    SimConfig cfg = quick_config();
    auto f1 = single_flow(topo, 0, 2, 200.0);
    auto f2 = single_flow(topo, 1, 0, 150.0);
    f2.commodity.id = 1;
    Simulator sim(topo, {f1, f2}, cfg);
    const auto stats = sim.run();
    std::uint64_t injected = 0, ejected = 0;
    for (const auto& fs : stats.flows) {
        injected += fs.packets_injected;
        ejected += fs.packets_ejected;
    }
    EXPECT_EQ(injected, stats.packets_injected);
    EXPECT_EQ(ejected, stats.packets_ejected);
}

} // namespace
} // namespace nocmap::sim
