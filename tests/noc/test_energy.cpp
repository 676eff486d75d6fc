#include "noc/energy.hpp"

#include <gtest/gtest.h>

#include "noc/eval_context.hpp"

namespace nocmap::noc {
namespace {

Commodity make_commodity(TileId src, TileId dst, double value) {
    Commodity c;
    c.id = 0;
    c.src_tile = src;
    c.dst_tile = dst;
    c.value = value;
    return c;
}

TEST(Energy, BitEnergyFormula) {
    EnergyModel m;
    m.switch_pj_per_bit = 1.0;
    m.link_pj_per_bit = 10.0;
    EXPECT_DOUBLE_EQ(m.bit_energy(0), 1.0);        // same tile: one switch
    EXPECT_DOUBLE_EQ(m.bit_energy(1), 2.0 + 10.0); // two switches, one link
    EXPECT_DOUBLE_EQ(m.bit_energy(3), 4.0 + 30.0);
}

TEST(Energy, MappingEnergyScalesWithDistanceAndValue) {
    const EvalContext ctx(Topology::mesh(4, 1, 1e9));
    const double near_energy = mapping_energy_mw(ctx, {make_commodity(0, 1, 100.0)});
    const double far_energy = mapping_energy_mw(ctx, {make_commodity(0, 3, 100.0)});
    const double heavy_energy = mapping_energy_mw(ctx, {make_commodity(0, 1, 200.0)});
    EXPECT_GT(far_energy, near_energy);
    EXPECT_NEAR(heavy_energy, 2.0 * near_energy, 1e-9);
}

TEST(Energy, KnownValue) {
    // 100 MB/s over 1 hop: (2*0.284 + 0.449) pJ/bit * 8e8 bit/s = 0.8136 mW.
    const EvalContext ctx(Topology::mesh(2, 1, 1e9));
    const double e = mapping_energy_mw(ctx, {make_commodity(0, 1, 100.0)});
    EXPECT_NEAR(e, (2 * 0.284 + 0.449) * 100.0 * 8e6 * 1e-12 * 1e3, 1e-9);
}

TEST(Energy, RoutedEnergyMatchesMappingForMinimalRoutes) {
    const auto topo = Topology::mesh(3, 3, 1e9);
    const auto ctx = EvalContext::borrow(topo);
    const auto c = make_commodity(0, 8, 150.0);
    const auto route = xy_route(topo, c.src_tile, c.dst_tile);
    EXPECT_NEAR(routed_energy_mw({c}, {route}), mapping_energy_mw(ctx, {c}), 1e-9);
}

TEST(Energy, NonMinimalRouteCostsMore) {
    const auto topo = Topology::mesh(3, 3, 1e9);
    const auto c = make_commodity(topo.tile_at(0, 0), topo.tile_at(1, 0), 100.0);
    const auto direct = xy_route(topo, c.src_tile, c.dst_tile);
    const auto detour = route_along(
        topo, {topo.tile_at(0, 0), topo.tile_at(0, 1), topo.tile_at(1, 1), topo.tile_at(1, 0)});
    EXPECT_GT(routed_energy_mw({c}, {detour}), routed_energy_mw({c}, {direct}));
}

TEST(Energy, RoutedEnergyRejectsSizeMismatch) {
    EXPECT_THROW(routed_energy_mw({make_commodity(0, 1, 10.0)}, {}),
                 std::invalid_argument);
}

TEST(Energy, SplitFlowEnergyEqualsRoutedForSinglePath) {
    const auto topo = Topology::mesh(3, 1, 1e9);
    const auto c = make_commodity(0, 2, 80.0);
    const auto route = xy_route(topo, 0, 2);
    std::vector<double> flow(topo.link_count(), 0.0);
    for (const LinkId l : route) flow[static_cast<std::size_t>(l)] = c.value;
    EXPECT_NEAR(split_flow_energy_mw(topo, {c}, {flow}),
                routed_energy_mw({c}, {route}), 1e-9);
}

TEST(Energy, SplitAcrossEqualLengthPathsCostsTheSame) {
    // 50/50 over the two 2-hop paths of a 2x2 mesh = one 2-hop path energy.
    const auto topo = Topology::mesh(2, 2, 1e9);
    const auto c = make_commodity(topo.tile_at(0, 0), topo.tile_at(1, 1), 100.0);
    std::vector<double> flow(topo.link_count(), 0.0);
    const auto upper = route_along(
        topo, {topo.tile_at(0, 0), topo.tile_at(1, 0), topo.tile_at(1, 1)});
    const auto lower = route_along(
        topo, {topo.tile_at(0, 0), topo.tile_at(0, 1), topo.tile_at(1, 1)});
    for (const LinkId l : upper) flow[static_cast<std::size_t>(l)] += 50.0;
    for (const LinkId l : lower) flow[static_cast<std::size_t>(l)] += 50.0;
    const auto direct = xy_route(topo, c.src_tile, c.dst_tile);
    EXPECT_NEAR(split_flow_energy_mw(topo, {c}, {flow}),
                routed_energy_mw({c}, {direct}), 1e-9);
}

TEST(Energy, SplitFlowEnergyRejectsBadShapes) {
    const auto topo = Topology::mesh(2, 2, 1e9);
    const auto c = make_commodity(0, 3, 10.0);
    EXPECT_THROW(split_flow_energy_mw(topo, {c}, {}), std::invalid_argument);
    EXPECT_THROW(split_flow_energy_mw(topo, {c}, {std::vector<double>(2, 0.0)}),
                 std::invalid_argument);
}

} // namespace
} // namespace nocmap::noc
