#include "noc/evaluation.hpp"

#include <gtest/gtest.h>

#include "noc/eval_context.hpp"

namespace nocmap::noc {
namespace {

struct Fixture {
    Topology topo = Topology::mesh(3, 3, 100.0);
    EvalContext ctx = EvalContext::borrow(topo);
    graph::CoreGraph graph;
    Mapping mapping{2, 9};
    std::vector<Commodity> commodities;

    Fixture() {
        graph.add_node("a");
        graph.add_node("b");
        graph.add_edge("a", "b", 60);
        mapping.place(0, topo.tile_at(0, 0));
        mapping.place(1, topo.tile_at(2, 0));
        commodities = build_commodities(graph, mapping);
    }
};

TEST(Evaluation, AccumulateLoadsOnRoute) {
    Fixture f;
    const auto route = xy_route(f.topo, f.commodities[0].src_tile, f.commodities[0].dst_tile);
    const auto loads = accumulate_loads(f.topo, f.commodities, {route});
    double total = 0.0;
    for (const double l : loads) total += l;
    EXPECT_DOUBLE_EQ(total, 60.0 * 2); // 2 hops
    EXPECT_DOUBLE_EQ(max_load(loads), 60.0);
}

TEST(Evaluation, AccumulateRejectsMismatchedSizes) {
    Fixture f;
    EXPECT_THROW(accumulate_loads(f.topo, f.commodities, {}), std::invalid_argument);
}

TEST(Evaluation, AccumulateRejectsWrongRoute) {
    Fixture f;
    // Route that does not connect the commodity endpoints.
    const auto wrong = xy_route(f.topo, f.topo.tile_at(0, 0), f.topo.tile_at(0, 1));
    EXPECT_THROW(accumulate_loads(f.topo, f.commodities, {wrong}), std::invalid_argument);
}

TEST(Evaluation, XyLoadsShareLinksForOverlappingFlows) {
    Topology topo = Topology::mesh(3, 1, 100.0);
    graph::CoreGraph g;
    g.add_node("a");
    g.add_node("b");
    g.add_node("c");
    g.add_edge("a", "c", 50);
    g.add_edge("b", "c", 30);
    Mapping m(3, 3);
    m.place(0, 0);
    m.place(1, 1);
    m.place(2, 2);
    const auto loads = xy_loads(topo, build_commodities(g, m));
    // Link 1->2 carries both flows.
    const auto link12 = topo.link_between(1, 2).value();
    EXPECT_DOUBLE_EQ(loads[static_cast<std::size_t>(link12)], 80.0);
    EXPECT_DOUBLE_EQ(max_load(loads), 80.0);
}

TEST(Evaluation, BandwidthSatisfaction) {
    Fixture f;
    LinkLoads loads(f.topo.link_count(), 0.0);
    loads[0] = 100.0;
    EXPECT_TRUE(satisfies_bandwidth(f.topo, loads)); // exactly at capacity
    loads[0] = 100.0 + 1e-9;
    EXPECT_TRUE(satisfies_bandwidth(f.topo, loads)); // within eps
    loads[0] = 101.0;
    EXPECT_FALSE(satisfies_bandwidth(f.topo, loads));
    EXPECT_DOUBLE_EQ(total_violation(f.topo, loads), 1.0);
    loads[1] = 150.0;
    EXPECT_DOUBLE_EQ(total_violation(f.topo, loads), 51.0);
}

TEST(Evaluation, SizeMismatchThrows) {
    Fixture f;
    LinkLoads wrong(3, 0.0);
    EXPECT_THROW(satisfies_bandwidth(f.topo, wrong), std::invalid_argument);
    EXPECT_THROW(total_violation(f.topo, wrong), std::invalid_argument);
}

TEST(Evaluation, CommunicationCostIsEquation7) {
    Fixture f;
    // 60 MB/s over distance 2.
    EXPECT_DOUBLE_EQ(communication_cost(f.ctx, f.commodities), 120.0);
}

TEST(Evaluation, TotalFlowEqualsCostForMinimalSinglePath) {
    Fixture f;
    const auto route = xy_route(f.topo, f.commodities[0].src_tile, f.commodities[0].dst_tile);
    const auto loads = accumulate_loads(f.topo, f.commodities, {route});
    EXPECT_DOUBLE_EQ(total_flow(loads), communication_cost(f.ctx, f.commodities));
}

TEST(Evaluation, AverageWeightedHops) {
    Fixture f;
    EXPECT_DOUBLE_EQ(average_weighted_hops(f.ctx, f.commodities), 2.0);
    EXPECT_DOUBLE_EQ(average_weighted_hops(f.ctx, {}), 0.0);
}

TEST(Evaluation, MinUniformBandwidthIsPeakLoad) {
    LinkLoads loads{10.0, 50.0, 20.0};
    EXPECT_DOUBLE_EQ(min_uniform_bandwidth(loads), 50.0);
}

} // namespace
} // namespace nocmap::noc
