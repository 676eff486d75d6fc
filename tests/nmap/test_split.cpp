#include "nmap/split.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "engine/sweep.hpp"
#include "nmap/initialize.hpp"
#include "nmap/single_path.hpp"
#include "noc/commodity.hpp"
#include "util/log.hpp"

namespace nocmap::nmap {
namespace {

bool exact_inner(const SplitOptions& options) {
    if (options.mcf_engine == McfEngine::Auto) return options.exact_inner_lp;
    return options.mcf_engine == McfEngine::Exact;
}

lp::McfOptions mcf_options(const SplitOptions& options, lp::McfObjective objective, bool exact) {
    lp::McfOptions mcf;
    mcf.objective = objective;
    mcf.quadrant_restricted = options.mode == SplitMode::MinPaths;
    mcf.use_exact_lp = exact;
    mcf.approx_iterations = options.approx_iterations;
    return mcf;
}

/// Reference oracle: the unpruned two-phase split loop. Every candidate
/// gets its LP solve (MCF1 slack until the bandwidth constraints hold,
/// MCF2 flow after), scored exactly like map_with_splitting's policy.
/// Cold one-shot engines only.
class ReferenceSplitPolicy final : public engine::SweepPolicy {
public:
    ReferenceSplitPolicy(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                         const SplitOptions& options)
        : graph_(graph), ctx_(ctx),
          slack_(mcf_options(options, lp::McfObjective::MinSlack, exact_inner(options))),
          flow_(mcf_options(options, lp::McfObjective::MinFlow, exact_inner(options))) {}

    engine::Score evaluate(const noc::Mapping& mapping) override {
        count_evaluation();
        return score(mapping);
    }

    engine::Score evaluate_swap(const noc::Mapping& base, const engine::Score&,
                                const engine::Score&, noc::TileId a, noc::TileId b) override {
        noc::Mapping candidate = base;
        candidate.swap_tiles(a, b);
        if (!bw_satisfied_) count_evaluation();
        return score(candidate);
    }

private:
    engine::Score score(const noc::Mapping& mapping) {
        const auto commodities = noc::build_commodities(graph_, mapping);
        if (!bw_satisfied_) {
            const lp::McfResult slack = lp::solve_mcf(ctx_, commodities, slack_);
            if (!slack.feasible) return engine::Score{engine::kMaxValue, slack.objective, false};
            bw_satisfied_ = true;
        }
        count_evaluation();
        const lp::McfResult cost = lp::solve_mcf(ctx_, commodities, flow_);
        if (!cost.feasible)
            return engine::Score{engine::kMaxValue, -std::numeric_limits<double>::infinity(),
                                 true};
        return engine::Score{cost.objective, 0.0, true};
    }

    const graph::CoreGraph& graph_;
    const noc::EvalContext& ctx_;
    lp::McfOptions slack_;
    lp::McfOptions flow_;
    bool bw_satisfied_ = false;
};

struct ReferenceRun {
    engine::MappingResult result;
    std::size_t sweep_evaluations = 0;
    bool slack_feasible = false; ///< final polish verdicts, both always solved
    bool flow_feasible = false;
};

/// The reference sweep plus the MinSlack-then-MinFlow polish: MinSlack
/// decides feasibility, MinFlow supplies cost, loads and flows.
ReferenceRun reference_split(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                             const SplitOptions& options) {
    ReferenceSplitPolicy policy(graph, ctx, options);
    engine::SweepOptions sweep;
    sweep.max_sweeps = options.max_sweeps;
    const engine::SweepOutcome outcome =
        engine::SwapSweepDriver(sweep).sweep(initial_mapping(graph, ctx.topology()), policy);

    ReferenceRun run;
    run.sweep_evaluations = policy.evaluations();
    const bool exact = options.exact_final_polish || exact_inner(options);
    const auto commodities = noc::build_commodities(graph, outcome.best);
    const lp::McfResult slack =
        lp::solve_mcf(ctx, commodities, mcf_options(options, lp::McfObjective::MinSlack, exact));
    const lp::McfResult cost =
        lp::solve_mcf(ctx, commodities, mcf_options(options, lp::McfObjective::MinFlow, exact));
    run.slack_feasible = slack.feasible;
    run.flow_feasible = cost.feasible;

    engine::MappingResult& r = run.result;
    r.mapping = outcome.best;
    r.evaluations = run.sweep_evaluations + (slack.feasible ? 2 : 1);
    r.feasible = slack.feasible && cost.feasible;
    r.comm_cost = r.feasible ? cost.objective : engine::kMaxValue;
    r.loads = r.feasible ? cost.loads : slack.loads;
    r.flows = r.feasible ? cost.flows : slack.flows;
    return run;
}

/// Reads `<key> N` from the nmap.split debug summary line in `log`.
std::size_t split_log_count(const std::string& log, const std::string& key) {
    const std::size_t line = log.find("nmap.split: ");
    if (line == std::string::npos) return 0;
    const std::size_t at = log.find(" " + key + " ", line);
    if (at == std::string::npos) return 0;
    return std::stoul(log.substr(at + key.size() + 2));
}

struct SplitCase {
    std::string app;
    SplitMode mode;
    double bandwidth;
    McfEngine engine = McfEngine::Approx;
};

/// Maps `c` with map_with_splitting and with the reference, asserting
/// bit-identical results, the MinFlow ⇒ MinSlack polish implication and
/// the polish's evaluation accounting. Returns the pruned candidate count.
std::size_t expect_matches_reference(const SplitCase& c) {
    SCOPED_TRACE(c.app + (c.mode == SplitMode::MinPaths ? " tm @ " : " split @ ") +
                 std::to_string(c.bandwidth) +
                 (c.engine == McfEngine::Exact ? " exact" : " approx"));
    const graph::CoreGraph g = apps::load_graph_or_application(c.app);
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), c.bandwidth));
    SplitOptions opt;
    opt.mode = c.mode;
    opt.mcf_engine = c.engine;

    const util::LogLevel level = util::log_level();
    util::set_log_level(util::LogLevel::Debug);
    testing::internal::CaptureStderr();
    const engine::MappingResult got = map_with_splitting(g, ctx, opt);
    const std::string log = testing::internal::GetCapturedStderr();
    util::set_log_level(level);

    const ReferenceRun ref = reference_split(g, ctx, opt);
    EXPECT_EQ(got.mapping, ref.result.mapping);
    EXPECT_EQ(got.comm_cost, ref.result.comm_cost);
    EXPECT_EQ(got.feasible, ref.result.feasible);
    EXPECT_TRUE(got.loads == ref.result.loads);
    EXPECT_TRUE(got.flows == ref.result.flows);

    // A feasible MCF2 flow proves MCF1's slack is zero and vice versa.
    EXPECT_EQ(ref.slack_feasible, ref.flow_feasible);
    // The sweep's count is unchanged by pruning; the polish adds MinFlow,
    // plus MinSlack only when MinFlow is infeasible.
    const std::size_t polish = got.feasible ? 1 : 2;
    EXPECT_EQ(got.evaluations, ref.sweep_evaluations + polish);
    EXPECT_EQ(split_log_count(log, "solves"), polish);
    return split_log_count(log, "pruned");
}

/// The split-tight bandwidths of the six paper applications.
std::vector<SplitCase> paper_app_cases() {
    return {{"mpeg4", SplitMode::AllPaths, 400}, {"vopd", SplitMode::AllPaths, 350},
            {"pip", SplitMode::AllPaths, 100},   {"mwa", SplitMode::AllPaths, 100},
            {"mwag", SplitMode::AllPaths, 150},  {"dsd", SplitMode::AllPaths, 100},
            {"mpeg4", SplitMode::MinPaths, 550}, {"vopd", SplitMode::MinPaths, 400},
            {"pip", SplitMode::MinPaths, 100},   {"mwa", SplitMode::MinPaths, 150},
            {"mwag", SplitMode::MinPaths, 150},  {"dsd", SplitMode::MinPaths, 150}};
}

TEST(Split, FeasibleWhereSinglePathIsNot) {
    // One heavy flow larger than any single link: splitting is required.
    graph::CoreGraph g;
    g.add_node("a");
    g.add_node("b");
    g.add_edge("a", "b", 150.0);
    auto topo = noc::Topology::mesh(2, 2, 100.0);
    const auto ctx = noc::EvalContext::borrow(topo);

    const auto single = map_with_single_path(g, ctx);
    EXPECT_FALSE(single.feasible);

    SplitOptions opt;
    opt.mode = SplitMode::AllPaths;
    const auto split = map_with_splitting(g, ctx, opt);
    EXPECT_TRUE(split.feasible);
    EXPECT_LT(split.comm_cost, engine::kMaxValue);
    EXPECT_TRUE(noc::satisfies_bandwidth(topo, split.loads, 1e-4));
}

TEST(Split, FlowsConserveAndMatchLoads) {
    const auto g = apps::make_application("pip");
    const auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    SplitOptions opt;
    const auto result = map_with_splitting(g, ctx, opt);
    ASSERT_TRUE(result.feasible);
    const auto d = noc::build_commodities(g, result.mapping);
    EXPECT_NEAR(lp::max_conservation_violation(topo, d, result.flows), 0.0, 1e-5);
    for (std::size_t l = 0; l < topo.link_count(); ++l) {
        double sum = 0.0;
        for (const auto& flow : result.flows) sum += flow[l];
        EXPECT_NEAR(sum, result.loads[l], 1e-6);
    }
}

TEST(Split, CostLowerBoundedByMappingCost) {
    // MCF2 total flow >= Σ value * distance (each unit travels >= distance).
    const auto g = apps::make_application("pip");
    const auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto result = map_with_splitting(g, ctx);
    ASSERT_TRUE(result.feasible);
    const auto d = noc::build_commodities(g, result.mapping);
    EXPECT_GE(result.comm_cost, noc::communication_cost(ctx, d) - 1e-4);
    // With ample capacity, shortest paths are optimal: equality.
    EXPECT_NEAR(result.comm_cost, noc::communication_cost(ctx, d), 1e-2);
}

TEST(Split, MinPathsModeStaysInQuadrants) {
    const auto g = apps::make_application("pip");
    const auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    SplitOptions opt;
    opt.mode = SplitMode::MinPaths;
    const auto result = map_with_splitting(g, ctx, opt);
    ASSERT_TRUE(result.feasible);
    const auto d = noc::build_commodities(g, result.mapping);
    for (std::size_t k = 0; k < d.size(); ++k)
        for (std::size_t l = 0; l < topo.link_count(); ++l) {
            if (result.flows[k][l] <= 1e-6) continue;
            const noc::Link& link = topo.link(static_cast<noc::LinkId>(l));
            EXPECT_TRUE(topo.in_quadrant(link.src, d[k].src_tile, d[k].dst_tile));
            EXPECT_TRUE(topo.in_quadrant(link.dst, d[k].src_tile, d[k].dst_tile));
        }
    // Quadrant flows are minimal: total flow equals the Eq.7 cost exactly.
    EXPECT_NEAR(result.comm_cost, noc::communication_cost(ctx, d), 1e-2);
}

TEST(Split, SplitNeedsNoMoreBandwidthThanSinglePath) {
    // For the same mapping, the min-max split load never exceeds the
    // single-path peak load.
    const auto g = apps::make_application("dsp");
    const auto topo = noc::Topology::mesh(3, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto single = map_with_single_path(g, ctx);
    const auto d = noc::build_commodities(g, single.mapping);

    lp::McfOptions mcf;
    mcf.objective = lp::McfObjective::MinMaxLoad;
    const auto split = lp::solve_mcf(ctx, d, mcf);
    ASSERT_TRUE(split.solved);
    EXPECT_LE(split.objective, noc::max_load(single.loads) + 1e-6);
}

TEST(Split, ExactInnerLpOnTinyInstance) {
    graph::CoreGraph g;
    g.add_node("a");
    g.add_node("b");
    g.add_node("c");
    g.add_edge("a", "b", 120.0);
    g.add_edge("b", "c", 40.0);
    const auto topo = noc::Topology::mesh(2, 2, 100.0);
    const auto ctx = noc::EvalContext::borrow(topo);
    SplitOptions opt;
    opt.exact_inner_lp = true;
    const auto result = map_with_splitting(g, ctx, opt);
    EXPECT_TRUE(result.feasible);
    EXPECT_TRUE(noc::satisfies_bandwidth(topo, result.loads, 1e-4));
}

TEST(Split, Deterministic) {
    const auto g = apps::make_application("dsp");
    const auto topo = noc::Topology::mesh(3, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto a = map_with_splitting(g, ctx);
    const auto b = map_with_splitting(g, ctx);
    EXPECT_EQ(a.mapping, b.mapping);
    EXPECT_NEAR(a.comm_cost, b.comm_cost, 1e-9);
}

TEST(Split, BandwidthModeNeverWorseThanRemappingCostOptimal) {
    // The Figure-4 variant searches mappings for minimum min-max load; it
    // must never need more bandwidth than its own starting point
    // (initialize()) re-routed with splitting.
    const auto g = apps::make_application("pip");
    const auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    SplitOptions opt;
    opt.optimize_bandwidth = true;
    const auto optimized = map_with_splitting(g, ctx, opt);
    ASSERT_TRUE(optimized.feasible);

    const auto init = initial_mapping(g, topo);
    lp::McfOptions minmax;
    minmax.objective = lp::McfObjective::MinMaxLoad;
    const auto rerouted = lp::solve_mcf(ctx, noc::build_commodities(g, init), minmax);
    EXPECT_LE(noc::max_load(optimized.loads), rerouted.objective + 1e-6);
}

TEST(Split, BandwidthModeQuadrantFlowsStayMinimal) {
    const auto g = apps::make_application("dsp");
    const auto topo = noc::Topology::mesh(3, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    SplitOptions opt;
    opt.optimize_bandwidth = true;
    opt.mode = SplitMode::MinPaths;
    const auto result = map_with_splitting(g, ctx, opt);
    ASSERT_TRUE(result.feasible);
    const auto d = noc::build_commodities(g, result.mapping);
    for (std::size_t k = 0; k < d.size(); ++k)
        for (std::size_t l = 0; l < topo.link_count(); ++l) {
            if (result.flows[k][l] <= 1e-6) continue;
            const noc::Link& link = topo.link(static_cast<noc::LinkId>(l));
            EXPECT_TRUE(topo.in_quadrant(link.src, d[k].src_tile, d[k].dst_tile));
            EXPECT_TRUE(topo.in_quadrant(link.dst, d[k].src_tile, d[k].dst_tile));
        }
}

TEST(Split, BandwidthModeReportsMcf2Cost) {
    const auto g = apps::make_application("dsp");
    const auto topo = noc::Topology::mesh(3, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    SplitOptions opt;
    opt.optimize_bandwidth = true;
    const auto result = map_with_splitting(g, ctx, opt);
    ASSERT_TRUE(result.feasible);
    // comm_cost is the MCF2 flow of the final mapping: bounded below by the
    // Eq.7 mapping cost.
    const auto d = noc::build_commodities(g, result.mapping);
    EXPECT_GE(result.comm_cost, noc::communication_cost(ctx, d) - 1e-6);
}

TEST(Split, WarmStartMatchesColdVerdictAndCost) {
    // Warm inner engines may pick different cost-equal flows mid-sweep, but
    // feasibility and the final exact polish's cost must agree with the cold
    // run on these ample-capacity instances (shortest-path optimum).
    const auto g = apps::make_application("pip");
    const auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    for (const auto engine : {McfEngine::Approx, McfEngine::Exact}) {
        SplitOptions cold_opt;
        cold_opt.mcf_engine = engine;
        SplitOptions warm_opt = cold_opt;
        warm_opt.warm_start = true;
        const auto cold = map_with_splitting(g, ctx, cold_opt);
        const auto warm = map_with_splitting(g, ctx, warm_opt);
        EXPECT_EQ(warm.feasible, cold.feasible);
        ASSERT_TRUE(warm.feasible);
        EXPECT_NEAR(warm.comm_cost, cold.comm_cost,
                    1e-6 * std::max(1.0, cold.comm_cost));
    }
}

TEST(Split, WarmStartExactOnConstrainedInstance) {
    // The 2x2/100-capacity instance from FeasibleWhereSinglePathIsNot, with
    // the warm exact engine driving every swap evaluation.
    graph::CoreGraph g;
    g.add_node("a");
    g.add_node("b");
    g.add_edge("a", "b", 150.0);
    const auto topo = noc::Topology::mesh(2, 2, 100.0);
    const auto ctx = noc::EvalContext::borrow(topo);
    SplitOptions opt;
    opt.mcf_engine = McfEngine::Exact;
    opt.warm_start = true;
    const auto result = map_with_splitting(g, ctx, opt);
    EXPECT_TRUE(result.feasible);
    EXPECT_TRUE(noc::satisfies_bandwidth(topo, result.loads, 1e-4));
}

TEST(Split, McfEngineOverridesLegacyKnob) {
    // mcf_engine=Approx must win over exact_inner_lp=true and vice versa;
    // both runs stay feasible on an ample mesh and agree after polish.
    const auto g = apps::make_application("dsp");
    const auto topo = noc::Topology::mesh(3, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    SplitOptions a;
    a.exact_inner_lp = true;
    a.mcf_engine = McfEngine::Approx;
    SplitOptions b;
    b.exact_inner_lp = false;
    b.mcf_engine = McfEngine::Exact;
    const auto ra = map_with_splitting(g, ctx, a);
    const auto rb = map_with_splitting(g, ctx, b);
    EXPECT_TRUE(ra.feasible);
    EXPECT_TRUE(rb.feasible);
    // The Approx-engine run equals the pure-default (approx) run.
    const auto default_run = map_with_splitting(g, ctx);
    EXPECT_EQ(ra.mapping, default_run.mapping);
    EXPECT_EQ(ra.comm_cost, default_run.comm_cost);
}

TEST(Split, ReportsInfeasibleWhenTrulyImpossible) {
    // Demand exceeding the source's total outgoing capacity can never fit.
    graph::CoreGraph g;
    g.add_node("a");
    g.add_node("b");
    g.add_edge("a", "b", 500.0);
    const auto topo = noc::Topology::mesh(2, 2, 100.0); // corner cut = 200
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto result = map_with_splitting(g, ctx);
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.comm_cost, engine::kMaxValue);

    // MinFlow is infeasible, so the polish falls through to MinSlack and
    // reports its least-violating loads and flows.
    const SplitOptions defaults;
    const auto slack = lp::solve_mcf(ctx, noc::build_commodities(g, result.mapping),
                                     mcf_options(defaults, lp::McfObjective::MinSlack, true));
    EXPECT_TRUE(result.loads == slack.loads);
    EXPECT_TRUE(result.flows == slack.flows);
    EXPECT_EQ(result.evaluations, reference_split(g, ctx, defaults).sweep_evaluations + 2);
}

TEST(SplitPrune, MatchesUnprunedReferenceOnPaperApps) {
    std::size_t tm_pruned = 0;
    for (const SplitCase& c : paper_app_cases()) {
        const std::size_t pruned = expect_matches_reference(c);
        if (c.mode == SplitMode::MinPaths) tm_pruned += pruned;
    }
    // In MinPaths mode the Eq. 7 bound equals the MCF2 objective, so the
    // cost phase must have skipped solves somewhere.
    EXPECT_GT(tm_pruned, 0u);
}

TEST(SplitPrune, MatchesUnprunedReferenceOnSynthCorpus) {
    const std::vector<std::pair<std::string, std::vector<double>>> corpus = {
        {"synth:nodes=12,edges=18,seed=1", {200, 300, 400}},
        {"synth:nodes=16,edges=26,seed=2", {300, 400, 600}},
        {"synth:nodes=20,edges=32,seed=3", {500, 600, 800}},
    };
    for (const auto& [spec, bandwidths] : corpus)
        for (const double bw : bandwidths)
            for (const SplitMode mode : {SplitMode::AllPaths, SplitMode::MinPaths})
                expect_matches_reference({spec, mode, bw});
}

TEST(SplitPrune, MatchesUnprunedReferenceWithExactEngine) {
    const std::vector<SplitCase> cases = {
        {"pip", SplitMode::AllPaths, 100, McfEngine::Exact},
        {"pip", SplitMode::MinPaths, 100, McfEngine::Exact},
        {"mwa", SplitMode::AllPaths, 100, McfEngine::Exact},
        {"mwa", SplitMode::MinPaths, 150, McfEngine::Exact},
        {"synth:nodes=12,edges=18,seed=1", SplitMode::AllPaths, 300, McfEngine::Exact},
        {"synth:nodes=12,edges=18,seed=1", SplitMode::MinPaths, 300, McfEngine::Exact},
    };
    for (const SplitCase& c : cases) expect_matches_reference(c);
}

} // namespace
} // namespace nocmap::nmap
