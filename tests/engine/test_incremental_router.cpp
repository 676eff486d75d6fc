#include "engine/incremental_router.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "apps/registry.hpp"
#include "engine/incremental_cost.hpp"
#include "engine/sweep.hpp"
#include "graph/random_graph.hpp"
#include "../nmap/naive_single_path.hpp"
#include "nmap/initialize.hpp"
#include "nmap/shortest_path_router.hpp"
#include "nmap/single_path.hpp"
#include "noc/evaluation.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace nocmap::engine {
namespace {

graph::CoreGraph random_graph(std::size_t cores, std::uint64_t seed) {
    graph::RandomGraphConfig cfg;
    cfg.core_count = cores;
    cfg.seed = seed;
    return generate_random_core_graph(cfg);
}

/// A valid random swap: at least one tile occupied (the sweep never
/// proposes empty-empty swaps, and the router treats them as mapping-only).
std::pair<noc::TileId, noc::TileId> random_swap(util::Rng& rng, const noc::Mapping& m) {
    while (true) {
        const auto a = static_cast<noc::TileId>(rng.next_below(m.tile_count()));
        const auto b = static_cast<noc::TileId>(rng.next_below(m.tile_count()));
        if (a == b) continue;
        if (!m.is_occupied(a) && !m.is_occupied(b)) continue;
        return {a, b};
    }
}

void expect_matches_full_reroute(const IncrementalRouter& router,
                                 const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                                 const char* what) {
    const nmap::SinglePathRouting full = nmap::evaluate_mapping(graph, ctx, router.mapping());
    EXPECT_EQ(router.loads(), full.loads) << what;
    EXPECT_EQ(router.routes(), full.routes) << what;
    EXPECT_EQ(router.feasible(), full.feasible) << what;
    EXPECT_EQ(router.max_load(), full.max_load) << what;
    EXPECT_EQ(router.cost(), full.cost) << what;
}

/// The tentpole property: across random graphs and random swap sequences
/// (with rollbacks interleaved and the audit resync enabled), Exact mode's
/// ledger state — loads, routes, feasibility, max_load, cost — stays
/// bit-identical to a from-scratch evaluate_mapping() at every step, and
/// every pending evaluation predicts the full re-route of the candidate
/// bit-identically too.
TEST(IncrementalRouter, ExactIsBitIdenticalToFullRerouteUnderRandomSwaps) {
    struct Case {
        std::size_t cores;
        std::uint64_t seed;
        double capacity_scale; ///< capacity = initial max load x this
        noc::Topology fabric;
    };
    // A directed fabric: a one-way ring with forward chords, so hop
    // distances are asymmetric and quadrants differ from any grid's.
    std::vector<noc::Link> chords;
    for (noc::TileId t = 0; t < 9; ++t) {
        chords.push_back({t, static_cast<noc::TileId>((t + 1) % 9), 1e9});
        chords.push_back({t, static_cast<noc::TileId>((t + 3) % 9), 1e9});
    }
    // Full and sparse fabrics, loose and tight capacities (tight ones keep
    // the search crossing the feasibility boundary), and every fabric kind:
    // which commodities have a single minimal path (and so never re-route
    // unless incident) depends on the fabric.
    const Case cases[] = {
        {9, 3, 10.0, noc::Topology::smallest_mesh_for(9, 1e9)},
        {12, 7, 1.05, noc::Topology::smallest_mesh_for(12, 1e9)},
        {16, 11, 1.3, noc::Topology::smallest_mesh_for(16, 1e9)},
        {25, 5, 0.95, noc::Topology::smallest_mesh_for(25, 1e9)},
        {15, 13, 1.05, noc::Topology::torus(4, 4, 1e9)},
        {10, 17, 1.1, noc::Topology::ring(10, 1e9)},
        {16, 19, 1.05, noc::Topology::hypercube(4, 1e9)},
        {9, 23, 1.1, noc::Topology::custom(9, chords)},
    };
    for (const Case& c : cases) {
        const auto g = random_graph(c.cores, c.seed);
        auto topo = c.fabric;
        const auto ctx = noc::EvalContext::borrow(topo);
        const auto initial = nmap::initial_mapping(g, topo);
        topo.set_uniform_capacity(
            noc::max_load(nmap::evaluate_mapping(g, ctx, initial).loads) *
            c.capacity_scale);

        RerouteOptions options;
        options.mode = RerouteMode::Exact;
        options.resync_cadence = 7; // frequent audits
        options.audit = true;
        IncrementalRouter router(g, ctx, initial, options);
        expect_matches_full_reroute(router, g, ctx, "after bind");

        util::Rng rng(c.seed * 977 + 1);
        for (int step = 0; step < 60; ++step) {
            const auto [a, b] = random_swap(rng, router.mapping());
            const RerouteEval eval = router.reroute_swap(a, b);
            // The pending score is the full re-route of the candidate.
            noc::Mapping candidate = router.mapping();
            candidate.swap_tiles(a, b);
            const nmap::SinglePathRouting full = nmap::evaluate_mapping(g, ctx, candidate);
            EXPECT_EQ(eval.feasible, full.feasible) << "step " << step;
            EXPECT_EQ(eval.max_load, full.max_load) << "step " << step;
            EXPECT_EQ(eval.cost, full.cost) << "step " << step;
            if (step % 3 == 2) {
                router.rollback(); // rollbacks must leave the state untouched
            } else {
                ASSERT_NO_THROW(router.commit()) << "audit diverged at step " << step;
            }
            expect_matches_full_reroute(router, g, ctx, "after step");
        }
        EXPECT_GT(router.commit_count(), 30u);
    }
}

/// The rejection bound's contract: across random graphs at tight uniform
/// capacity and random swap chains with commits, every bounded verdict is
/// either bit-identical to the unbounded one, or an early exit whose
/// unbounded twin is infeasible with max_load >= reject_at. Rolling an
/// early exit back leaves no trace (the next unbounded evaluation equals a
/// freshly built router's), and committing one throws.
TEST(IncrementalRouter, BoundedReplayIsExactOrAProvableReject) {
    struct Case {
        std::size_t cores;
        std::uint64_t seed;
        double capacity_scale; ///< capacity = initial max load x this
    };
    const Case cases[] = {{12, 7, 0.9}, {16, 11, 1.0}, {25, 5, 0.95}, {30, 13, 1.05}};
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::size_t exits_unconditional = 0; // reject_at = -inf
    std::size_t exits_at_committed = 0;  // reject_at = committed max_load
    for (const Case& c : cases) {
        const auto g = random_graph(c.cores, c.seed);
        auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
        const auto ctx = noc::EvalContext::borrow(topo);
        const auto initial = nmap::initial_mapping(g, topo);
        topo.set_uniform_capacity(
            noc::max_load(nmap::evaluate_mapping(g, ctx, initial).loads) *
            c.capacity_scale);

        RerouteOptions options;
        options.resync_cadence = 5;
        options.audit = true;
        IncrementalRouter router(g, ctx, initial, options);
        util::Rng rng(c.seed * 131 + 7);
        for (int step = 0; step < 40; ++step) {
            const auto [a, b] = random_swap(rng, router.mapping());
            const RerouteEval twin = router.reroute_swap(a, b);
            router.rollback();
            for (const double reject_at : {-kInf, router.max_load(), kInf}) {
                const std::size_t exits_before = router.early_exit_count();
                const RerouteEval got = router.reroute_swap(a, b, reject_at);
                if (router.early_exit_count() != exits_before) {
                    EXPECT_NE(reject_at, kInf) << "an unbounded replay never stops early";
                    EXPECT_FALSE(got.feasible);
                    EXPECT_EQ(got.cost, kInf);
                    EXPECT_EQ(got.max_load, kInf);
                    EXPECT_FALSE(twin.feasible) << "step " << step;
                    EXPECT_GE(twin.max_load, reject_at) << "step " << step;
                    EXPECT_THROW(router.commit(), std::logic_error);
                    ++(reject_at == -kInf ? exits_unconditional : exits_at_committed);
                } else {
                    EXPECT_EQ(got.feasible, twin.feasible) << "step " << step;
                    EXPECT_EQ(got.max_load, twin.max_load) << "step " << step;
                    EXPECT_EQ(got.cost, twin.cost) << "step " << step;
                }
                router.rollback();

                // The next unbounded evaluation sees no residue of the
                // (possibly partial) bounded one.
                const auto [c1, c2] = random_swap(rng, router.mapping());
                IncrementalRouter fresh(g, ctx, router.mapping(), options);
                const RerouteEval next = router.reroute_swap(c1, c2);
                const RerouteEval want = fresh.reroute_swap(c1, c2);
                EXPECT_EQ(next.feasible, want.feasible) << "step " << step;
                EXPECT_EQ(next.max_load, want.max_load) << "step " << step;
                EXPECT_EQ(next.cost, want.cost) << "step " << step;
                router.rollback();
            }
            if (step % 2 == 0) {
                router.reroute_swap(a, b);
                ASSERT_NO_THROW(router.commit()) << "audit diverged at step " << step;
            }
        }
        expect_matches_full_reroute(router, g, ctx, "after bounded chain");
    }
    // Tight capacities: both bounded flavours must actually stop replays.
    EXPECT_GT(exits_unconditional, 0u);
    EXPECT_GT(exits_at_committed, 0u);
}

TEST(IncrementalRouter, RebaseTakesTheSwapShortcutAndStaysExact) {
    const auto g = random_graph(12, 19);
    const auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto initial = nmap::initial_mapping(g, topo);
    IncrementalRouter router(g, ctx, initial);
    const std::size_t full_before = router.full_reroute_count();

    // One swap away: must go through the O(deg) path, no full re-route.
    noc::Mapping swapped = initial;
    swapped.swap_tiles(0, 5);
    router.rebase(swapped);
    EXPECT_EQ(router.full_reroute_count(), full_before);
    EXPECT_EQ(router.mapping(), swapped);
    expect_matches_full_reroute(router, g, ctx, "rebase via swap");

    // Far away (three tiles rotated): needs the from-scratch path.
    noc::Mapping rotated = swapped;
    rotated.swap_tiles(1, 2);
    rotated.swap_tiles(2, 3);
    router.rebase(rotated);
    EXPECT_GT(router.full_reroute_count(), full_before);
    EXPECT_EQ(router.mapping(), rotated);
    expect_matches_full_reroute(router, g, ctx, "rebase via rebind");
}

TEST(IncrementalRouter, RejectsMisuse) {
    const auto g = random_graph(8, 2);
    const auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    IncrementalRouter router(g, ctx, nmap::initial_mapping(g, topo));
    EXPECT_THROW(router.commit(), std::logic_error);
    router.reroute_swap(0, 1);
    EXPECT_THROW(router.reroute_swap(1, 2), std::logic_error);
    router.rollback();
    EXPECT_THROW(router.commit(), std::logic_error);
}

/// Fast mode's contract: its loads always describe its own routes, its
/// feasibility verdict matches its own loads, and — thanks to the full
/// re-route confirmation — it never calls a candidate infeasible that the
/// sequential router would accept.
TEST(IncrementalRouter, FastModeInvariants) {
    const auto g = random_graph(16, 23);
    auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto initial = nmap::initial_mapping(g, topo);
    topo.set_uniform_capacity(
        noc::max_load(nmap::evaluate_mapping(g, ctx, initial).loads) * 1.02);

    RerouteOptions options;
    options.mode = RerouteMode::Fast;
    IncrementalRouter router(g, ctx, initial, options);
    util::Rng rng(99);
    for (int step = 0; step < 80; ++step) {
        const auto [a, b] = random_swap(rng, router.mapping());
        const RerouteEval eval = router.reroute_swap(a, b);
        if (!eval.feasible) {
            noc::Mapping candidate = router.mapping();
            candidate.swap_tiles(a, b);
            EXPECT_FALSE(nmap::evaluate_mapping(g, ctx, candidate).feasible)
                << "fast mode reported infeasible where the full re-route is feasible";
        }
        if (step % 2 == 0)
            router.commit();
        else
            router.rollback();

        // Loads are exactly the accumulation of the router's own routes.
        const noc::LinkLoads recounted =
            noc::accumulate_loads(topo, router.commodities(), router.routes());
        ASSERT_EQ(recounted.size(), router.loads().size());
        for (std::size_t l = 0; l < recounted.size(); ++l)
            EXPECT_NEAR(router.loads()[l], recounted[l], 1e-9) << "link " << l;
        EXPECT_EQ(router.feasible(), noc::satisfies_bandwidth(topo, router.loads()));
    }
}

nmap::SinglePathOptions with_threads(std::size_t threads = 1, std::size_t sweeps = 1) {
    nmap::SinglePathOptions opt;
    opt.threads = threads;
    opt.max_sweeps = sweeps;
    return opt;
}

/// Sweep-level acceptance under the router's audit resync: nmap returns
/// exactly the Naive (route-everything) oracle's result, serial and
/// parallel, across resync cadences.
TEST(IncrementalRouter, LedgerExactSweepMatchesNaiveSweep) {
    for (const char* app : {"vopd", "mpeg4", "pip", "dsd"}) {
        const auto g = apps::make_application(app);
        const auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
        const auto ctx = noc::EvalContext::borrow(topo);
        const auto naive = testing_oracle::naive_single_path(g, ctx);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            auto opt = with_threads(threads);
            opt.audit = true;
            opt.resync_cadence = 5;
            const auto ledger = nmap::map_with_single_path(g, ctx, opt);
            EXPECT_EQ(naive.mapping, ledger.mapping) << app << " threads=" << threads;
            EXPECT_DOUBLE_EQ(naive.comm_cost, ledger.comm_cost) << app;
            EXPECT_EQ(naive.loads, ledger.loads) << app;
        }
        // Cadence 0 (never resync) must change nothing either.
        auto no_resync = with_threads();
        no_resync.resync_cadence = 0;
        EXPECT_EQ(naive.mapping, nmap::map_with_single_path(g, ctx, no_resync).mapping)
            << app;
    }
}

TEST(IncrementalRouter, LedgerExactSweepMatchesNaiveUnderTightCapacities) {
    const auto g = apps::make_application("pip");
    auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto unconstrained = nmap::map_with_single_path(g, ctx);
    topo.set_uniform_capacity(noc::max_load(unconstrained.loads) * 1.05);
    const auto naive = testing_oracle::naive_single_path(g, ctx);
    auto opt = with_threads();
    opt.audit = true;
    opt.resync_cadence = 3;
    const auto ledger = nmap::map_with_single_path(g, ctx, opt);
    EXPECT_EQ(naive.mapping, ledger.mapping);
    EXPECT_EQ(naive.feasible, ledger.feasible);
    EXPECT_EQ(naive.loads, ledger.loads);
}

/// nmap's scoring path spelled out on the public engine API: the
/// Eq.7 delta prune, then the replay bounded by the incumbent's
/// reject_bound(). Serial, so it scores exactly what a threads=1 sweep
/// does, and it splits the early exits by incumbent phase.
class BoundedLedgerPolicy final : public SweepPolicy {
public:
    BoundedLedgerPolicy(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                        RerouteOptions options)
        : graph_(graph), ctx_(ctx), options_(options) {}

    Score evaluate(const noc::Mapping& mapping) override {
        if (!router_)
            router_.emplace(graph_, ctx_, mapping, options_);
        else
            router_->rebase(mapping);
        const RerouteEval& eval = router_->committed_eval();
        return Score{eval.cost, eval.max_load, eval.feasible};
    }

    Score evaluate_swap(const noc::Mapping&, const Score& base_score, const Score& incumbent,
                        noc::TileId a, noc::TileId b) override {
        if (base_score.feasible && incumbent.feasible) {
            const double guard = 1e-9 * (1.0 + std::abs(base_score.primary));
            if (base_score.primary + evaluator_->swap_delta(a, b) >= incumbent.primary + guard)
                return Score::rejected();
        }
        const std::size_t before = router_->early_exit_count();
        const RerouteEval eval = router_->reroute_swap(a, b, incumbent.reject_bound());
        router_->rollback();
        if (router_->early_exit_count() != before)
            ++(incumbent.feasible ? exits_feasible : exits_infeasible);
        return Score{eval.cost, eval.max_load, eval.feasible};
    }

    void on_rebase(const noc::Mapping& placed, const Score&) override {
        if (!evaluator_)
            evaluator_.emplace(graph_, ctx_, placed);
        else
            evaluator_->rebase(placed);
        router_->rebase(placed);
    }

    std::size_t exits_infeasible = 0; ///< early exits against an infeasible incumbent
    std::size_t exits_feasible = 0;   ///< early exits against a feasible incumbent

private:
    const graph::CoreGraph& graph_;
    const noc::EvalContext& ctx_;
    RerouteOptions options_;
    std::optional<IncrementalEvaluator> evaluator_;
    std::optional<IncrementalRouter> router_;
};

/// The "early exits N" figure of nmap's debug summary line for one run.
std::size_t logged_early_exits(const graph::CoreGraph& g, const noc::EvalContext& ctx,
                               const nmap::SinglePathOptions& opt,
                               MappingResult& result) {
    const util::LogLevel saved = util::log_level();
    util::set_log_level(util::LogLevel::Debug);
    testing::internal::CaptureStderr();
    result = nmap::map_with_single_path(g, ctx, opt);
    const std::string log = testing::internal::GetCapturedStderr();
    util::set_log_level(saved);
    const std::string key = "early exits ";
    const std::size_t at = log.find(key);
    if (at == std::string::npos) {
        ADD_FAILURE() << "no early-exit count in the nmap debug line: " << log;
        return 0;
    }
    return std::stoul(log.substr(at + key.size()));
}

/// The bound's both branches under the real sweep: from an initial mapping
/// that is infeasible (the incumbent's peak load bounds the replay) into
/// the feasible phase (any infeasible candidate stops at its first
/// overload), nmap still returns the Naive oracle's mapping, loads and
/// feasibility, serial and parallel, with the audit resync on.
TEST(IncrementalRouter, BoundedLedgerSweepMatchesNaiveFromAnInfeasibleStart) {
    struct Case {
        const char* spec;
        double capacity_scale; ///< capacity = initial max load x this
    };
    const Case cases[] = {{"synth:nodes=36,edges=72,seed=2", 0.8},
                          {"synth:nodes=49,edges=98,seed=6", 0.7},
                          {"synth:nodes=64,edges=128,seed=3", 0.7}};
    for (const Case& c : cases) {
        const auto g = apps::load_graph_or_application(c.spec);
        auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
        const auto ctx = noc::EvalContext::borrow(topo);
        const auto initial = nmap::initial_mapping(g, topo);
        topo.set_uniform_capacity(
            noc::max_load(nmap::evaluate_mapping(g, ctx, initial).loads) *
            c.capacity_scale);
        ASSERT_FALSE(nmap::evaluate_mapping(g, ctx, initial).feasible) << c.spec;
        const auto naive = testing_oracle::naive_single_path(g, ctx);
        ASSERT_TRUE(naive.feasible) << c.spec << ": the search must reach the feasible phase";

        RerouteOptions reroute;
        reroute.audit = true;
        reroute.resync_cadence = 3;
        std::size_t serial_exits = 0;
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            auto opt = with_threads(threads);
            opt.audit = reroute.audit;
            opt.resync_cadence = reroute.resync_cadence;
            MappingResult ledger;
            const std::size_t exits = logged_early_exits(g, ctx, opt, ledger);
            EXPECT_EQ(naive.mapping, ledger.mapping) << c.spec << " threads=" << threads;
            EXPECT_EQ(naive.feasible, ledger.feasible) << c.spec;
            EXPECT_EQ(naive.comm_cost, ledger.comm_cost) << c.spec;
            EXPECT_EQ(naive.loads, ledger.loads) << c.spec;
            EXPECT_GT(exits, 0u) << c.spec << " threads=" << threads;
            if (threads == 1) serial_exits = exits;
        }

        BoundedLedgerPolicy policy(g, ctx, reroute);
        const SweepOutcome outcome = SwapSweepDriver().sweep(initial, policy);
        EXPECT_EQ(naive.mapping, outcome.best) << c.spec;
        EXPECT_GT(policy.exits_infeasible, 0u) << c.spec;
        EXPECT_GT(policy.exits_feasible, 0u) << c.spec;
        // Same serial scoring path, so the same replays stop.
        EXPECT_EQ(policy.exits_infeasible + policy.exits_feasible, serial_exits) << c.spec;
    }
}

TEST(IncrementalRouter, LedgerExactMultiSweepParallelMatchesSerial) {
    const auto g = random_graph(30, 11);
    const auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto serial = nmap::map_with_single_path(g, ctx, with_threads(1, 3));
    for (const std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
        const auto parallel = nmap::map_with_single_path(g, ctx, with_threads(threads, 3));
        EXPECT_EQ(serial.mapping, parallel.mapping) << "threads=" << threads;
        EXPECT_DOUBLE_EQ(serial.comm_cost, parallel.comm_cost);
    }
}

TEST(IncrementalRouter, BandwidthAwareAnnealMatchesPlainWhenCapacityIsAmple) {
    // With ample capacity no move is ever rejected for feasibility, so the
    // bandwidth-aware walk consumes the identical random stream and must
    // return the identical mapping.
    const auto g = apps::make_application("pip");
    const auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto initial = nmap::initial_mapping(g, topo);
    AnnealOptions options;
    options.seed = 17;
    const AnnealOutcome plain = anneal(g, ctx, initial, options);
    options.bandwidth_aware = true;
    const AnnealOutcome aware = anneal(g, ctx, initial, options);
    EXPECT_EQ(plain.best, aware.best);
    EXPECT_DOUBLE_EQ(plain.best_cost, aware.best_cost);
    EXPECT_TRUE(aware.best_feasible);
}

TEST(IncrementalRouter, BandwidthAwareAnnealStaysFeasibleUnderTightCapacity) {
    const auto g = apps::make_application("pip");
    auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto initial = nmap::initial_mapping(g, topo);
    topo.set_uniform_capacity(
        noc::max_load(nmap::evaluate_mapping(g, ctx, initial).loads) * 1.1);
    AnnealOptions options;
    options.seed = 5;
    options.bandwidth_aware = true;
    const AnnealOutcome a = anneal(g, ctx, initial, options);
    const AnnealOutcome b = anneal(g, ctx, initial, options);
    EXPECT_EQ(a.best, b.best) << "bandwidth-aware walk must stay deterministic";
    // The initial mapping routes feasibly here and the walk refuses to
    // leave the feasible region (by the router's own accounting — fast
    // mode's feasible verdicts may be optimistic vs a full re-route, so
    // nothing stronger is guaranteed), so the best mapping is feasible.
    EXPECT_TRUE(a.best_feasible);
}

} // namespace
} // namespace nocmap::engine
