// Differential test: NMAP's single-path sweep (Eq. 7 delta prune plus the
// bounded ledger replay) against the Naive route-every-candidate oracle of
// naive_single_path.hpp, over the six video apps and a synth: corpus, at
// ample capacity, at tight capacity (the initial mapping routes just
// feasibly) and from an infeasible start, serial and threaded, one and
// three sweeps. Mapping, cost, feasibility, loads and the evaluation count
// must all be bit-identical.

#include <cctype>
#include <string>

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "naive_single_path.hpp"
#include "nmap/single_path.hpp"

namespace nocmap::nmap {
namespace {

struct Regime {
    const char* name;
    double scale; ///< capacity = initial mapping's peak load x scale; 0 = ample
};

constexpr Regime kRegimes[] = {{"ample", 0.0}, {"tight", 1.02}, {"infeasible-start", 0.75}};

class NaiveOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(NaiveOracle, NmapIsBitIdentical) {
    const auto g = apps::load_graph_or_application(GetParam());
    const auto ample = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
    const noc::Mapping initial = initial_mapping(g, ample);
    const double initial_peak =
        evaluate_mapping(g, noc::EvalContext::borrow(ample), initial).max_load;
    for (const Regime& regime : kRegimes) {
        noc::Topology topo = ample;
        if (regime.scale > 0.0) topo.set_uniform_capacity(initial_peak * regime.scale);
        const noc::EvalContext ctx(topo);
        EXPECT_EQ(evaluate_mapping(g, ctx, initial).feasible, regime.scale != 0.75)
            << GetParam() << " " << regime.name;
        for (const std::size_t sweeps : {std::size_t{1}, std::size_t{3}}) {
            const engine::MappingResult oracle = testing_oracle::naive_single_path(g, ctx, sweeps);
            for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
                SinglePathOptions options;
                options.max_sweeps = sweeps;
                options.threads = threads;
                const engine::MappingResult got = map_with_single_path(g, ctx, options);
                const std::string where = std::string(GetParam()) + " " + regime.name +
                                          " sweeps=" + std::to_string(sweeps) +
                                          " threads=" + std::to_string(threads);
                EXPECT_EQ(oracle.mapping, got.mapping) << where;
                EXPECT_EQ(oracle.comm_cost, got.comm_cost) << where;
                EXPECT_EQ(oracle.feasible, got.feasible) << where;
                EXPECT_EQ(oracle.loads, got.loads) << where;
                EXPECT_EQ(oracle.evaluations, got.evaluations) << where;
            }
        }
    }
}

std::string instance_name(const ::testing::TestParamInfo<const char*>& info) {
    std::string name;
    for (const char* c = info.param; *c; ++c)
        if (std::isalnum(static_cast<unsigned char>(*c))) name += *c;
    return name;
}

INSTANTIATE_TEST_SUITE_P(PaperApps, NaiveOracle,
                         ::testing::Values("vopd", "mpeg4", "pip", "mwa", "mwag", "dsd"),
                         instance_name);

INSTANTIATE_TEST_SUITE_P(SynthCorpus, NaiveOracle,
                         ::testing::Values("synth:nodes=36,edges=72,seed=2",
                                           "synth:nodes=49,edges=98,seed=6",
                                           "synth:nodes=64,edges=128,seed=3",
                                           "synth:nodes=100,edges=200,seed=5"),
                         instance_name);

} // namespace
} // namespace nocmap::nmap
