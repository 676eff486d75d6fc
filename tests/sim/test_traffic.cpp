#include "sim/traffic.hpp"

#include <gtest/gtest.h>

namespace nocmap::sim {
namespace {

TEST(Traffic, RejectsBadConfigs) {
    TrafficConfig cfg;
    EXPECT_THROW(BurstyGenerator(0.0, cfg, util::Rng(1)), std::invalid_argument);
    EXPECT_THROW(BurstyGenerator(1.0, cfg, util::Rng(1)), std::invalid_argument);
    cfg.burstiness = 0.5;
    EXPECT_THROW(BurstyGenerator(0.1, cfg, util::Rng(1)), std::invalid_argument);
    cfg = TrafficConfig{};
    cfg.mean_burst_packets = 0.5;
    EXPECT_THROW(BurstyGenerator(0.1, cfg, util::Rng(1)), std::invalid_argument);
}

TEST(Traffic, Deterministic) {
    TrafficConfig cfg;
    BurstyGenerator a(0.05, cfg, util::Rng(7));
    BurstyGenerator b(0.05, cfg, util::Rng(7));
    for (std::uint64_t c = 0; c < 5000; ++c) EXPECT_EQ(a.emits_at(c), b.emits_at(c));
}

class TrafficRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(TrafficRateSweep, LongRunAverageMatchesConfiguredRate) {
    const double rate = GetParam();
    TrafficConfig cfg;
    BurstyGenerator gen(rate, cfg, util::Rng(13));
    const std::uint64_t horizon = 400'000;
    std::uint64_t packets = 0;
    for (std::uint64_t c = 0; c < horizon; ++c) packets += gen.emits_at(c);
    const double measured = static_cast<double>(packets) / static_cast<double>(horizon);
    EXPECT_NEAR(measured, rate, rate * 0.08) << "rate " << rate;
}

INSTANTIATE_TEST_SUITE_P(Rates, TrafficRateSweep,
                         ::testing::Values(0.005, 0.02, 0.05, 0.1, 0.2));

TEST(Traffic, BurstsAreClumped) {
    // With burstiness 4, inter-arrival gaps inside bursts are ~1/(4*rate):
    // the variance of gaps must exceed a Poisson-like spread.
    TrafficConfig cfg;
    cfg.burstiness = 4.0;
    cfg.mean_burst_packets = 8.0;
    const double rate = 0.02;
    BurstyGenerator gen(rate, cfg, util::Rng(21));
    std::vector<double> gaps;
    std::uint64_t last = 0;
    bool first = true;
    for (std::uint64_t c = 0; c < 500'000; ++c) {
        if (!gen.emits_at(c)) continue;
        if (!first) gaps.push_back(static_cast<double>(c - last));
        last = c;
        first = false;
    }
    ASSERT_GT(gaps.size(), 100u);
    std::size_t short_gaps = 0;
    for (const double g : gaps)
        if (g <= 1.2 / (rate * cfg.burstiness)) ++short_gaps;
    // Most packets arrive inside bursts (short gaps).
    EXPECT_GT(static_cast<double>(short_gaps) / static_cast<double>(gaps.size()), 0.5);
}

TEST(Traffic, BurstinessOneIsSmooth) {
    TrafficConfig cfg;
    cfg.burstiness = 1.0;
    const double rate = 0.05;
    BurstyGenerator gen(rate, cfg, util::Rng(5));
    std::uint64_t packets = 0;
    for (std::uint64_t c = 0; c < 100'000; ++c) packets += gen.emits_at(c);
    EXPECT_NEAR(static_cast<double>(packets) / 100'000.0, rate, rate * 0.05);
}

TEST(Traffic, NextEmissionCycleMatchesSteppedEmitsAt) {
    // For random rates and burstiness (including peaks clamped to one
    // packet per cycle, and uniform injection at burstiness 1), the helper
    // names exactly the next cycle at which stepping emits_at() says yes.
    util::Rng pick(99);
    std::size_t clamped = 0;
    for (int trial = 0; trial < 60; ++trial) {
        const double rate = pick.next_double_in(1e-4, 0.6);
        TrafficConfig cfg;
        cfg.burstiness = trial % 3 == 0 ? 1.0 : pick.next_double_in(1.0, 16.0);
        cfg.mean_burst_packets = pick.next_double_in(1.0, 12.0);
        clamped += rate * cfg.burstiness >= 1.0 ? 1 : 0;
        const auto seed = pick.next_below(1'000'000);
        BurstyGenerator predicted(rate, cfg, util::Rng(seed));
        BurstyGenerator stepped(rate, cfg, util::Rng(seed));
        std::uint64_t cycle = 0;
        for (int emission = 0; emission < 200; ++emission) {
            const std::uint64_t next = std::max(cycle, predicted.next_emission_cycle());
            while (!stepped.emits_at(cycle)) ++cycle;
            ASSERT_EQ(next, cycle) << "rate " << rate << " burstiness " << cfg.burstiness
                                   << " emission " << emission;
            ASSERT_TRUE(predicted.emits_at(next));
            ++cycle;
        }
    }
    EXPECT_GT(clamped, 5u);
}

} // namespace
} // namespace nocmap::sim
