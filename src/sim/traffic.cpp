#include "sim/traffic.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace nocmap::sim {

namespace {

/// The emission test: a packet due at fractional time `next_emit` leaves
/// in the first cycle whose end passes it.
bool emits_by(std::uint64_t cycle, double next_emit) {
    return !(static_cast<double>(cycle) + 1.0 <= next_emit);
}

} // namespace

BurstyGenerator::BurstyGenerator(double packets_per_cycle, const TrafficConfig& config,
                                 util::Rng rng)
    : rate_(packets_per_cycle), mean_burst_(config.mean_burst_packets), rng_(rng) {
    if (!(packets_per_cycle > 0.0) || packets_per_cycle >= 1.0)
        throw std::invalid_argument("BurstyGenerator: need 0 < packets/cycle < 1");
    if (!(config.burstiness >= 1.0))
        throw std::invalid_argument("BurstyGenerator: burstiness must be >= 1");
    if (!(config.mean_burst_packets >= 1.0))
        throw std::invalid_argument("BurstyGenerator: mean burst length must be >= 1");

    // Within a burst packets are spaced at the peak rate; the OFF gap after
    // a burst of B packets restores the average:
    //   B/rate = B * peak_spacing + off_gap.
    const double peak_rate = std::min(1.0, rate_ * config.burstiness);
    peak_spacing_ = 1.0 / peak_rate;
    off_mean_ = mean_burst_ * (1.0 / rate_ - peak_spacing_);

    // Random initial phase decorrelates flows sharing a seed-derived stream.
    next_emit_ = rng_.next_double_in(0.0, 1.0 / rate_);
    burst_left_ = 0;
}

void BurstyGenerator::schedule_next() {
    if (burst_left_ > 0) {
        --burst_left_;
        next_emit_ += peak_spacing_;
        return;
    }
    // New burst: geometric length with the configured mean (>= 1 packet).
    const double p = 1.0 / mean_burst_;
    std::uint64_t length = 1;
    while (!rng_.next_bool(p) && length < 1024) ++length;
    burst_left_ = length - 1;
    // Exponential OFF gap (0 when bursts already sustain the average rate).
    double gap = 0.0;
    if (off_mean_ > 1e-12) {
        const double u = std::max(1e-12, 1.0 - rng_.next_double());
        gap = -off_mean_ * std::log(u);
    }
    next_emit_ += peak_spacing_ + gap;
}

bool BurstyGenerator::emits_at(std::uint64_t cycle) {
    if (!emits_by(cycle, next_emit_)) return false;
    schedule_next();
    return true;
}

std::uint64_t BurstyGenerator::next_emission_cycle() const noexcept {
    constexpr double kWholeCycles = 4503599627370496.0; // 2^52
    if (emits_by(0, next_emit_)) return 0;
    if (!(next_emit_ < kWholeCycles)) return std::numeric_limits<std::uint64_t>::max();
    // Start from the floor estimate and settle on the exact predicate.
    auto cycle = static_cast<std::uint64_t>(next_emit_ - 1.0);
    while (!emits_by(cycle, next_emit_)) ++cycle;
    while (cycle > 0 && emits_by(cycle - 1, next_emit_)) --cycle;
    return cycle;
}

} // namespace nocmap::sim
