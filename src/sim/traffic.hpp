#pragma once
// Bursty traffic generation.
//
// The paper's Figure 5(c) traffic is "bursty in nature": even when average
// bandwidth constraints are met, bursts cause contention. We model each
// flow as an ON/OFF source: inside a burst, packets are emitted back to
// back at `burstiness`× the average rate; bursts have geometrically
// distributed lengths; OFF gaps restore the long-run average rate.

#include <cstdint>

#include "util/rng.hpp"

namespace nocmap::sim {

struct TrafficConfig {
    double burstiness = 4.0;         ///< peak rate / average rate (>1)
    double mean_burst_packets = 8.0; ///< geometric mean burst length
};

/// Deterministic (seeded) ON/OFF packet-arrival process for one flow.
class BurstyGenerator {
public:
    /// `packets_per_cycle` is the long-run average emission rate
    /// (flow bytes-per-cycle / packet size). Must be > 0 and < 1.
    BurstyGenerator(double packets_per_cycle, const TrafficConfig& config,
                    util::Rng rng);

    /// Number of packets this flow emits at `cycle` (0 or 1; the average
    /// rate is < 1 packet/cycle). Must be called with strictly increasing
    /// cycles.
    bool emits_at(std::uint64_t cycle);

    /// The smallest cycle at which emits_at() would return true, by the
    /// same `cycle + 1.0 <= next emission` test: emits_at() returns false,
    /// without changing state, for every earlier cycle. A result below the
    /// caller's current cycle means "emits at the current cycle". Emission
    /// times past 2^52 cycles, where doubles stop resolving whole cycles,
    /// saturate to UINT64_MAX.
    std::uint64_t next_emission_cycle() const noexcept;

    double average_rate() const noexcept { return rate_; }

private:
    void schedule_next();

    double rate_;
    double peak_spacing_;  ///< cycles between packets inside a burst
    double off_mean_;      ///< mean OFF gap in cycles
    double mean_burst_;
    util::Rng rng_;
    double next_emit_ = 0.0;       ///< fractional next emission time
    std::uint64_t burst_left_ = 0; ///< packets remaining in current burst
};

} // namespace nocmap::sim
