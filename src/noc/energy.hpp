#pragma once
// Bit-energy model of NoC communication (Hu & Marculescu, ASP-DAC 2003 —
// the objective PBB optimizes in the paper's reference [8]).
//
// The energy of sending one bit from tile a to tile b over n_hops links is
//
//   E_bit = (n_hops + 1) * E_Sbit + n_hops * E_Lbit
//
// (every hop crosses one switch plus one link, plus the final switch).
// Mapping energy is the sum over commodities of vl(d_k) * E_bit(route_k).
// With minimal routing the hop count equals the Manhattan distance, so —
// like Equation 7 — mapping energy depends only on the placement; the two
// objectives are affine transforms of each other for fixed total demand,
// which is why NMAP's cost-driven search also produces low-energy mappings.

#include <vector>

#include "noc/commodity.hpp"
#include "noc/evaluation.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"

namespace nocmap::noc {

class EvalContext; // eval_context.hpp

struct EnergyModel {
    /// Energy to move one bit through one switch (pJ/bit). Default values
    /// follow the 0.18um figures used in the ASP-DAC 2003 study.
    double switch_pj_per_bit = 0.284;
    /// Energy to move one bit across one inter-tile link (pJ/bit).
    double link_pj_per_bit = 0.449;

    /// Energy per bit for a path of `hops` links (pJ).
    double bit_energy(std::size_t hops) const noexcept {
        return static_cast<double>(hops + 1) * switch_pj_per_bit +
               static_cast<double>(hops) * link_pj_per_bit;
    }
};

/// Communication energy of a mapping under minimal routing, in mW
/// (MB/s * pJ/bit * 8 bit/byte * 1e6 B/MB * 1e-12 J/pJ * 1e3 mW/W).
/// Depends only on tile distances, like Equation 7. Distances and per-hop
/// bit energies come from the context's precomputed tables, and the model
/// is the one the context was built with.
double mapping_energy_mw(const EvalContext& ctx, const std::vector<Commodity>& commodities);

/// Communication energy of explicit single-path routes (exact hop counts).
double routed_energy_mw(const std::vector<Commodity>& commodities,
                        const std::vector<Route>& routes, const EnergyModel& model = {});

/// Energy of a fractional (split) flow solution: every link traversal of
/// every fraction pays link+switch energy; the destination switch is paid
/// once per commodity.
double split_flow_energy_mw(const Topology& topo,
                            const std::vector<Commodity>& commodities,
                            const std::vector<std::vector<double>>& flows,
                            const EnergyModel& model = {});

} // namespace nocmap::noc
