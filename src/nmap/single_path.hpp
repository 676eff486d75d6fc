#pragma once
// mappingwithsinglepath() (Section 5): NMAP with single minimum-path
// routing. Three phases: initialize(), shortestpath() evaluation, and
// iterative improvement by pairwise swapping of mesh positions — the swap
// loop runs on engine::SwapSweepDriver.

#include <functional>
#include <memory>

#include "engine/incremental_router.hpp"
#include "engine/mapping_result.hpp"
#include "engine/sweep.hpp"
#include "graph/core_graph.hpp"
#include "noc/eval_context.hpp"

namespace nocmap::nmap {

struct SinglePathOptions {
    /// Number of full O(|U|^2) pairwise-swap sweeps. The paper's pseudocode
    /// performs one; additional sweeps keep improving until a fixpoint (we
    /// stop early when a sweep finds nothing).
    std::size_t max_sweeps = 1;
    /// Worker threads scoring the candidates of one sweep row (1 = serial,
    /// 0 = all hardware threads). The reduction is lowest-index-first, so
    /// any thread count returns the same mapping as the serial sweep. Every
    /// scoring thread gets its own router replica.
    std::size_t threads = 1;
    /// The incremental router re-routes everything from scratch every this
    /// many commits (0 = never): a safety net, see
    /// engine::RerouteOptions::resync_cadence.
    std::size_t resync_cadence = engine::RerouteOptions{}.resync_cadence;
    /// At every resync, assert the router's state matches the from-scratch
    /// re-route bit for bit (throws std::logic_error).
    bool audit = false;
    /// Cooperative cancellation, polled at sweep-row boundaries (see
    /// engine::SweepOptions::cancel); the best mapping so far is returned.
    std::function<bool()> cancel;
};

/// Runs NMAP with single minimum-path routing. The returned mapping is the
/// best one encountered; `feasible`/`comm_cost` reflect its shortestpath()
/// evaluation under the fabric's link capacities.
///
/// Every candidate swap is scored like the paper's pseudocode — a full
/// shortestpath() re-route checked against Inequality 3 and costed by
/// Eq. 7 — without paying for one: a candidate whose Eq. 7 delta cannot
/// beat the incumbent is rejected unrouted, and the survivors are scored
/// by engine::IncrementalRouter's Exact ledger replay, bounded by the
/// incumbent's Score::reject_bound(). Results are bit-identical to routing
/// every candidate from scratch (tests/nmap/naive_single_path.hpp is that
/// oracle).
engine::MappingResult map_with_single_path(const graph::CoreGraph& graph,
                                           const noc::EvalContext& ctx,
                                           const SinglePathOptions& options = {});

/// Shard-worker scorer: scores windows of the swap-sweep candidate
/// triangle against a `placed` mapping under the single-minimum-path
/// objective (the policy map_with_single_path sweeps with), returning
/// per-row best candidates for the coordinator's lowest-index-first merge.
/// The policy and its router persist across calls: a rows task's mapping
/// is usually one swap from the previous task's, which the router re-binds
/// in O(deg) instead of re-routing every commodity. The Exact router state
/// is path-independent, so every call returns what a fresh scorer would and
/// windows scored on any worker merge byte-identically.
/// `options.max_sweeps` is ignored — the coordinator owns the sweep loop.
/// `graph` and `ctx` must outlive the scorer.
class SinglePathPolicy;

class SinglePathRowScorer {
public:
    SinglePathRowScorer(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                        const SinglePathOptions& options);
    ~SinglePathRowScorer(); // SinglePathPolicy is complete only in single_path.cpp

    engine::RowSliceOutcome score(const noc::Mapping& placed, const engine::RowWindow& window);

private:
    std::unique_ptr<SinglePathPolicy> policy_;
    engine::SwapSweepDriver driver_;
};

} // namespace nocmap::nmap
