#include "nmap/single_path.hpp"

#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "engine/incremental_cost.hpp"
#include "engine/incremental_router.hpp"
#include "engine/sweep.hpp"
#include "nmap/initialize.hpp"
#include "nmap/shortest_path_router.hpp"
#include "util/log.hpp"

namespace nocmap::nmap {

/// Sweep policy for the single-minimum-path objective.
///
/// Candidates are first pruned with Eq.7 deltas from the evaluator (synced
/// to the sweep's `placed` mapping via on_rebase): a candidate whose delta
/// cannot beat the incumbent is rejected without routing. Survivors are
/// scored by engine::IncrementalRouter's Exact replay, bit-identical to a
/// full shortestpath() re-route at O(deg) Dijkstras.
///
/// The router gets the incumbent's rejection bound (Score::reject_bound).
/// A candidate whose replayed prefixes already prove it infeasible with a
/// peak at or above that bound stops early and comes back as
/// {inf, inf, false}, which never wins — exactly as its full verdict would
/// not have. Parallel sweeps score against the row-start incumbent; the
/// running one only improves on it, so that bound is looser and still safe.
///
/// The router holds mutable pending state, so with threads != 1 every
/// scoring thread (the sweep's workers and the main thread) keeps its own
/// replica of the master router, which is only mutated at the serial
/// points (evaluate/on_rebase); replicas catch up when their version
/// falls behind.
class SinglePathPolicy final : public engine::SweepPolicy {
public:
    SinglePathPolicy(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                     const SinglePathOptions& options)
        : graph_(graph), ctx_(ctx), clone_per_thread_(options.threads != 1) {
        reroute_.resync_cadence = options.resync_cadence;
        reroute_.audit = options.audit;
    }

    engine::Score evaluate(const noc::Mapping& mapping) override {
        count_evaluation();
        sync_master(mapping);
        const engine::RerouteEval& eval = master_->committed_eval();
        return engine::Score{eval.cost, eval.max_load, eval.feasible};
    }

    engine::Score evaluate_swap(const noc::Mapping&, const engine::Score& base_score,
                                const engine::Score& incumbent, noc::TileId a,
                                noc::TileId b) override {
        count_evaluation();
        if (base_score.feasible && incumbent.feasible) {
            // Eq.7 cost depends only on the mapping (every minimal route
            // realizes it), so base cost + delta predicts the candidate's
            // routed cost exactly up to rounding. Candidates that cannot
            // beat the incumbent are pruned without routing; the guard
            // absorbs summation-order rounding so no seed-accepted
            // candidate is ever pruned.
            const double delta = evaluator_->swap_delta(a, b);
            const double guard = 1e-9 * (1.0 + std::abs(base_score.primary));
            if (base_score.primary + delta >= incumbent.primary + guard)
                return engine::Score::rejected();
        }
        engine::IncrementalRouter& router = thread_router();
        const engine::RerouteEval eval = router.reroute_swap(a, b, incumbent.reject_bound());
        router.rollback();
        return engine::Score{eval.cost, eval.max_load, eval.feasible};
    }

    void on_rebase(const noc::Mapping& placed, const engine::Score&) override {
        if (!evaluator_)
            evaluator_.emplace(graph_, ctx_, placed);
        else
            evaluator_->rebase(placed);
        sync_master(placed);
    }

    bool parallel_safe() const override { return true; }

    std::size_t router_dijkstras() const {
        return master_ ? master_->dijkstra_count() : 0;
    }

    /// Early exits summed over every scoring router. No exit is counted
    /// twice: a parallel sweep's master only rebases (unbounded), so a
    /// replica copied from it starts at zero.
    std::size_t router_early_exits() const {
        std::size_t total = master_ ? master_->early_exit_count() : 0;
        for (const auto& [id, clone] : clones_)
            if (clone.router) total += clone.router->early_exit_count();
        return total;
    }

    /// Forgets the scoring threads' replicas. They are keyed by thread id,
    /// so a policy that outlives its sweep's threads must drop them.
    void drop_replicas() {
        const std::lock_guard<std::mutex> lock(clones_mutex_);
        clones_.clear();
    }

private:
    void sync_master(const noc::Mapping& mapping) {
        if (!master_)
            master_ = std::make_unique<engine::IncrementalRouter>(graph_, ctx_, mapping, reroute_);
        else
            master_->rebase(mapping);
        ++version_;
    }

    engine::IncrementalRouter& thread_router() {
        // Serial sweeps score on the master directly; parallel sweeps keep
        // the master pristine during a row (it is the copy source) and give
        // every scoring thread its own replica.
        if (!clone_per_thread_) return *master_;
        const std::lock_guard<std::mutex> lock(clones_mutex_);
        Clone& clone = clones_[std::this_thread::get_id()];
        if (!clone.router) {
            clone.router = std::make_unique<engine::IncrementalRouter>(*master_);
        } else if (clone.version != version_) {
            // Exact state is path-independent (always the full re-route of
            // the bound mapping), so a stale replica catches up through
            // rebase — the one-swap O(deg) shortcut in the common
            // one-row-behind case — instead of a deep copy.
            clone.router->rebase(master_->mapping());
        }
        clone.version = version_;
        return *clone.router;
    }

    const graph::CoreGraph& graph_;
    const noc::EvalContext& ctx_;
    const bool clone_per_thread_;
    engine::RerouteOptions reroute_;
    std::optional<engine::IncrementalEvaluator> evaluator_;
    std::unique_ptr<engine::IncrementalRouter> master_;
    std::uint64_t version_ = 0;

    struct Clone {
        std::uint64_t version = 0;
        std::unique_ptr<engine::IncrementalRouter> router;
    };
    std::mutex clones_mutex_;
    std::unordered_map<std::thread::id, Clone> clones_;
};

engine::MappingResult map_with_single_path(const graph::CoreGraph& graph,
                                           const noc::EvalContext& ctx,
                                           const SinglePathOptions& options) {
    SinglePathPolicy policy(graph, ctx, options);
    engine::SweepOptions sweep;
    sweep.max_sweeps = options.max_sweeps;
    sweep.threads = options.threads;
    sweep.cancel = options.cancel;
    engine::SwapSweepDriver driver(sweep);

    const engine::SweepOutcome outcome =
        driver.sweep(initial_mapping(graph, ctx.topology()), policy);
    util::log_debug("nmap") << "sweeps " << outcome.sweeps << " best cost "
                            << outcome.best_score.primary << " router dijkstras "
                            << policy.router_dijkstras() << " early exits "
                            << policy.router_early_exits();
    // One final re-route of the winner (its loads are not carried through
    // the generic Score); deterministic, so identical to the sweep's own
    // evaluation of that mapping.
    return scored_result(graph, ctx, outcome.best, policy.evaluations());
}

SinglePathRowScorer::SinglePathRowScorer(const graph::CoreGraph& graph,
                                         const noc::EvalContext& ctx,
                                         const SinglePathOptions& options)
    : policy_(std::make_unique<SinglePathPolicy>(graph, ctx, options)), driver_([&] {
          engine::SweepOptions sweep;
          sweep.threads = options.threads;
          sweep.cancel = options.cancel;
          return sweep;
      }()) {}

SinglePathRowScorer::~SinglePathRowScorer() = default;

engine::RowSliceOutcome SinglePathRowScorer::score(const noc::Mapping& placed,
                                                   const engine::RowWindow& window) {
    engine::RowSliceOutcome outcome = driver_.score_rows(placed, *policy_, window);
    // score_rows runs its scoring threads for this call only.
    policy_->drop_replicas();
    return outcome;
}

} // namespace nocmap::nmap
