#include "shard/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "engine/map_api.hpp"
#include "engine/mapper.hpp"
#include "engine/thread_budget.hpp"
#include "graph/graph_io.hpp"
#include "nmap/initialize.hpp"
#include "nmap/shortest_path_router.hpp"
#include "noc/commodity.hpp"
#include "noc/evaluation.hpp"
#include "obs/metrics.hpp"
#include "service/protocol.hpp"
#include "sim/area_model.hpp"

namespace nocmap::shard {

namespace {

/// Identity fields every result carries, wire-independent — must mirror
/// PortfolioRunner::run_one exactly (the byte-parity contract).
portfolio::ScenarioResult result_shell(const portfolio::Scenario& scenario,
                                       std::size_t index) {
    portfolio::ScenarioResult r;
    r.index = index;
    r.name = scenario.display_name();
    r.app = scenario.app;
    r.topology = scenario.topology.display_name();
    r.mapper = scenario.mapper;
    return r;
}

/// Cheap shape check, not a parse: every protocol response is a JSON
/// object carrying a "status" member. Anything else (a corrupted frame, a
/// non-protocol peer) is treated as a transport failure, so garbage can
/// never reach the response parsers as data.
bool looks_like_response(const std::string& line) {
    return !line.empty() && line.front() == '{' &&
           line.find("\"status\"") != std::string::npos;
}

} // namespace

Coordinator::Coordinator(std::vector<std::unique_ptr<WorkerLink>> links, ShardOptions options)
    : options_(options), cache_(options.energy_model, options.cache_topologies) {
    if (links.empty()) throw std::runtime_error("shard: coordinator needs at least one worker");
    workers_.reserve(links.size());
    for (auto& link : links) {
        Worker worker;
        worker.link = std::move(link);
        try {
            worker.cores = service::parse_hello_response(
                worker.link->exchange(service::hello_request(next_id("hello"))));
        } catch (const std::exception&) {
            worker.alive = false;
        }
        workers_.push_back(std::move(worker));
    }
    if (alive_count() == 0)
        throw std::runtime_error("shard: no worker survived the hello handshake");
    if (options_.metrics) {
        obs::Registry& reg = *options_.metrics;
        for (std::size_t i = 0; i < workers_.size(); ++i) {
            const obs::Labels labels{{"worker", std::to_string(i)}};
            workers_[i].m_exchanges = reg.counter(
                "nocmap_shard_exchanges_total",
                "Request/response exchanges attempted on this worker", labels);
            workers_[i].m_retries = reg.counter(
                "nocmap_shard_retries_total",
                "Exchange retries after a transport failure on this worker", labels);
            workers_[i].m_reconnects = reg.counter(
                "nocmap_shard_reconnects_total",
                "Reconnect-and-re-hello escalation rounds on this worker", labels);
            workers_[i].m_timeouts = reg.counter(
                "nocmap_shard_timeouts_total",
                "Exchanges that failed with a connect/io timeout on this worker",
                labels);
        }
        m_migrated_ = reg.counter(
            "nocmap_shard_migrated_tasks_total",
            "Tasks re-dispatched to a survivor after their worker died");
    }
}

std::size_t Coordinator::alive_count() const noexcept {
    std::size_t n = 0;
    for (const Worker& worker : workers_)
        if (worker.alive) ++n;
    return n;
}

std::string Coordinator::next_id(const char* tag) {
    return std::string(tag) + "-" + std::to_string(++id_counter_);
}

std::vector<std::size_t> Coordinator::live_workers() const {
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < workers_.size(); ++i)
        if (workers_[i].alive) live.push_back(i);
    return live;
}

std::string Coordinator::exchange_checked(Worker& worker, const std::string& line) {
    std::uint64_t backoff = options_.reconnect_backoff_ms;
    for (std::size_t attempt = 0;; ++attempt) {
        try {
            if (worker.m_exchanges) worker.m_exchanges->inc();
            if (attempt > 0 && worker.m_retries) worker.m_retries->inc();
            std::string reply = worker.link->exchange(line);
            if (!looks_like_response(reply))
                throw std::runtime_error("shard: worker " + worker.link->name() +
                                         " returned a malformed reply");
            return reply;
        } catch (const std::exception& e) {
            if (worker.m_timeouts && dynamic_cast<const TimeoutError*>(&e))
                worker.m_timeouts->inc();
            if (attempt >= options_.reconnect_attempts) {
                worker.alive = false;
                throw;
            }
            // Escalation round: back off, rebuild the transport, re-run
            // the hello handshake, then retry the (idempotent) exchange.
            if (backoff > 0) std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
            backoff *= 2;
            if (worker.m_reconnects) worker.m_reconnects->inc();
            if (!worker.link->reconnect()) {
                // This link kind cannot reconnect (in-process) or the peer
                // is still unreachable.
                worker.alive = false;
                throw;
            }
            try {
                worker.cores = service::parse_hello_response(
                    worker.link->exchange(service::hello_request(next_id("hello"))));
            } catch (const std::exception&) {
                worker.alive = false;
                throw;
            }
        }
    }
}

std::string Coordinator::dispatch(const std::string& line) {
    for (std::size_t attempt = 0; attempt < std::max<std::size_t>(1, options_.max_attempts);
         ++attempt) {
        // Round-robin over the currently live workers; a worker that died
        // this attempt is skipped on the next.
        const auto live = live_workers();
        if (live.empty()) break;
        Worker& worker = workers_[live[rr_++ % live.size()]];
        try {
            return exchange_checked(worker, line);
        } catch (const std::exception&) {
            worker.alive = false;
        }
    }
    throw std::runtime_error("shard: task failed on every dispatch attempt "
                             "(all workers dead or max_attempts exhausted)");
}

std::vector<std::string> Coordinator::dispatch_all(const std::vector<std::string>& lines) {
    std::vector<std::string> replies(lines.size());
    std::vector<char> done(lines.size(), 0);
    // Undeliverable tasks degrade to synthesized error lines: the response
    // parsers turn those into per-scenario errors, so a dead cluster never
    // throws through run_grid.
    const auto undeliverable = [](const std::exception& e) {
        return service::error_response("", e.what());
    };
    const auto live = live_workers();
    if (live.empty()) {
        const std::runtime_error dead("shard: no live workers left to dispatch to");
        for (std::string& reply : replies) reply = undeliverable(dead);
        return replies;
    }

    // Round-robin task queues, one per live worker; each worker's queue
    // drains in order on its own thread, so a link is never used
    // concurrently. Replies land slot-indexed: whatever order workers
    // finish in, the merge sees the same array.
    std::vector<std::vector<std::size_t>> queues(live.size());
    for (std::size_t t = 0; t < lines.size(); ++t) queues[t % live.size()].push_back(t);

    auto drain = [&](std::size_t w) {
        Worker& worker = workers_[live[w]];
        for (const std::size_t t : queues[w]) {
            try {
                replies[t] = exchange_checked(worker, lines[t]);
                done[t] = 1;
            } catch (const std::exception&) {
                // Transport failure: the worker is dead, its remaining
                // tasks fall through to the serial retry pass below.
                worker.alive = false;
                return;
            }
        }
    };
    if (live.size() == 1 || lines.size() == 1) {
        for (std::size_t w = 0; w < queues.size(); ++w)
            if (!queues[w].empty()) drain(w);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(live.size());
        for (std::size_t w = 0; w < queues.size(); ++w)
            if (!queues[w].empty()) pool.emplace_back(drain, w);
        for (std::thread& t : pool) t.join();
    }

    for (std::size_t t = 0; t < lines.size(); ++t) {
        if (done[t]) continue;
        if (m_migrated_) m_migrated_->inc();
        try {
            replies[t] = dispatch(lines[t]);
        } catch (const std::exception& e) {
            replies[t] = undeliverable(e);
        }
    }
    return replies;
}

std::vector<portfolio::ScenarioResult> Coordinator::run_grid(
    const std::vector<portfolio::Scenario>& grid) {
    std::vector<portfolio::ScenarioResult> results =
        options_.mode == ShardMode::Rows ? run_rows(grid) : run_scenarios(grid);
    portfolio::PortfolioRunner::scalarize(results, options_.weights);
    return results;
}

// ----------------------------------------------------------------- rows

portfolio::ScenarioResult Coordinator::rows_scenario(const portfolio::Scenario& scenario,
                                                     std::size_t index) {
    portfolio::ScenarioResult r = result_shell(scenario, index);
    if (!scenario.graph) {
        r.ok = false;
        r.error = "scenario has no application graph";
        return r;
    }
    // Rows mode enforces the scenario deadline coordinator-side, between
    // dispatch rounds. It must NOT ride the shard-rows wire: a worker that
    // early-stopped a row would change which candidates were scored and
    // break byte parity for runs that finish in time.
    const auto started = std::chrono::steady_clock::now();
    const auto deadline_expired = [&] {
        return scenario.deadline_ms > 0 &&
               std::chrono::steady_clock::now() - started >=
                   std::chrono::milliseconds(scenario.deadline_ms);
    };
    try {
        if (scenario.mapper != "nmap")
            throw std::invalid_argument("rows-mode sharding requires mapper 'nmap' (got '" +
                                        scenario.mapper +
                                        "'); use --shard-mode scenarios for other mappers");
        const std::size_t cores = scenario.graph->node_count();
        r.fabric = scenario.topology.cache_key(cores);
        const auto ctx = cache_.get(scenario.topology, cores);
        r.tiles = ctx->topology().tile_count();
        r.links = ctx->topology().link_count();

        // The same validation gate a single-node run passes through
        // (engine::Registry::run), so a bad knob produces the identical
        // structured error.
        if (const auto err = engine::validate_params(
                scenario.params, engine::registry().describe("nmap").params)) {
            r.ok = false;
            r.error = err->message;
            r.error_code = std::string(engine::to_string(err->code));
            return r;
        }
        const auto max_sweeps =
            static_cast<std::size_t>(scenario.params.int_or("sweeps", 1));

        service::ShardRowsRequest base;
        base.graph_text = graph::core_graph_to_string(*scenario.graph);
        base.topology = scenario.topology.resolve(cores).display_name();
        base.bandwidth = scenario.topology.capacity;
        base.params = scenario.params;

        noc::Mapping placed = nmap::initial_mapping(*scenario.graph, ctx->topology());
        const auto tiles = static_cast<noc::TileId>(placed.tile_count());
        std::size_t evaluations = 0;

        const auto mapping_of = [&] {
            std::vector<std::int64_t> tile_cores(placed.tile_count(), -1);
            for (noc::TileId t = 0; t < tiles; ++t)
                if (placed.is_occupied(t)) tile_cores[static_cast<std::size_t>(t)] = placed.core_at(t);
            return tile_cores;
        };

        for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
            bool improved_this_pass = false;
            noc::TileId next = 0;
            while (next < tiles) {
                if (deadline_expired()) {
                    r.ok = false;
                    r.error = portfolio::deadline_error_message(scenario.deadline_ms);
                    r.error_code = std::string(
                        engine::to_string(engine::MapErrorCode::DeadlineExceeded));
                    return r;
                }
                const std::size_t candidates =
                    static_cast<std::size_t>(tiles - next) - 1;
                const std::size_t chunks = std::min<std::size_t>(
                    alive_count(),
                    std::max<std::size_t>(1, candidates /
                                                 std::max<std::size_t>(1, options_.min_chunk)));
                std::vector<std::string> tasks;
                if (chunks <= 1) {
                    // Tail rows (or one worker): one multi-row task over
                    // the rest of the pass; the worker early-stops at the
                    // first improving row.
                    service::ShardRowsRequest task = base;
                    task.tile_cores = mapping_of();
                    task.window = engine::RowWindow{next, tiles, 0, 0};
                    tasks.push_back(service::shard_rows_request(next_id("rows"), task));
                } else {
                    // One row, its j-range split into `chunks` contiguous
                    // windows (ascending — the merge order).
                    const noc::TileId lo = static_cast<noc::TileId>(next + 1);
                    const std::size_t total = static_cast<std::size_t>(tiles - lo);
                    for (std::size_t c = 0; c < chunks; ++c) {
                        service::ShardRowsRequest task = base;
                        task.tile_cores = mapping_of();
                        task.window = engine::RowWindow{
                            next, static_cast<noc::TileId>(next + 1),
                            static_cast<noc::TileId>(lo + (total * c) / chunks),
                            static_cast<noc::TileId>(lo + (total * (c + 1)) / chunks)};
                        tasks.push_back(service::shard_rows_request(next_id("rows"), task));
                    }
                }
                const auto replies = dispatch_all(tasks);

                if (chunks <= 1) {
                    const auto slice = service::parse_shard_rows_response(replies[0]);
                    evaluations += slice.evaluations;
                    bool improved = false;
                    for (const engine::RowBest& row : slice.rows) {
                        if (!row.improved) continue;
                        placed.swap_tiles(row.row, row.partner);
                        improved_this_pass = true;
                        improved = true;
                        next = static_cast<noc::TileId>(row.row + 1);
                        break;
                    }
                    if (!improved) next = tiles;
                } else {
                    // Ascending-column scan under the strict better_than:
                    // the first chunk attaining the row minimum wins, which
                    // is the serial sweep's first-j argmin for any chunk
                    // boundaries.
                    const engine::RowBest* winner = nullptr;
                    std::vector<engine::RowSliceOutcome> slices;
                    slices.reserve(replies.size());
                    for (const std::string& reply : replies) {
                        slices.push_back(service::parse_shard_rows_response(reply));
                        evaluations += slices.back().evaluations;
                    }
                    for (const engine::RowSliceOutcome& slice : slices) {
                        if (slice.rows.empty() || !slice.rows.front().improved) continue;
                        const engine::RowBest& row = slice.rows.front();
                        if (!winner || row.score.better_than(winner->score)) winner = &row;
                    }
                    if (winner) {
                        placed.swap_tiles(winner->row, winner->partner);
                        improved_this_pass = true;
                    }
                    ++next;
                }
            }
            if (!improved_this_pass) break;
        }

        // The final re-route of the winner — the same call the single-node
        // mapper finishes with, so cost/feasibility/loads match bit for
        // bit.
        r.result = nmap::scored_result(*scenario.graph, *ctx, std::move(placed), evaluations);

        // Evaluation backend runs coordinator-side (simulation is not
        // sharded), exactly as PortfolioRunner::run_one: refinement polls
        // the scenario deadline and an expiry is the same typed failure.
        bool eval_deadline_fired = false;
        portfolio::apply_eval_spec(r, scenario, *ctx, [&] {
            if (!deadline_expired()) return false;
            eval_deadline_fired = true;
            return true;
        });
        if (eval_deadline_fired) {
            r.ok = false;
            r.error = portfolio::deadline_error_message(scenario.deadline_ms);
            r.error_code =
                std::string(engine::to_string(engine::MapErrorCode::DeadlineExceeded));
            return r;
        }
        if (!r.ok) return r;

        if (r.result.mapping.core_count() == cores && r.result.mapping.is_complete()) {
            const auto commodities =
                noc::build_commodities(*scenario.graph, r.result.mapping);
            r.energy_mw = noc::mapping_energy_mw(*ctx, commodities);
            r.avg_hops = noc::average_weighted_hops(*ctx, commodities);
        }
        r.area_mm2 = sim::fabric_area_mm2(ctx->topology(), cores);
    } catch (const std::exception& e) {
        r.ok = false;
        r.error = e.what();
    }
    return r;
}

std::vector<portfolio::ScenarioResult> Coordinator::run_rows(
    const std::vector<portfolio::Scenario>& grid) {
    std::vector<portfolio::ScenarioResult> results;
    results.reserve(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        results.push_back(rows_scenario(grid[i], i));
    return results;
}

// ------------------------------------------------------------ scenarios

std::vector<portfolio::ScenarioResult> Coordinator::run_scenarios(
    const std::vector<portfolio::Scenario>& grid) {
    std::vector<portfolio::ScenarioResult> results;
    results.reserve(grid.size());
    // Scenarios a worker can run (those with a graph to ship); the rest
    // resolve locally exactly as PortfolioRunner::run_one would.
    std::vector<std::size_t> shipped;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        results.push_back(result_shell(grid[i], i));
        if (!grid[i].graph) {
            results[i].ok = false;
            results[i].error = "scenario has no application graph";
            continue;
        }
        try {
            results[i].fabric = grid[i].topology.cache_key(grid[i].graph->node_count());
        } catch (...) {
            // Unresolvable spec: the worker reports the error; the fabric
            // key stays empty, matching the single-node result.
        }
        shipped.push_back(i);
    }
    if (shipped.empty()) return results;

    // Contiguous partition proportional to the advertised core budgets
    // (engine::ThreadBudget::partition) — big workers take more scenarios.
    const auto live = live_workers();
    std::vector<std::size_t> weights;
    weights.reserve(live.size());
    for (const std::size_t w : live) weights.push_back(workers_[w].cores);
    const auto counts = engine::ThreadBudget::partition(shipped.size(), weights);

    std::vector<std::string> tasks;
    std::vector<std::vector<std::size_t>> members; ///< per task: shipped indices
    std::size_t cursor = 0;
    for (const std::size_t count : counts) {
        if (count == 0) continue;
        std::vector<service::ShardMapScenario> part;
        std::vector<std::size_t> own;
        for (std::size_t k = 0; k < count; ++k, ++cursor) {
            const portfolio::Scenario& scenario = grid[shipped[cursor]];
            service::ShardMapScenario s;
            s.app = scenario.app;
            s.graph_text = graph::core_graph_to_string(*scenario.graph);
            s.topology = scenario.topology.display_name();
            s.bandwidth = scenario.topology.capacity;
            s.mapper = scenario.mapper;
            s.params = scenario.params;
            s.eval = scenario.eval;
            s.seed = scenario.seed;
            s.deadline_ms = scenario.deadline_ms;
            part.push_back(std::move(s));
            own.push_back(shipped[cursor]);
        }
        tasks.push_back(service::shard_map_request(next_id("map"), part));
        members.push_back(std::move(own));
    }

    const auto replies = dispatch_all(tasks);
    for (std::size_t t = 0; t < replies.size(); ++t) {
        std::vector<service::ShardMapMetrics> metrics;
        std::string parse_error;
        try {
            metrics = service::parse_shard_map_response(replies[t]);
            if (metrics.size() != members[t].size())
                throw std::runtime_error("shard-map reply scenario count mismatch");
        } catch (const std::exception& e) {
            parse_error = e.what();
        }
        for (std::size_t k = 0; k < members[t].size(); ++k) {
            portfolio::ScenarioResult& r = results[members[t][k]];
            if (!parse_error.empty()) {
                r.ok = false;
                r.error = parse_error;
                continue;
            }
            const service::ShardMapMetrics& m = metrics[k];
            r.ok = m.ok;
            r.error = m.error;
            r.error_code = m.error_code;
            r.result.feasible = m.feasible;
            r.result.comm_cost = m.comm_cost;
            r.tiles = static_cast<std::size_t>(m.tiles);
            r.links = static_cast<std::size_t>(m.links);
            r.energy_mw = m.energy_mw;
            r.area_mm2 = m.area_mm2;
            r.avg_hops = m.avg_hops;
            r.sim = m.sim;
        }
    }
    return results;
}

} // namespace nocmap::shard
