// Shard determinism: the coordinator's merged report must be byte-identical
// to a single-node PortfolioRunner run — at any worker count, under
// shuffled reply timing, and across mid-sweep worker deaths (tasks are
// idempotent, so a retry on a survivor reproduces the same bytes).
#include "shard/coordinator.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "graph/graph_io.hpp"
#include "nmap/initialize.hpp"
#include "portfolio/report.hpp"
#include "portfolio/runner.hpp"
#include "portfolio/scenario.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "shard/worker_link.hpp"
#include "util/json.hpp"

namespace nocmap::shard {
namespace {

std::vector<portfolio::Scenario> test_grid(engine::Params params = {}) {
    const auto specs = portfolio::parse_topology_list("mesh,torus", 1e9);
    std::vector<std::pair<std::string, std::shared_ptr<const graph::CoreGraph>>> apps;
    for (const char* app : {"vopd", "mpeg4"})
        apps.emplace_back(
            app, std::make_shared<const graph::CoreGraph>(apps::make_application(app)));
    return portfolio::make_grid(apps, specs, "nmap", params, 0);
}

/// The reference bytes: a single-node run rendered as the deterministic
/// (timings-off) JSON document.
std::string single_node_json(const std::vector<portfolio::Scenario>& grid) {
    portfolio::PortfolioRunner runner{portfolio::PortfolioOptions{}};
    const auto results = runner.run(grid);
    portfolio::JsonOptions json;
    json.timings = false;
    return portfolio::to_json(results, portfolio::PortfolioRunner::rank_topologies(results),
                              json);
}

std::string sharded_json(Coordinator& coordinator,
                         const std::vector<portfolio::Scenario>& grid) {
    const auto results = coordinator.run_grid(grid);
    portfolio::JsonOptions json;
    json.timings = false;
    return portfolio::to_json(results, portfolio::PortfolioRunner::rank_topologies(results),
                              json);
}

std::vector<std::unique_ptr<WorkerLink>> in_process_links(std::size_t count) {
    std::vector<std::unique_ptr<WorkerLink>> links;
    for (std::size_t i = 0; i < count; ++i) links.push_back(in_process_worker());
    return links;
}

/// Wraps a link and stalls each exchange by a per-link delay, so workers
/// finish in an order unrelated to dispatch order.
class DelayLink final : public WorkerLink {
public:
    DelayLink(std::unique_ptr<WorkerLink> inner, std::chrono::microseconds delay)
        : inner_(std::move(inner)), delay_(delay) {}
    const std::string& name() const noexcept override { return inner_->name(); }
    std::string exchange(const std::string& line) override {
        std::this_thread::sleep_for(delay_);
        return inner_->exchange(line);
    }

private:
    std::unique_ptr<WorkerLink> inner_;
    std::chrono::microseconds delay_;
};

/// Wraps a link and kills the transport after a fixed number of successful
/// exchanges (the hello handshake counts as one).
class FlakyLink final : public WorkerLink {
public:
    FlakyLink(std::unique_ptr<WorkerLink> inner, std::size_t successes)
        : inner_(std::move(inner)), remaining_(successes) {}
    const std::string& name() const noexcept override { return inner_->name(); }
    std::string exchange(const std::string& line) override {
        if (remaining_ == 0)
            throw std::runtime_error("flaky link: simulated transport failure");
        --remaining_;
        return inner_->exchange(line);
    }

private:
    std::unique_ptr<WorkerLink> inner_;
    std::size_t remaining_;
};

TEST(Shard, RowsParityAcrossWorkerCounts) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    for (const std::size_t workers : {1u, 2u, 4u}) {
        ShardOptions options;
        options.mode = ShardMode::Rows;
        Coordinator coordinator(in_process_links(workers), options);
        EXPECT_EQ(sharded_json(coordinator, grid), expected)
            << workers << " rows-mode workers";
    }
}

TEST(Shard, ScenariosParityAcrossWorkerCounts) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    for (const std::size_t workers : {1u, 2u, 4u}) {
        ShardOptions options;
        options.mode = ShardMode::Scenarios;
        Coordinator coordinator(in_process_links(workers), options);
        EXPECT_EQ(sharded_json(coordinator, grid), expected)
            << workers << " scenarios-mode workers";
    }
}

TEST(Shard, RowsParityWithMultiSweepParams) {
    engine::Params params;
    params.set("sweeps", engine::ParamValue::of_int(3));
    params.set("threads", engine::ParamValue::of_int(2));
    const auto grid = test_grid(params);
    const std::string expected = single_node_json(grid);
    ShardOptions options;
    options.mode = ShardMode::Rows;
    Coordinator coordinator(in_process_links(3), options);
    EXPECT_EQ(sharded_json(coordinator, grid), expected);
}

TEST(Shard, RowsParityUnderShuffledReplyTiming) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    // Wildly uneven per-worker latency: slot-indexed replies and the
    // ascending merge make completion order irrelevant.
    std::vector<std::unique_ptr<WorkerLink>> links;
    links.push_back(std::make_unique<DelayLink>(in_process_worker(),
                                                std::chrono::microseconds(900)));
    links.push_back(
        std::make_unique<DelayLink>(in_process_worker(), std::chrono::microseconds(0)));
    links.push_back(std::make_unique<DelayLink>(in_process_worker(),
                                                std::chrono::microseconds(300)));
    ShardOptions options;
    options.mode = ShardMode::Rows;
    Coordinator coordinator(std::move(links), options);
    EXPECT_EQ(sharded_json(coordinator, grid), expected);
}

TEST(Shard, RowsParityAcrossMidSweepWorkerDeath) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    // One worker dies after a handful of tasks mid-sweep; its in-flight
    // task is reassigned to a survivor and the merged bytes must not move.
    std::vector<std::unique_ptr<WorkerLink>> links;
    links.push_back(std::make_unique<FlakyLink>(in_process_worker(), 5));
    links.push_back(in_process_worker());
    links.push_back(in_process_worker());
    ShardOptions options;
    options.mode = ShardMode::Rows;
    Coordinator coordinator(std::move(links), options);
    EXPECT_EQ(coordinator.alive_count(), 3u);
    EXPECT_EQ(sharded_json(coordinator, grid), expected);
    EXPECT_EQ(coordinator.alive_count(), 2u) << "the flaky worker should be marked dead";
}

TEST(Shard, ScenariosParityAcrossWorkerDeath) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    std::vector<std::unique_ptr<WorkerLink>> links;
    links.push_back(std::make_unique<FlakyLink>(in_process_worker(), 1)); // hello only
    links.push_back(in_process_worker());
    ShardOptions options;
    options.mode = ShardMode::Scenarios;
    Coordinator coordinator(std::move(links), options);
    EXPECT_EQ(sharded_json(coordinator, grid), expected);
    EXPECT_EQ(coordinator.alive_count(), 1u);
}

TEST(Shard, DeadClusterYieldsPerScenarioErrorsNotThrows) {
    const auto grid = test_grid();
    for (const ShardMode mode : {ShardMode::Rows, ShardMode::Scenarios}) {
        std::vector<std::unique_ptr<WorkerLink>> links;
        links.push_back(std::make_unique<FlakyLink>(in_process_worker(), 1)); // hello only
        ShardOptions options;
        options.mode = mode;
        Coordinator coordinator(std::move(links), options);
        const auto results = coordinator.run_grid(grid);
        ASSERT_EQ(results.size(), grid.size());
        for (const auto& r : results) {
            EXPECT_FALSE(r.ok);
            EXPECT_FALSE(r.error.empty());
        }
    }
}

TEST(Shard, HandshakeFailureOfEveryWorkerThrows) {
    std::vector<std::unique_ptr<WorkerLink>> links;
    links.push_back(std::make_unique<FlakyLink>(in_process_worker(), 0));
    EXPECT_THROW(Coordinator(std::move(links), ShardOptions{}), std::runtime_error);
}

TEST(Shard, RowsVerbValidatesParamsBeforeScoring) {
    // A shard-rows task carries nmap's knobs. They are checked against
    // nmap's ParamSpec list before anything is scored: a bad value or an
    // unknown key gets the typed error code a map request would, and the
    // worker never even resolves the fabric (its topology cache stays cold).
    service::Service worker;
    const auto g = apps::make_application("pip");
    const auto placed = nmap::initial_mapping(g, noc::Topology::mesh(4, 2, 1e9));
    service::ShardRowsRequest task;
    task.graph_text = graph::core_graph_to_string(g);
    task.topology = "mesh:4x2";
    for (noc::TileId t = 0; t < 8; ++t)
        task.tile_cores.push_back(placed.is_occupied(t) ? placed.core_at(t) : -1);
    task.window = engine::RowWindow{0, 8, 0, 0};
    const auto reply_to = [&](const char* assignment) {
        task.params = {};
        if (*assignment) task.params.set_assignment(assignment);
        return util::json::parse(
            worker.handle_line(service::shard_rows_request("t", task)));
    };
    const auto cache_misses = [&] {
        const auto stats = util::json::parse(
            worker.handle_line(R"({"id": "s", "method": "stats"})"));
        return stats.find("cache")->find("misses")->as_number();
    };

    for (const auto& [assignment, code] : {std::pair{"threads=-1", "param-out-of-range"},
                                           std::pair{"eval=naive", "unknown-param"}}) {
        const auto reply = reply_to(assignment);
        EXPECT_EQ(reply.find("status")->as_string(), "error") << assignment;
        EXPECT_EQ(reply.find("code")->as_string(), code) << assignment;
        EXPECT_EQ(reply.find("rows"), nullptr) << assignment;
    }
    EXPECT_EQ(cache_misses(), 0.0);

    const auto scored = reply_to("threads=2");
    EXPECT_EQ(scored.find("status")->as_string(), "ok");
    EXPECT_NE(scored.find("rows"), nullptr);
    EXPECT_EQ(cache_misses(), 1.0);
}

TEST(Shard, RowsWorkerKeepsItsScorerWithoutChangingReplies) {
    // A worker keeps its rows scorer between tasks of one (graph, fabric,
    // threads): every reply must equal a fresh worker's, whether the next
    // task's mapping is one swap away, many swaps away, on another fabric,
    // or arrives from two connections at once.
    const auto g = apps::make_application("vopd");
    const auto placed = nmap::initial_mapping(g, noc::Topology::mesh(4, 4, 1e9));
    service::ShardRowsRequest base;
    base.graph_text = graph::core_graph_to_string(g);
    base.topology = "mesh:4x4";
    base.window = engine::RowWindow{0, 16, 0, 0};
    std::vector<service::ShardRowsRequest> tasks;
    for (const char* threads : {"threads=1", "threads=2"})
        for (const double bandwidth : {1e9, 350.0}) {
            service::ShardRowsRequest task = base;
            task.bandwidth = bandwidth;
            task.params.set_assignment(threads);
            noc::Mapping m = placed;
            for (const auto& [a, b] : {std::pair{0, 1}, std::pair{1, 5}, std::pair{2, 14},
                                       std::pair{3, 4}, std::pair{7, 12}, std::pair{5, 9}}) {
                m.swap_tiles(a, b); // one swap from the previous task's mapping
                task.tile_cores.clear();
                for (noc::TileId t = 0; t < 16; ++t)
                    task.tile_cores.push_back(m.is_occupied(t) ? m.core_at(t) : -1);
                task.window = engine::RowWindow{static_cast<noc::TileId>(a), 16, 0, 0};
                tasks.push_back(task);
            }
            tasks.push_back(tasks[tasks.size() - 6]); // many swaps back
        }
    const auto fresh_reply = [](const service::ShardRowsRequest& task) {
        service::Service fresh;
        return fresh.handle_line(service::shard_rows_request("t", task));
    };

    service::Service worker;
    for (const auto& task : tasks)
        EXPECT_EQ(worker.handle_line(service::shard_rows_request("t", task)), fresh_reply(task));

    std::vector<std::string> expected;
    for (const auto& task : tasks) expected.push_back(fresh_reply(task));
    std::vector<std::string> got[2];
    std::vector<std::thread> connections;
    for (int c = 0; c < 2; ++c)
        connections.emplace_back([&, c] {
            for (const auto& task : tasks)
                got[c].push_back(worker.handle_line(service::shard_rows_request("t", task)));
        });
    for (std::thread& t : connections) t.join();
    EXPECT_EQ(got[0], expected);
    EXPECT_EQ(got[1], expected);
}

TEST(Shard, WeightedPartitionFollowsAdvertisedCores) {
    // Workers advertise their options_.threads budget in the handshake.
    service::ServiceOptions small;
    small.threads = 1;
    service::ServiceOptions big;
    big.threads = 3;
    std::vector<std::unique_ptr<WorkerLink>> links;
    links.push_back(in_process_worker(small));
    links.push_back(in_process_worker(big));
    Coordinator coordinator(std::move(links), ShardOptions{});
    EXPECT_EQ(coordinator.worker_cores(0), 1u);
    EXPECT_EQ(coordinator.worker_cores(1), 3u);
}

} // namespace
} // namespace nocmap::shard
