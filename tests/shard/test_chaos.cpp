// Chaos suite: scheduled link faults (delay, drop, stall, garbage, kill),
// wedged (SIGSTOP'd) subprocess workers, and pre-hello deaths. The
// contract under every fault: a typed per-scenario error or a merged
// report byte-identical to a single-node run — never a hang (ctest
// enforces a per-test TIMEOUT on this binary) and never a throw out of
// run_grid.
#include "shard/fault.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "portfolio/report.hpp"
#include "portfolio/runner.hpp"
#include "portfolio/scenario.hpp"
#include "shard/coordinator.hpp"
#include "shard/worker_link.hpp"

namespace nocmap::shard {
namespace {

std::vector<portfolio::Scenario> test_grid() {
    const auto specs = portfolio::parse_topology_list("mesh,torus", 1e9);
    std::vector<std::pair<std::string, std::shared_ptr<const graph::CoreGraph>>> apps;
    for (const char* app : {"vopd", "pip"})
        apps.emplace_back(
            app, std::make_shared<const graph::CoreGraph>(apps::make_application(app)));
    return portfolio::make_grid(apps, specs, "nmap", {}, 0);
}

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

/// SIGSTOPs worker `i` and waits until the kernel reports it stopped.
/// kill() only queues the signal: the worker's threads stop once one of
/// them is scheduled to act on it, and on a loaded host that can take
/// longer than a whole small sharded run, during which the "wedged" worker
/// still answers every exchange. Waiting for the stop (the fleet forks its
/// workers, so they are our children) makes the next exchange with it the
/// timeout the test is about.
void stop_worker(LocalFleet& fleet, std::size_t i) {
    const pid_t pid = fleet.pid(i);
    ASSERT_EQ(::kill(pid, SIGSTOP), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, WUNTRACED), pid);
    ASSERT_TRUE(WIFSTOPPED(status));
}

/// Fast-failure ShardOptions: tests should not sit in backoff sleeps.
ShardOptions fast_options(ShardMode mode) {
    ShardOptions options;
    options.mode = mode;
    options.reconnect_backoff_ms = 10;
    return options;
}

TEST(Chaos, FaultPlanParsesTheCliGrammar) {
    const FaultPlan plan = FaultPlan::parse_cli("0:2:stall:500,1:0:kill,0:7:garbage", 2);
    ASSERT_EQ(plan.per_worker.size(), 2u);
    ASSERT_EQ(plan.per_worker[0].size(), 2u);
    EXPECT_EQ(plan.per_worker[0][0].at, 2u);
    EXPECT_EQ(plan.per_worker[0][0].kind, FaultKind::Stall);
    EXPECT_EQ(plan.per_worker[0][0].ms, 500u);
    EXPECT_EQ(plan.per_worker[0][1].kind, FaultKind::Garbage);
    EXPECT_EQ(plan.per_worker[1][0].kind, FaultKind::Kill);
    EXPECT_FALSE(plan.empty());
    EXPECT_TRUE(FaultPlan::parse_cli("", 2).empty());

    EXPECT_THROW(FaultPlan::parse_cli("0:1", 2), std::runtime_error);
    EXPECT_THROW(FaultPlan::parse_cli("0:1:teleport", 2), std::runtime_error);
    EXPECT_THROW(FaultPlan::parse_cli("2:0:drop", 2), std::runtime_error);
    EXPECT_THROW(FaultPlan::parse_cli("x:0:drop", 2), std::runtime_error);
    EXPECT_THROW(FaultPlan::parse_cli("0:1:stall:abc", 2), std::runtime_error);
}

TEST(Chaos, InjectedFaultsPreserveByteParityInBothModes) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    for (const ShardMode mode : {ShardMode::Rows, ShardMode::Scenarios}) {
        // Worker 0 delays one exchange, drops another, and garbles a
        // third; worker 1 is clean; a third worker covers the retries.
        std::vector<FaultAction> actions = {
            {1, FaultKind::Delay, 20},
            {3, FaultKind::Drop, 0},
            {5, FaultKind::Garbage, 0},
        };
        std::vector<std::unique_ptr<WorkerLink>> links;
        links.push_back(make_faulty(in_process_worker(), actions));
        links.push_back(in_process_worker());
        links.push_back(in_process_worker());
        Coordinator coordinator(std::move(links), fast_options(mode));
        EXPECT_EQ(sharded_json(coordinator, grid), expected)
            << "mode " << static_cast<int>(mode);
    }
}

TEST(Chaos, StallFaultSurfacesAsTimeoutAndWorkMigrates) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    std::vector<FaultAction> actions = {{2, FaultKind::Stall, 10}};
    std::vector<std::unique_ptr<WorkerLink>> links;
    links.push_back(make_faulty(in_process_worker(), actions));
    links.push_back(in_process_worker());
    Coordinator coordinator(std::move(links), fast_options(ShardMode::Rows));
    EXPECT_EQ(sharded_json(coordinator, grid), expected);
    // In-process links cannot reconnect, so the stalled worker is dead.
    EXPECT_EQ(coordinator.alive_count(), 1u);
}

TEST(Chaos, EveryWorkerFaultedYieldsTypedErrorsNotThrows) {
    const auto grid = test_grid();
    for (const ShardMode mode : {ShardMode::Rows, ShardMode::Scenarios}) {
        // Both workers drop everything after the hello handshake.
        std::vector<FaultAction> always_drop;
        for (std::size_t at = 1; at < 64; ++at)
            always_drop.push_back({at, FaultKind::Drop, 0});
        std::vector<std::unique_ptr<WorkerLink>> links;
        links.push_back(make_faulty(in_process_worker(), always_drop));
        links.push_back(make_faulty(in_process_worker(), always_drop));
        Coordinator coordinator(std::move(links), fast_options(mode));
        const auto results = coordinator.run_grid(grid);
        ASSERT_EQ(results.size(), grid.size());
        for (const auto& r : results) {
            EXPECT_FALSE(r.ok);
            EXPECT_FALSE(r.error.empty());
        }
        EXPECT_EQ(coordinator.alive_count(), 0u);
    }
}

TEST(Chaos, GarbageReplyTriggersReconnectAndRecoversOverTcp) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    LocalFleet fleet = LocalFleet::spawn(1);
    auto links = fleet.connect_all(LinkTimeouts{5000, 30000});
    // The sole worker garbles one reply mid-run: the coordinator must
    // treat it as a transport failure, reconnect, re-hello, and replay the
    // task on the SAME worker (there is no other), ending byte-identical.
    links[0] = make_faulty(std::move(links[0]), {{3, FaultKind::Garbage, 0}});
    Coordinator coordinator(std::move(links), fast_options(ShardMode::Rows));
    EXPECT_EQ(sharded_json(coordinator, grid), expected);
    EXPECT_EQ(coordinator.alive_count(), 1u) << "reconnect must revive the worker";
}

TEST(Chaos, KilledSubprocessWorkerDegradesGracefully) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    LocalFleet fleet = LocalFleet::spawn(2);
    auto links = fleet.connect_all(LinkTimeouts{5000, 30000});
    // Worker 0 is SIGKILLed during its first real task; worker 1 absorbs
    // the reassigned work.
    links[0] = make_faulty(std::move(links[0]), {{1, FaultKind::Kill, 0}},
                           [&fleet] { fleet.kill_worker(0); });
    Coordinator coordinator(std::move(links), fast_options(ShardMode::Scenarios));
    EXPECT_EQ(sharded_json(coordinator, grid), expected);
    EXPECT_EQ(coordinator.alive_count(), 1u);
}

TEST(Chaos, SigstoppedWorkerTimesOutAndWorkCompletes) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    LocalFleet fleet = LocalFleet::spawn(2);
    // Tight io budget: a wedged worker costs ~io_ms per attempt, not a
    // hang. (The ctest TIMEOUT on this binary is the ultimate backstop.)
    auto links = fleet.connect_all(LinkTimeouts{2000, 500});
    ShardOptions options = fast_options(ShardMode::Rows);
    options.reconnect_attempts = 1;
    Coordinator coordinator(std::move(links), options);
    // Wedge worker 0 AFTER the hello handshake: its next exchange must
    // time out, the reconnect escalation must also time out (the kernel
    // still completes TCP handshakes via the listen backlog), and worker 1
    // must finish everything byte-identically. Rows mode's first dispatch
    // hands task 0 to the first live worker, so worker 0 is exchanged with.
    stop_worker(fleet, 0);
    EXPECT_EQ(sharded_json(coordinator, grid), expected);
    EXPECT_EQ(coordinator.alive_count(), 1u);
    // SIGKILL works on a stopped process; teardown must not hang either.
    fleet.kill_worker(0);
}

TEST(Chaos, FleetSurvivesWorkerDeadBeforeHello) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    LocalFleet fleet = LocalFleet::spawn(2);
    auto links = fleet.connect_all(LinkTimeouts{2000, 30000});
    // Worker 0 dies after its link connected but before the coordinator's
    // hello: the handshake fails (reconnect hits a dead port), the
    // coordinator carries on with worker 1, and fleet teardown (both here
    // and in the destructor) reaps without hanging.
    fleet.kill_worker(0);
    ShardOptions options = fast_options(ShardMode::Scenarios);
    options.reconnect_attempts = 1;
    Coordinator coordinator(std::move(links), options);
    EXPECT_EQ(coordinator.alive_count(), 1u);
    EXPECT_EQ(sharded_json(coordinator, grid), expected);
    fleet.shutdown(); // explicit teardown path, then the destructor no-ops
}

} // namespace
} // namespace nocmap::shard
