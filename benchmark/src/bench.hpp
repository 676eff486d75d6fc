#pragma once
// Shared declarations of nocmap_bench, the repository benchmark program.
//
// nocmap_bench measures four workloads (see README.md): it builds each
// workload's inputs from a seed, times the public entry points of the
// library, checks every output with validators written here from scratch
// (never the library's own evaluator), and writes one JSON result document
// that run.py turns into the printed metric lines.
//
// Layout: common.cpp (order statistics, seeded RNG, Poisson schedules,
// in-memory spans), validate.cpp (independent output checks),
// closed_loop.cpp (nmap-tight, split-tight, dse-sim), serve.cpp
// (serve-mixed), kernels.cpp (per-layer replays of the traced run),
// main.cpp (command line, calibration, self-test, result document).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/mapping_result.hpp"
#include "graph/core_graph.hpp"
#include "noc/eval_context.hpp"
#include "noc/topology.hpp"
#include "portfolio/runner.hpp"
#include "portfolio/scenario.hpp"
#include "portfolio/topology_cache.hpp"
#include "util/json.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;
namespace json = nocmap::util::json;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------- statistics

/// Linear-interpolated percentile of raw samples (the "type 7" definition:
/// position p/100 * (n-1) between the sorted order statistics); p in
/// [0, 100]. Requires a non-empty sample.
double percentile(std::vector<double> xs, double p);
double median(std::vector<double> xs);
/// Geometric mean of strictly positive values (0 for an empty input).
double geomean(const std::vector<double>& xs);
/// Samples strictly above the p-th percentile position of n samples — the
/// count the "at least ten samples beyond a reported percentile" rule uses.
std::size_t samples_beyond(std::size_t n, double p);

/// splitmix64: small, fully specified, identical on every platform (the
/// standard library's distributions are not).
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /// Uniform double in [0, 1) from the top 53 bits.
    double uniform();
    /// Uniform integer in [0, bound); bound > 0.
    std::size_t below(std::size_t bound);
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
    }

private:
    std::uint64_t state_;
};

/// 0..n-1 in a seeded random order.
std::vector<std::size_t> seeded_order(std::size_t n, Rng& rng);

/// Send offsets (seconds from phase start) of `count` Poisson arrivals at
/// `rate` per second: cumulative exponential gaps -ln(1 - u) / rate.
std::vector<double> poisson_schedule(double rate, std::size_t count, Rng& rng);

// ----------------------------------------------------------------- report

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
};

/// Everything one invocation measured: the metrics BENCHMARK.json lists
/// for this mode, informational extras, failure accounting and provenance.
struct Report {
    std::string workload;
    std::uint64_t seed = 1;
    bool trace = false;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<Metric> extra;
    std::vector<std::string> failures; ///< first validator messages, capped
    std::vector<std::pair<std::string, double>> phases; ///< phase -> seconds

    void metric(std::string name, double value, std::string unit, std::size_t samples);
    void info(std::string name, double value, std::string unit, std::size_t samples);
    /// Counts one failed operation and keeps its message (first 20 only).
    void fail(const std::string& message);
    void phase(std::string name, double seconds) { phases.emplace_back(std::move(name), seconds); }
};

// ---------------------------------------------------------------- options

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    std::string config_path = "benchmark/workloads.json";
    std::string trace_path; ///< where a traced run writes its spans
    std::size_t nproc = 1;
    /// Damage one result before validation (self-test of the fail path).
    bool corrupt = false;

    /// Short runs (--smoke) shrink the traced replays and layer kernels.
    bool quick() const { return seconds < 10.0; }
    int trace_reps() const { return quick() ? 1 : 2; }
};

/// Clamps a configured thread or connection count to [1, nproc].
std::size_t clamp_threads(std::size_t wanted, const Options& options);

/// Uniform link bandwidth of a config entry: its "bandwidth" (MB/s) or the
/// ample 1e9 the CLI and daemon default to.
double bandwidth_of(const json::Value& entry);

/// Peak resident set of this process so far, MB.
double peak_rss_mb();

/// engine::run_by_name on a context; throws std::runtime_error carrying the
/// typed error when the mapper fails (set-up and kernels, where a failure
/// is a broken benchmark rather than a measured outcome).
nocmap::engine::MappingResult map_or_throw(const std::string& mapper, const nocmap::graph::CoreGraph& graph,
                                           const nocmap::noc::EvalContext& ctx);

// ------------------------------------------------------------------ trace

/// One recorded span: a timed call into a library layer, made from this
/// benchmark's own code. Times are microseconds from the tracer's epoch;
/// parent is an index into the span list (-1 for an operation's root).
struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    std::int64_t parent = -1;
    std::uint64_t op = 0;
};

/// In-memory span store, written once at the end of a traced run. A null
/// Tracer* means tracing is off: SpanScope then reads no clock at all.
class Tracer {
public:
    Tracer() : epoch_(Clock::now()) {}
    std::int64_t open(std::string name, std::int64_t parent, std::uint64_t op);
    void close(std::int64_t index);
    const std::vector<Span>& spans() const noexcept { return spans_; }
    std::string to_json() const;

private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

/// RAII span; a no-op when `tracer` is null.
class SpanScope {
public:
    SpanScope(Tracer* tracer, std::string name, std::int64_t parent, std::uint64_t op)
        : tracer_(tracer),
          index_(tracer ? tracer->open(std::move(name), parent, op) : -1) {}
    ~SpanScope() {
        if (tracer_) tracer_->close(index_);
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;
    std::int64_t index() const noexcept { return index_; }

private:
    Tracer* tracer_;
    std::int64_t index_;
};

/// Runs a workload's replay `pass` untraced and traced options.trace_reps()
/// times each, alternating which goes first, then reports share.<span>
/// (self time over op time), trace.coverage (top-level spans over op time)
/// and trace.overhead_pct (traced minus untraced time over untraced), and
/// writes the spans to options.trace_path. `pass(tracer)` gets null for the
/// untraced passes; operation roots must be spans named "op".
void traced_replay(const Options& options, const std::function<void(Tracer*)>& pass, Report& report);

// ------------------------------------------------------------- validators

/// All-pairs hop distances by breadth-first search over the topology's
/// directed link list (row-major n x n) — the benchmark's own, so Eq. 7 is
/// recomputed without the library's distance tables.
std::vector<std::int32_t> bfs_distances(const nocmap::noc::Topology& topo);

enum class ResultKind {
    SinglePath, ///< nmap: loads are minimal single-path routes
    SplitAll,   ///< nmap-split: flows over all paths
    SplitMin,   ///< nmap-tm: flows restricted to minimal paths (Eq. 10)
};

/// The result kind a registered mapper produces.
ResultKind result_kind(const std::string& mapper);

/// Checks one mapping result against the paper's definitions: the placement
/// is injective and complete, Eq. 7 recomputed from BFS distances matches
/// comm_cost (single-path; split results must sum their loads to comm_cost
/// and may not undercut Eq. 7), feasible loads respect every capacity, and
/// split results conserve each commodity's flow and sum to the loads.
/// Returns the first violation, or nullopt.
std::optional<std::string> check_result(const nocmap::graph::CoreGraph& graph,
                                        const nocmap::noc::Topology& topo,
                                        const std::vector<std::int32_t>& dist,
                                        const nocmap::engine::MappingResult& result,
                                        ResultKind kind);

/// Byte comparison of two report documents: nullopt when identical, else
/// where and how they first differ.
std::optional<std::string> compare_documents(const std::string& got, const std::string& want);

/// Self-test corruption cases: each corrupts a valid result one way and
/// expects check_result to reject it. Returns the names of the corruptions
/// the validator failed to catch (empty = all rejected).
std::vector<std::string> validator_self_test(const nocmap::graph::CoreGraph& graph,
                                             const nocmap::noc::Topology& topo,
                                             const nocmap::engine::MappingResult& valid,
                                             ResultKind kind);

// ------------------------------------------------------------ grid replay

/// The deterministic report document the daemon returns for a grid:
/// rank_topologies + to_json with timings off.
std::string report_document(const std::vector<nocmap::portfolio::ScenarioResult>& results);

/// Runs a portfolio grid as the sequence of public calls PortfolioRunner
/// makes internally — cache get, mapper, evaluation backend, report
/// fields, scalarization — with one span around each, under `root`.
/// Produces the same results as PortfolioRunner::run (the traced replays
/// check the documents byte for byte).
std::vector<nocmap::portfolio::ScenarioResult> run_grid_spanned(
    const std::vector<nocmap::portfolio::Scenario>& grid, nocmap::portfolio::TopologyCache& cache,
    Tracer* tracer, std::int64_t root, std::uint64_t op);

// -------------------------------------------------------------- workloads

void run_nmap_tight(const Options& options, const json::Value& config, Report& report);
void run_split_tight(const Options& options, const json::Value& config, Report& report);
void run_dse_sim(const Options& options, const json::Value& config, Report& report);
void run_serve_mixed(const Options& options, const json::Value& config, Report& report);

/// Per-layer replays every traced run performs after its workload's own
/// traced replay (same suite on every workload; see README.md):
/// apps/noc/engine/nmap/lp/eval/sim kernels, and the portfolio/service
/// kernels over the serve-mixed request stream including a short open-loop
/// phase against a fresh daemon.
void run_layer_kernels(const Options& options, const json::Value& config, Report& report);
void run_service_kernels(const Options& options, const json::Value& config, Report& report);

/// Calibration: per-instance tight bandwidths (lowest 50 MB/s grid point
/// where the mapper returns feasible), printed as JSON. Never timed.
int calibrate(const json::Value& config);

/// Helper checks (percentile, geomean, Poisson schedule) against hand
/// computed values plus one corrupted output per validator. Returns the
/// number of checks that did not behave as expected.
int self_test(const json::Value& config);

} // namespace bench
