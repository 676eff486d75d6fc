// Statistics, seeded randomness, spans and small helpers shared by every
// workload of nocmap_bench.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include <sys/resource.h>

#include "bench.hpp"
#include "engine/map_api.hpp"
#include "engine/mapper.hpp"

namespace bench {

double percentile(std::vector<double> xs, double p) {
    if (xs.empty()) throw std::invalid_argument("percentile of an empty sample");
    std::sort(xs.begin(), xs.end());
    const double pos = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double geomean(const std::vector<double>& xs) {
    if (xs.empty()) return 0.0;
    double log_sum = 0.0;
    for (const double x : xs) log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

std::size_t samples_beyond(std::size_t n, double p) {
    if (n == 0) return 0;
    const double pos = p / 100.0 * static_cast<double>(n - 1);
    return n - 1 - static_cast<std::size_t>(std::floor(pos));
}

std::uint64_t Rng::next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::size_t Rng::below(std::size_t bound) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(bound));
}

std::vector<std::size_t> seeded_order(std::size_t n, Rng& rng) {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    rng.shuffle(order);
    return order;
}

std::vector<double> poisson_schedule(double rate, std::size_t count, Rng& rng) {
    std::vector<double> offsets;
    offsets.reserve(count);
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        offsets.push_back(t);
    }
    return offsets;
}

void Report::metric(std::string name, double value, std::string unit, std::size_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::info(std::string name, double value, std::string unit, std::size_t samples) {
    extra.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::fail(const std::string& message) {
    ++failed;
    if (failures.size() < 20) failures.push_back(message);
}

std::int64_t Tracer::open(std::string name, std::int64_t parent, std::uint64_t op) {
    Span span;
    span.name = std::move(name);
    span.parent = parent;
    span.op = op;
    span.start_us = std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::close(std::int64_t index) {
    spans_[static_cast<std::size_t>(index)].end_us =
        std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
}

std::string Tracer::to_json() const {
    std::string out = "{\"spans\": [\n";
    char buffer[96];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out += "  {\"name\": " + json::quoted(s.name);
        std::snprintf(buffer, sizeof buffer, ", \"start_us\": %.3f, \"end_us\": %.3f", s.start_us,
                      s.end_us);
        out += buffer;
        out += ", \"parent\": " + std::to_string(s.parent) + ", \"op\": " + std::to_string(s.op) +
               "}" + (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    return out + "]}\n";
}

namespace {

/// The top-level span names a workload's operations are split into; each
/// becomes a `share.<name>` per-layer metric (0 where a workload has none).
const char* const kShareSpans[] = {"load", "context", "parse",     "cache_get", "map",
                                   "eval", "derive",  "scalarize", "to_json",   "encode"};

void add_trace_shares(const Tracer& tracer, Report& report) {
    const auto& spans = tracer.spans();
    double op_us = 0.0;
    std::map<std::string, double> top_us;
    std::vector<double> child_us(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            child_us[static_cast<std::size_t>(spans[i].parent)] += spans[i].end_us - spans[i].start_us;
    std::size_t ops = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const double duration = s.end_us - s.start_us;
        if (s.parent < 0) {
            op_us += duration;
            ++ops;
        } else if (spans[static_cast<std::size_t>(s.parent)].parent < 0) {
            top_us[s.name] += duration - child_us[i]; // self time
        }
    }
    double covered = 0.0;
    for (const char* name : kShareSpans) {
        const double us = top_us.count(name) ? top_us[name] : 0.0;
        covered += us;
        report.metric(std::string("share.") + name, op_us > 0.0 ? us / op_us : 0.0, "share", ops);
    }
    report.metric("trace.coverage", op_us > 0.0 ? covered / op_us : 0.0, "share", ops);
}

} // namespace

void traced_replay(const Options& options, const std::function<void(Tracer*)>& pass, Report& report) {
    Tracer tracer;
    double untraced_s = 0.0, traced_s = 0.0;
    const auto timed = [&](Tracer* t) {
        const auto t0 = Clock::now();
        pass(t);
        (t ? traced_s : untraced_s) += seconds_since(t0);
    };
    for (int rep = 0; rep < options.trace_reps(); ++rep) {
        timed(rep % 2 ? &tracer : nullptr);
        timed(rep % 2 ? nullptr : &tracer);
    }
    add_trace_shares(tracer, report);
    std::size_t ops = 0;
    for (const Span& s : tracer.spans()) ops += s.parent < 0;
    report.metric("trace.overhead_pct", (traced_s - untraced_s) / untraced_s * 100.0, "%", ops);
    if (!options.trace_path.empty()) std::ofstream(options.trace_path) << tracer.to_json();
}

std::size_t clamp_threads(std::size_t wanted, const Options& options) {
    return std::clamp<std::size_t>(wanted, 1, std::max<std::size_t>(1, options.nproc));
}

double bandwidth_of(const json::Value& entry) {
    const json::Value* bw = entry.find("bandwidth");
    return bw ? bw->as_number() : 1e9;
}

nocmap::engine::MappingResult map_or_throw(const std::string& mapper, const nocmap::graph::CoreGraph& graph,
                                           const nocmap::noc::EvalContext& ctx) {
    nocmap::engine::MapRequest request;
    request.graph = &graph;
    request.context = &ctx;
    auto outcome = nocmap::engine::run_by_name(mapper, request);
    if (!outcome.ok()) throw std::runtime_error(mapper + " failed: " + outcome.error().to_string());
    return std::move(outcome.result());
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

} // namespace bench
