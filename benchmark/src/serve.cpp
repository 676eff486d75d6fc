// serve-mixed: an open-loop load against an in-process serve daemon
// (service::Service::serve_socket on a loopback port), plus the portfolio
// and service layer kernels every traced run performs.
//
// One generator thread drives all connections with ppoll(): requests leave
// on a seeded Poisson schedule whatever the replies do, and each latency is
// measured from the request's *scheduled* send time, so a stall charges
// every request queued behind it. Each request goes to the connection with
// the fewest unanswered requests, on a tie to the one whose oldest
// unanswered request is the youngest (the one least likely to be stuck
// behind a heavy request); the daemon serves a connection's lines in order
// and answers a coalesced batch only when all of it is done, so a heavy
// request still delays the light ones already queued behind it (head-of-line
// blocking).

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "apps/registry.hpp"
#include "bench.hpp"
#include "portfolio/report.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"

namespace bench {

namespace portfolio = nocmap::portfolio;
namespace service = nocmap::service;
using nocmap::graph::CoreGraph;

namespace {

// ---------------------------------------------------------------- catalog

/// One distinct request of the mix; `body` is the JSON members after "id".
struct Entry {
    std::string cls; ///< light | synth | tm | sim
    std::string body;
};

std::string quoted_list(const std::vector<std::string>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + json::quoted(items[i]);
    return out + "]";
}

std::string map_body(const std::vector<std::string>& apps, const std::string& topologies,
                     const std::string& mapper, double bandwidth, bool simulated) {
    std::string body = "\"method\":\"map\",\"apps\":" + quoted_list(apps) +
                       ",\"topologies\":" + json::quoted(topologies) +
                       ",\"mapper\":" + json::quoted(mapper);
    if (bandwidth > 0.0) body += ",\"bandwidth\":" + std::to_string(static_cast<long long>(bandwidth));
    if (simulated) body += ",\"eval\":{\"eval\":\"simulated\"}";
    return body;
}

std::vector<std::string> strings_of(const json::Value& array) {
    std::vector<std::string> out;
    for (const json::Value& v : array.as_array()) out.push_back(v.as_string());
    return out;
}

/// The distinct requests of the mix, in a fixed order (no seed involved).
std::vector<Entry> build_catalog(const json::Value& workload) {
    std::vector<Entry> catalog;
    const json::Value& light = *workload.find("light");
    std::vector<std::vector<std::string>> app_sets;
    for (const std::string& app : strings_of(*light.find("apps"))) app_sets.push_back({app});
    for (const json::Value& pair : light.find("pairs")->as_array()) app_sets.push_back(strings_of(pair));
    for (const auto& apps : app_sets)
        for (const std::string& topologies : strings_of(*light.find("topologies")))
            for (const json::Value& bw : light.find("bandwidths")->as_array())
                catalog.push_back({"light", map_body(apps, topologies, "nmap", bw.as_number(), false)});
    for (const json::Value& s : workload.find("synth")->as_array())
        catalog.push_back({"synth", map_body({s.find("app")->as_string()}, "mesh", "nmap",
                                             bandwidth_of(s), false)});
    for (const json::Value& s : workload.find("tm")->as_array())
        catalog.push_back({"tm", map_body({s.find("app")->as_string()}, "mesh", "nmap-tm",
                                          bandwidth_of(s), false)});
    const json::Value& sim = *workload.find("sim");
    for (const std::string& app : strings_of(*sim.find("apps")))
        catalog.push_back({"sim", map_body({app}, sim.find("topologies")->as_string(), "nmap", 0.0, true)});
    return catalog;
}

std::string request_line(const std::string& id, const Entry& entry) {
    return "{\"id\":" + json::quoted(id) + "," + entry.body + "}";
}

/// Requests per block of the mix (the sum of the configured class counts).
std::size_t block_size(const json::Value& workload) {
    std::size_t block = 0;
    for (const auto& [cls, n] : workload.find("block")->as_object()) block += static_cast<std::size_t>(n.as_number());
    return block;
}

/// Seeded request stream: blocks with exact per-class counts (the mix's
/// proportions hold in every block whatever the seed); each slot deals the
/// next entry of its class from a shuffled deck, so every entry of a class
/// recurs equally often.
std::vector<std::size_t> make_stream(const std::vector<Entry>& catalog, const json::Value& workload,
                                     std::size_t count, Rng& rng) {
    std::map<std::string, std::vector<std::size_t>> by_class;
    for (std::size_t i = 0; i < catalog.size(); ++i) by_class[catalog[i].cls].push_back(i);
    std::vector<std::string> heavy;
    for (const auto& [cls, n] : workload.find("block")->as_object())
        if (cls != "light") heavy.insert(heavy.end(), static_cast<std::size_t>(n.as_number()), cls);
    const std::size_t size = block_size(workload);
    std::map<std::string, std::vector<std::size_t>> deck;
    std::vector<std::size_t> stream;
    while (stream.size() < count) {
        // Heavy requests sit evenly spaced in the block (in a seeded
        // order), so no seed piles them up back to back.
        rng.shuffle(heavy);
        std::vector<std::string> block(size, "light");
        for (std::size_t k = 0; k < heavy.size(); ++k)
            block[(2 * k + 1) * size / (2 * heavy.size())] = heavy[k];
        for (const std::string& cls : block) {
            auto& cards = deck[cls];
            if (cards.empty()) {
                cards = by_class.at(cls);
                rng.shuffle(cards);
            }
            stream.push_back(cards.back());
            cards.pop_back();
        }
    }
    stream.resize(count);
    return stream;
}

// ------------------------------------------------------------- reference

/// In-process reference for one catalog entry: the request parsed by the
/// protocol codec and run through a one-shot PortfolioRunner — the document
/// the daemon must reproduce byte for byte.
struct Reference {
    std::vector<portfolio::Scenario> grid;
    std::vector<portfolio::ScenarioResult> results;
    std::string doc;
    double ms = 0.0;
};

using Graphs = std::map<std::string, std::shared_ptr<const CoreGraph>>;

/// The request's app graphs, loaded once per target like the daemon does.
std::vector<std::pair<std::string, std::shared_ptr<const CoreGraph>>> apps_of(const service::MapRequest& m,
                                                                             Graphs& graphs) {
    std::vector<std::pair<std::string, std::shared_ptr<const CoreGraph>>> apps;
    for (const std::string& target : m.apps) {
        auto& slot = graphs[target];
        if (!slot) slot = std::make_shared<const CoreGraph>(nocmap::apps::load_graph_or_application(target));
        apps.emplace_back(target, slot);
    }
    return apps;
}

/// The daemon's grid assembly for a parsed map request (server defaults:
/// ample bandwidth, no default params/seed/deadline).
std::vector<portfolio::Scenario> grid_of(
    const service::MapRequest& m,
    const std::vector<std::pair<std::string, std::shared_ptr<const CoreGraph>>>& apps) {
    const auto specs = portfolio::parse_topology_list(m.topologies, m.bandwidth > 0.0 ? m.bandwidth : 1e9);
    return portfolio::make_grid(apps, specs, m.mapper, m.params, m.seed, m.deadline_ms, m.eval);
}

Reference make_reference(const Entry& entry) {
    static Graphs graphs;
    Reference ref;
    const service::MapRequest m = service::parse_request(request_line("ref", entry)).map;
    ref.grid = grid_of(m, apps_of(m, graphs));
    portfolio::PortfolioRunner runner;
    const auto t0 = Clock::now();
    ref.results = runner.run(ref.grid);
    ref.ms = ms_between(t0, Clock::now());
    ref.doc = report_document(ref.results);
    return ref;
}

// ----------------------------------------------------------------- daemon

/// The in-process serve daemon on an ephemeral loopback port.
class Daemon {
public:
    explicit Daemon(service::ServiceOptions options) : service_(std::move(options)) {
        std::promise<std::uint16_t> ready;
        auto port = ready.get_future();
        thread_ = std::thread([this, ready = std::move(ready)]() mutable {
            bool announced = false;
            service_.serve_socket(0, [&](std::uint16_t p) {
                announced = true;
                ready.set_value(p);
            });
            if (!announced) ready.set_value(0);
        });
        port_ = port.get();
        if (port_ == 0) {
            thread_.join();
            throw std::runtime_error("serve daemon failed to listen on a loopback port");
        }
    }
    ~Daemon() {
        service_.begin_drain();
        thread_.join();
    }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    std::uint16_t port() const noexcept { return port_; }

private:
    service::Service service_;
    std::uint16_t port_ = 0;
    std::thread thread_; ///< last: runs against service_
};

/// One client connection; closes its socket on destruction.
class Connection {
public:
    explicit Connection(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
        if (fd_ < 0) throw std::runtime_error("socket() failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
            ::close(fd_);
            throw std::runtime_error(std::string("connect to the daemon failed: ") + std::strerror(errno));
        }
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    ~Connection() { ::close(fd_); }
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    int fd() const noexcept { return fd_; }

    void send_line(const std::string& line) {
        const std::string framed = line + "\n";
        std::size_t done = 0;
        while (done < framed.size()) {
            const ssize_t n = ::send(fd_, framed.data() + done, framed.size() - done, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) throw std::runtime_error("send to the daemon failed");
            done += static_cast<std::size_t>(n);
        }
    }

    /// Appends whatever is readable now; false once the peer closed.
    bool read_available() {
        char chunk[65536];
        for (;;) {
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
            if (n > 0) {
                buffer_.append(chunk, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && errno == EINTR) continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
            return false;
        }
    }

    /// Pops one complete line from the receive buffer. Consumed bytes are
    /// dropped only once the buffer is drained, so a burst of replies costs
    /// one pass instead of one front-erase per line.
    bool pop_line(std::string& line) {
        const auto nl = buffer_.find('\n', head_);
        if (nl == std::string::npos) {
            buffer_.erase(0, head_);
            head_ = 0;
            return false;
        }
        line.assign(buffer_, head_, nl - head_);
        head_ = nl + 1;
        return true;
    }

    /// Blocking request/response exchange (set-up and metrics only).
    std::string exchange(const std::string& line) {
        send_line(line);
        std::string reply;
        while (!pop_line(reply)) {
            pollfd p{fd_, POLLIN, 0};
            if (::poll(&p, 1, 30000) <= 0 || !read_available())
                throw std::runtime_error("daemon did not answer");
        }
        return reply;
    }

private:
    int fd_;
    std::string buffer_;
    std::size_t head_ = 0; ///< start of the unread part of buffer_
};

struct Session {
    std::unique_ptr<Daemon> daemon;
    std::vector<std::unique_ptr<Connection>> connections;
};

/// Connections of the load, and runner threads per daemon session: every
/// connection is a session that may run `threads` workers at once, and the
/// generator needs a core of its own, so connections x threads + 1 stays
/// within nproc (a late generator would distort every latency).
std::pair<std::size_t, std::size_t> load_shape(const json::Value& workload, const Options& options) {
    const std::size_t connections =
        clamp_threads(static_cast<std::size_t>(workload.find("connections")->as_number()), options);
    const std::size_t spare = options.nproc > connections ? (options.nproc - 1) / connections : 1;
    const std::size_t threads = std::clamp<std::size_t>(
        static_cast<std::size_t>(workload.find("threads")->as_number()), 1, std::max<std::size_t>(1, spare));
    return {connections, threads};
}

Session start_session(const json::Value& workload, const Options& options) {
    const auto [connections, threads] = load_shape(workload, options);
    service::ServiceOptions so;
    so.threads = threads;
    so.cache_topologies = static_cast<std::size_t>(workload.find("cache_topologies")->as_number());
    // No admission cap: overload must show as latency for the capacity
    // ladder to measure; a refused request would be a failed operation.
    so.max_pending = 0;
    Session s;
    s.daemon = std::make_unique<Daemon>(so);
    for (std::size_t c = 0; c < connections; ++c) {
        s.connections.push_back(std::make_unique<Connection>(s.daemon->port()));
        const auto reply = json::parse(s.connections.back()->exchange("{\"id\":\"ping\",\"method\":\"ping\"}"));
        if (reply.find("status")->as_string() != "ok") throw std::runtime_error("daemon ping failed");
    }
    return s;
}

// -------------------------------------------------------------- generator

struct Request {
    std::size_t entry = 0;
    std::string id;
    double sched_s = 0.0;
    double sent_s = 0.0;
    double recv_s = -1.0;
    std::string response;
};

struct Phase {
    std::string name;
    double rate = 0.0;
    std::vector<Request> requests;
    double duration_s = 0.0;

    std::vector<double> latencies_ms() const {
        std::vector<double> out;
        for (const Request& r : requests)
            if (r.recv_s >= 0.0) out.push_back((r.recv_s - r.sched_s) * 1000.0);
        return out;
    }
    double late_ms_p99() const {
        std::vector<double> late;
        for (const Request& r : requests) late.push_back((r.sent_s - r.sched_s) * 1000.0);
        return late.empty() ? 0.0 : percentile(late, 99.0);
    }
    std::size_t answered() const {
        return static_cast<std::size_t>(std::count_if(requests.begin(), requests.end(),
                                                      [](const Request& r) { return r.recv_s >= 0.0; }));
    }
    double latency_p(double p) const {
        const auto l = latencies_ms();
        return l.empty() ? 0.0 : percentile(l, p);
    }
    /// Median over consecutive blocks of `block` requests of each block's
    /// p-th latency percentile: a disturbed stretch of the phase (a host
    /// stall, heavy requests bunched by the arrival process) moves one
    /// block, not the estimate. The whole phase when it is one block.
    double block_latency_p(double p, std::size_t block) const {
        std::vector<double> per_block;
        for (std::size_t b = 0; b + block <= requests.size(); b += block) {
            std::vector<double> l;
            for (std::size_t i = b; i < b + block; ++i)
                if (requests[i].recv_s >= 0.0) l.push_back((requests[i].recv_s - requests[i].sched_s) * 1000.0);
            if (!l.empty()) per_block.push_back(percentile(l, p));
        }
        return per_block.empty() ? latency_p(p) : median(per_block);
    }
    /// Completion rate: median over consecutive runs of `block` replies of
    /// block / (time between their first and last reply).
    double block_throughput(std::size_t block) const {
        std::vector<double> done;
        for (const Request& r : requests)
            if (r.recv_s >= 0.0) done.push_back(r.recv_s);
        std::sort(done.begin(), done.end());
        std::vector<double> rates;
        for (std::size_t b = 0; b + block < done.size(); b += block)
            if (done[b + block] > done[b]) rates.push_back(static_cast<double>(block) / (done[b + block] - done[b]));
        return rates.empty() ? static_cast<double>(done.size()) / duration_s : median(rates);
    }
};

/// Runs one phase. Open loop (window 0): `stream` requests at Poisson
/// `rate`, each timed from its scheduled send. Closed loop (window > 0):
/// every connection keeps `window` requests outstanding, each timed from
/// its actual send — the saturation throughput probe. Either way the phase
/// waits up to `drain_s` after the last send for the replies.
Phase run_phase(Session& session, const std::vector<Entry>& catalog, const std::string& name,
                const std::vector<std::size_t>& stream, double rate, std::size_t window,
                double drain_s, Rng& rng) {
    Phase phase;
    phase.name = name;
    phase.rate = rate;
    const auto offsets = window ? std::vector<double>(stream.size(), 0.0)
                                : poisson_schedule(rate, stream.size(), rng);
    phase.requests.resize(stream.size());
    std::vector<std::string> lines(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        Request& r = phase.requests[i];
        r.entry = stream[i];
        r.id = name + "-" + std::to_string(i);
        r.sched_s = offsets[i];
        lines[i] = request_line(r.id, catalog[r.entry]);
    }
    auto& conns = session.connections;
    std::vector<std::deque<std::size_t>> fifo(conns.size());
    std::vector<pollfd> fds(conns.size());
    for (std::size_t c = 0; c < conns.size(); ++c) fds[c] = {conns[c]->fd(), POLLIN, 0};

    const auto t0 = Clock::now();
    double last_send_s = 0.0;
    std::size_t next = 0, answered = 0;
    std::string line;
    const auto send = [&](std::size_t c, double now_s) {
        conns[c]->send_line(lines[next]);
        Request& r = phase.requests[next];
        r.sent_s = seconds_since(t0);
        if (window) r.sched_s = now_s;
        last_send_s = r.sent_s;
        fifo[c].push_back(next++);
    };
    while (answered < stream.size()) {
        double now_s = seconds_since(t0);
        if (window) {
            for (std::size_t c = 0; c < conns.size(); ++c)
                while (next < stream.size() && fifo[c].size() < window) send(c, now_s);
        } else {
            while (next < stream.size() && phase.requests[next].sched_s <= now_s) {
                // Join the shortest queue; on a tie, the connection whose
                // oldest unanswered request was sent last.
                const auto oldest_sent = [&](std::size_t k) {
                    return fifo[k].empty() ? now_s : phase.requests[fifo[k].front()].sent_s;
                };
                std::size_t c = 0;
                for (std::size_t k = 1; k < conns.size(); ++k)
                    if (fifo[k].size() < fifo[c].size() ||
                        (fifo[k].size() == fifo[c].size() && oldest_sent(k) > oldest_sent(c)))
                        c = k;
                send(c, now_s);
                now_s = seconds_since(t0);
            }
        }
        const double give_up_s = last_send_s + drain_s;
        if (next == stream.size() && now_s > give_up_s) break; // the rest count as missing
        // Sleep until a reply arrives or the next send is due. A busy-polling
        // generator would hold a whole vCPU that the daemon's threads
        // compete for on a shared host; the wake-up delay it saves (well
        // under a millisecond) is about the same in every run.
        const double wake_s = (!window && next < stream.size()) ? phase.requests[next].sched_s : give_up_s;
        const double wait_s = std::max(0.0, wake_s - now_s);
        const timespec timeout{static_cast<time_t>(wait_s),
                               static_cast<long>((wait_s - std::floor(wait_s)) * 1e9)};
        if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
        const double recv_s = seconds_since(t0);
        for (std::size_t c = 0; c < conns.size(); ++c) {
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
            const bool open = conns[c]->read_available();
            while (conns[c]->pop_line(line) && !fifo[c].empty()) {
                Request& r = phase.requests[fifo[c].front()];
                fifo[c].pop_front();
                r.recv_s = recv_s;
                r.response = std::move(line);
                ++answered;
            }
            if (!open) throw std::runtime_error("daemon closed a connection mid-phase");
        }
    }
    phase.duration_s = seconds_since(t0);
    return phase;
}

/// Checks every reply of a phase: matching id, ok status, and a report
/// byte-identical to the entry's in-process reference document.
void validate_phase(const Phase& phase, const std::vector<Entry>& catalog,
                    std::map<std::size_t, Reference>& refs, Report& report) {
    for (const Request& r : phase.requests) {
        ++report.attempted;
        if (r.recv_s < 0.0) {
            report.fail(r.id + ": no reply");
            continue;
        }
        try {
            const auto reply = json::parse(r.response);
            const json::Value* id = reply.find("id");
            const json::Value* status = reply.find("status");
            const json::Value* doc = reply.find("report");
            if (!id || id->as_string() != r.id) throw std::runtime_error("reply id mismatch");
            if (!status || status->as_string() != "ok" || !doc)
                throw std::runtime_error("error reply: " + r.response.substr(0, 200));
            auto it = refs.find(r.entry);
            if (it == refs.end()) it = refs.emplace(r.entry, make_reference(catalog[r.entry])).first;
            if (const auto diff = compare_documents(doc->as_string(), it->second.doc))
                throw std::runtime_error("report differs from the in-process document: " + *diff);
        } catch (const std::exception& e) {
            report.fail(r.id + ": " + e.what());
        }
    }
}

/// One series of the daemon's `metrics` verb document.
const json::Value* series(const json::Value& metrics, const std::string& family,
                          const std::string& verb = "") {
    for (const json::Value& f : metrics.find("families")->as_array()) {
        if (f.find("name")->as_string() != family) continue;
        for (const json::Value& s : f.find("series")->as_array()) {
            const json::Value* v = s.find("labels")->find("verb");
            if (verb.empty() || (v && v->as_string() == verb)) return &s;
        }
    }
    throw std::runtime_error("metrics document lacks " + family);
}

json::Value scrape_metrics(Session& session) {
    const auto reply = json::parse(session.connections.front()->exchange("{\"id\":\"m\",\"method\":\"metrics\"}"));
    return *reply.find("metrics");
}

std::size_t trace_requests(const json::Value& workload, const Options& options) {
    const auto n = static_cast<std::size_t>(workload.find("trace_requests")->as_number());
    return options.quick() ? n / 4 : n;
}

/// Requests of a phase: its share of the run at `rate`, capped, and
/// rounded down to whole blocks once it spans one, so every seed sends the
/// same multiset of heavy requests.
std::size_t phase_budget_count(const json::Value& workload, double rate, double seconds, double share) {
    const std::size_t block = block_size(workload);
    const auto count = static_cast<std::size_t>(std::max(
        20.0, std::min(workload.find("phase_requests")->as_number(), std::floor(rate * seconds * share))));
    return count >= block ? count / block * block : count;
}

} // namespace

// --------------------------------------------------------------- workload

void run_serve_mixed(const Options& options, const json::Value& config, Report& report) {
    const json::Value& workload = *config.find("serve-mixed");
    const auto num = [&](const char* key) { return workload.find(key)->as_number(); };
    const std::vector<Entry> catalog = build_catalog(workload);
    const std::size_t repeats = static_cast<std::size_t>(config.find("setup_repeats")->as_number());

    if (options.trace) {
        // In-process replay of the low-rate stream through the daemon's
        // public steps, each wrapped in a span.
        Rng rng(options.seed);
        const auto stream = make_stream(catalog, workload, trace_requests(workload, options), rng);
        std::map<std::size_t, Reference> refs;
        for (const std::size_t e : stream)
            if (!refs.count(e)) refs.emplace(e, make_reference(catalog[e]));
        // Every pass starts from an empty cache and graph table, as the
        // daemon did, so untraced and traced passes do the same work.
        std::optional<portfolio::TopologyCache> cache;
        double evaluations = 0.0;
        std::size_t maps = 0;
        std::uint64_t op = 0;
        Graphs graphs;
        traced_replay(options, [&](Tracer* t) {
            graphs.clear();
            cache.emplace(nocmap::noc::EnergyModel{}, static_cast<std::size_t>(num("cache_topologies")));
            for (std::size_t i = 0; i < stream.size(); ++i) {
                std::vector<portfolio::ScenarioResult> results;
                std::string doc;
                {
                    const SpanScope root(t, "op", -1, op);
                    service::Request request;
                    {
                        const SpanScope span(t, "parse", root.index(), op);
                        request = service::parse_request(request_line("t" + std::to_string(i), catalog[stream[i]]));
                    }
                    std::vector<std::pair<std::string, std::shared_ptr<const CoreGraph>>> apps;
                    {
                        const SpanScope span(t, "load", root.index(), op);
                        apps = apps_of(request.map, graphs);
                    }
                    std::vector<portfolio::Scenario> grid;
                    {
                        const SpanScope span(t, "parse", root.index(), op);
                        grid = grid_of(request.map, apps);
                    }
                    results = run_grid_spanned(grid, *cache, t, root.index(), op);
                    {
                        const SpanScope span(t, "to_json", root.index(), op);
                        doc = report_document(results);
                    }
                    const SpanScope span(t, "encode", root.index(), op);
                    service::map_response(request.id, doc, cache->stats());
                }
                if (!t) continue;
                ++op;
                ++report.attempted;
                if (const auto diff = compare_documents(doc, refs.at(stream[i]).doc))
                    report.fail("replay " + std::to_string(i) + ": " + *diff);
                for (const auto& r : results) {
                    evaluations += static_cast<double>(r.result.evaluations);
                    ++maps;
                }
            }
        }, report);
        report.metric("engine.evaluations_per_map", maps ? evaluations / static_cast<double>(maps) : 0.0,
                      "count", maps);
        return;
    }

    // Set-up: daemon start, connections, one ping per connection, then one
    // request of each class so every code path and graph is warm.
    std::map<std::string, std::size_t> first_of_class;
    for (std::size_t e = catalog.size(); e-- > 0;) first_of_class[catalog[e].cls] = e;
    Session session;
    std::vector<double> setups;
    for (std::size_t i = 0; i < repeats; ++i) {
        session = Session{};
        const auto t0 = Clock::now();
        session = start_session(workload, options);
        for (const auto& [cls, e] : first_of_class) {
            const std::string reply = session.connections.front()->exchange(request_line("warm", catalog[e]));
            if (reply.find("\"status\": \"ok\"") == std::string::npos)
                throw std::runtime_error("warm-up request failed: " + reply.substr(0, 200));
        }
        setups.push_back(seconds_since(t0));
    }
    const double setup_s = median(setups);
    report.phase("setup", setup_s);

    // Phase sizes: fixed shares of the run, capped by the configured
    // request counts.
    Rng rng(options.seed);
    const double rate_low = num("rate_low"), rate_high = num("rate_high");
    const double drain_s = num("drain_s");
    const auto run = [&](const std::string& name, double rate, double share, std::size_t window = 0) {
        const std::size_t count = phase_budget_count(workload, rate, options.seconds, share);
        return run_phase(session, catalog, name, make_stream(catalog, workload, count, rng), rate, window,
                         drain_s, rng);
    };
    const auto t_measure = Clock::now();
    const double late_limit = num("lateness_limit_ms");
    std::vector<Phase> phases; // every phase run, all validated
    // A gated phase that the generator served late is invalid and measured
    // again once; only the last attempt counts.
    const auto gated = [&](const std::string& name, double rate, double share) {
        phases.push_back(run(name, rate, share));
        if (phases.back().late_ms_p99() > late_limit) phases.push_back(run(name + ".retry", rate, share));
        return phases.size() - 1;
    };
    phases.push_back(run("warmup", rate_low, num("share_warmup")));
    const std::size_t low_i = gated("low", rate_low, num("share_low"));
    const std::size_t high_i = gated("high", rate_high, num("share_high"));

    // SLO ladder (reported, not gated — see README): x1.08 steps from
    // `ladder_start` while p95 holds the limit and every request is
    // answered; the high rate stands when no step holds. A step the
    // generator served late ends the ladder without a verdict.
    const double slo = num("slo_p95_ms"), factor = num("ladder_factor");
    const auto step_ok = [&](const Phase& p) {
        return p.answered() == p.requests.size() && p.latency_p(95.0) <= slo &&
               p.late_ms_p99() <= late_limit;
    };
    double max_rps = step_ok(phases[high_i]) ? rate_high : 0.0;
    double rate = num("ladder_start");
    for (int k = 1; k <= static_cast<int>(num("ladder_steps")) && max_rps > 0.0; ++k, rate *= factor) {
        phases.push_back(run("ladder" + std::to_string(k), rate, num("share_ladder_step")));
        if (!step_ok(phases.back())) break;
        max_rps = rate;
    }
    // Saturation: a closed loop keeping `saturation_window` requests
    // outstanding per connection; its completion rate is the throughput.
    phases.push_back(run("saturation", num("saturation_rate"), num("share_saturation"),
                         static_cast<std::size_t>(num("saturation_window"))));
    const Phase& saturation = phases.back();
    const double throughput = saturation.block_throughput(block_size(workload));
    report.phase("measure", seconds_since(t_measure));
    const auto server = scrape_metrics(session);
    session = Session{};

    // Validation and lateness: every reply of every phase.
    const auto t_check = Clock::now();
    std::map<std::size_t, Reference> refs;
    for (const Phase& p : phases) {
        validate_phase(p, catalog, refs, report);
        if (&p == &saturation) continue; // closed loop: no schedule to be late for
        report.info("gen.late_ms_p99." + p.name, p.late_ms_p99(), "ms", p.requests.size());
    }
    for (const std::size_t i : {low_i, high_i})
        if (phases[i].late_ms_p99() > late_limit)
            report.fail("phase " + phases[i].name + " invalid twice: generator lateness p99 " +
                        std::to_string(phases[i].late_ms_p99()) + " ms");
    // Quality over the whole catalog (seed-independent) plus mapping checks.
    std::vector<double> costs, p99s;
    std::size_t scenarios = 0, feasible = 0;
    for (std::size_t e = 0; e < catalog.size(); ++e) {
        if (!refs.count(e)) refs.emplace(e, make_reference(catalog[e]));
        const Reference& ref = refs.at(e);
        for (const auto& r : ref.results) {
            ++scenarios;
            if (!r.ok) {
                report.fail(r.name + ": " + r.error);
                continue;
            }
            const auto& scenario = ref.grid[r.index];
            const auto topo = scenario.topology.build(scenario.graph->node_count());
            if (const auto err = check_result(*scenario.graph, topo, bfs_distances(topo), r.result,
                                              result_kind(r.mapper)))
                report.fail(r.name + ": " + *err);
            if (!r.result.feasible) continue;
            ++feasible;
            costs.push_back(r.result.comm_cost);
            if (r.sim.present) {
                if (r.sim.measured())
                    p99s.push_back(r.sim.p99_latency_cycles);
                else
                    report.fail(r.name + ": simulation did not measure");
            }
        }
    }
    report.phase("validate", seconds_since(t_check));

    const Phase& low = phases[low_i];
    const Phase& high = phases[high_i];
    const double tail_p = workload.find("tail_percentile")->as_number();
    report.metric("setup_s", setup_s, "s", repeats);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.metric("op_ms_p50", low.block_latency_p(50.0, block_size(workload)), "ms", low.answered());
    report.metric("op_ms_tail", high.block_latency_p(tail_p, block_size(workload)), "ms", high.answered());
    report.metric("ops_per_s", throughput, "1/s", saturation.answered());
    report.metric("comm_cost_geomean", geomean(costs), "hop.MB/s", costs.size());
    report.metric("feasible_share", static_cast<double>(feasible) / static_cast<double>(scenarios),
                  "share", scenarios);
    report.metric("sim_p99_cycles_geomean", geomean(p99s), "cycles", p99s.size());

    for (const Phase* p : {&low, &high}) {
        for (const double q : {50.0, 95.0, 99.0})
            report.info("p" + std::to_string(static_cast<int>(q)) + "_ms." + p->name, p->latency_p(q), "ms",
                        p->answered());
        report.info("rate." + p->name, p->rate, "1/s", p->requests.size());
    }
    report.info("max_rps_slo", max_rps, "1/s", 1);
    const auto [connections, threads] = load_shape(workload, options);
    report.info("connections", static_cast<double>(connections), "count", 1);
    report.info("daemon_threads", static_cast<double>(threads), "count", 1);
    for (std::size_t i = high_i + 1; i + 1 < phases.size(); ++i)
        report.info("p95_ms." + phases[i].name + "@" + std::to_string(static_cast<int>(phases[i].rate)),
                    phases[i].latency_p(95.0), "ms", phases[i].answered());
    const double server_p50 = series(server, "nocmap_request_latency_ms", "map")->find("p50")->as_number();
    report.info("server.map_ms_p50", server_p50, "ms", 1);
    report.info("server.map_ms_p99",
                series(server, "nocmap_request_latency_ms", "map")->find("p99")->as_number(), "ms", 1);
    report.info("server.cache_evictions", series(server, "nocmap_cache_evictions_total")->find("value")->as_number(),
                "count", 1);
    report.info("server.cache_hits", series(server, "nocmap_cache_hits_total")->find("value")->as_number(), "count", 1);

    // Mix shape: count share of light requests and busy-time share of the
    // heavy ones, from the in-process reference service times.
    std::map<std::string, double> count, busy;
    for (const Phase& p : phases)
        for (const Request& r : p.requests) {
            count[catalog[r.entry].cls] += 1.0;
            busy[catalog[r.entry].cls] += refs.at(r.entry).ms;
        }
    double total_count = 0.0, total_busy = 0.0;
    for (const auto& [cls, n] : count) {
        total_count += n;
        report.info("mix.service_ms." + cls, busy[cls] / n, "ms", static_cast<std::size_t>(n));
    }
    for (const auto& [cls, ms] : busy) total_busy += ms;
    report.info("mix.light_count_share", count["light"] / total_count, "share", static_cast<std::size_t>(total_count));
    report.info("mix.heavy_busy_share", 1.0 - busy["light"] / total_busy, "share",
                static_cast<std::size_t>(total_count));
}

void run_service_kernels(const Options& options, const json::Value& config, Report& report) {
    const json::Value& workload = *config.find("serve-mixed");
    const std::vector<Entry> catalog = build_catalog(workload);
    const std::size_t count = trace_requests(workload, options);
    Rng rng(options.seed);
    const auto stream = make_stream(catalog, workload, count, rng);
    std::map<std::size_t, Reference> refs;
    for (const std::size_t e : stream)
        if (!refs.count(e)) refs.emplace(e, make_reference(catalog[e]));

    // Protocol codec, cache, scalarization and serialization, one request
    // of the stream at a time.
    portfolio::TopologyCache cache({}, static_cast<std::size_t>(workload.find("cache_topologies")->as_number()));
    double parse_us = 0.0, get_ms = 0.0, scalarize_us = 0.0, json_us = 0.0, encode_us = 0.0;
    std::size_t gets = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const std::string line = request_line("k" + std::to_string(i), catalog[stream[i]]);
        auto t0 = Clock::now();
        const service::Request request = service::parse_request(line);
        parse_us += ms_between(t0, Clock::now()) * 1000.0;
        const Reference& ref = refs.at(stream[i]);
        for (const portfolio::Scenario& s : ref.grid) {
            t0 = Clock::now();
            cache.get(s.topology, s.graph->node_count());
            get_ms += ms_between(t0, Clock::now());
            ++gets;
        }
        auto results = ref.results;
        t0 = Clock::now();
        portfolio::PortfolioRunner::scalarize(results, portfolio::ScalarizationWeights{});
        scalarize_us += ms_between(t0, Clock::now()) * 1000.0;
        t0 = Clock::now();
        const std::string doc = report_document(results);
        json_us += ms_between(t0, Clock::now()) * 1000.0;
        t0 = Clock::now();
        const std::string response = service::map_response(request.id, doc, cache.stats());
        encode_us += ms_between(t0, Clock::now()) * 1000.0;
        if (const auto diff = compare_documents(doc, ref.doc)) report.fail("kernel scalarize: " + *diff);
    }
    const double n = static_cast<double>(stream.size());
    report.metric("service.parse_request_us", parse_us / n, "us", stream.size());
    report.metric("portfolio.cache_get_ms", get_ms / static_cast<double>(gets), "ms", gets);
    report.metric("portfolio.scalarize_us", scalarize_us / n, "us", stream.size());
    report.metric("portfolio.to_json_us", json_us / n, "us", stream.size());
    report.metric("service.map_response_us", encode_us / n, "us", stream.size());

    // The daemon itself: the same stream, open loop at the low rate.
    Session session = start_session(workload, options);
    const double rate = workload.find("rate_low")->as_number();
    const Phase phase =
        run_phase(session, catalog, "kernel", stream, rate, 0, workload.find("drain_s")->as_number(), rng);
    const auto m = scrape_metrics(session);
    session = Session{};
    validate_phase(phase, catalog, refs, report);

    const json::Value* latency = series(m, "nocmap_request_latency_ms", "map");
    const json::Value* batch = series(m, "nocmap_batch_requests");
    const double server_p50 = latency->find("p50")->as_number();
    const double hits = series(m, "nocmap_cache_hits_total")->find("value")->as_number();
    const double misses = series(m, "nocmap_cache_misses_total")->find("value")->as_number();
    const std::size_t answered = phase.answered();
    report.metric("service.server_ms_p50", server_p50, "ms", answered);
    report.metric("service.server_ms_p99", latency->find("p99")->as_number(), "ms", answered);
    report.metric("service.batch_requests_mean",
                  batch->find("sum")->as_number() / std::max(1.0, batch->find("count")->as_number()), "count", answered);
    report.metric("service.scenario_ms_p50",
                  series(m, "nocmap_scenario_latency_ms")->find("p50")->as_number(), "ms", answered);
    report.metric("service.rejected", series(m, "nocmap_requests_rejected_total")->find("value")->as_number(),
                  "count", answered);
    report.metric("service.queue_wait_ms_p50", phase.latency_p(50.0) - server_p50, "ms", answered);
    report.metric("portfolio.cache_hit_share", hits / std::max(1.0, hits + misses), "share",
                  static_cast<std::size_t>(hits + misses));
    report.metric("portfolio.cache_evictions", series(m, "nocmap_cache_evictions_total")->find("value")->as_number(),
                  "count", static_cast<std::size_t>(hits + misses));
}

} // namespace bench
