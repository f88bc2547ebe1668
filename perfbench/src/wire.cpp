// wire_gallery and wire_large: closed-loop clients against fusion_server
// running in its own process on loopback.
//
// The server is the repository's fusion_server binary, started with
// fork + exec; it reports its kernel-assigned port on its stderr, which the
// benchmark reads from a pipe (no port file, no fixed sleep). Set-up is the
// time from spawning the server until its warm-up pass has been answered,
// repeated several times per run with a fresh server (and a fresh plan
// store) each time; the reported setup_s is the median. The last server
// stays up for the timed phase. peak_rss_mb is the server's VmHWM.
//
// The traced pass replays each distinct input through the same public
// functions the server calls, in this process, with a FusionService
// configured like the server.

#include "workloads.hpp"

#include <csignal>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/dependence.hpp"
#include "front/parse.hpp"
#include "fusion/certify.hpp"
#include "fusion/driver.hpp"
#include "fusion/multidim.hpp"
#include "graph/solver_workspace.hpp"
#include "ldg/serialization.hpp"
#include "net/client.hpp"
#include "svc/gate.hpp"
#include "svc/manifest.hpp"
#include "svc/planstore.hpp"
#include "svc/service.hpp"
#include "support/rng.hpp"
#include "workloads/generators.hpp"

namespace pb {

namespace {

using lf::net::BlockingClient;
using lf::net::Frame;
using lf::net::FrameType;
using lf::net::PayloadKind;

constexpr int kSetupRepeats = 5;
constexpr int kServerWorkers = 2;
constexpr int kReplyTimeoutMs = 30'000;
constexpr int kPings = 400;

// ---------------------------------------------------------------------------
// The server process.

class ServerProcess {
  public:
    ServerProcess(const std::string& binary, const std::vector<std::string>& extra) {
        std::vector<std::string> args = {binary, "--port", "0", "--workers",
                                         std::to_string(kServerWorkers)};
        args.insert(args.end(), extra.begin(), extra.end());
        std::vector<char*> argv;
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);

        int out[2];
        int err[2];
        if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
        if (::pipe2(err, O_CLOEXEC) != 0) {
            ::close(out[0]);
            ::close(out[1]);
            throw std::runtime_error("pipe failed");
        }
        pid_ = ::fork();
        if (pid_ == 0) {
            // The server dies with the benchmark, whatever ends it.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            ::dup2(out[1], STDOUT_FILENO);
            ::dup2(err[1], STDERR_FILENO);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        ::close(out[1]);
        ::close(err[1]);
        out_fd_ = out[0];
        err_fd_ = err[0];
        if (pid_ < 0) throw std::runtime_error("fork failed");

        // fusion_server announces "fusion_server: listening on HOST:PORT\n".
        const std::string marker = "listening on ";
        std::string text;
        std::size_t at = std::string::npos;
        std::size_t eol = std::string::npos;
        while ((at = text.find(marker)) == std::string::npos ||
               (eol = text.find('\n', at)) == std::string::npos) {
            if (!read_some(err_fd_, text)) {
                throw std::runtime_error("fusion_server did not announce a port: " + text);
            }
        }
        const std::size_t colon = text.rfind(':', eol);
        port_ = static_cast<std::uint16_t>(std::stoi(text.substr(colon + 1, eol - colon - 1)));
    }

    ~ServerProcess() {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        if (out_fd_ >= 0) ::close(out_fd_);
        if (err_fd_ >= 0) ::close(err_fd_);
    }

    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;

    [[nodiscard]] std::uint16_t port() const { return port_; }
    [[nodiscard]] double rss_mb() const { return peak_rss_mb(pid_); }

    /// Graceful stop (SIGTERM). The server prints its stats to stdout on
    /// the way out; drain them so it never blocks on a full pipe.
    void stop() {
        ::kill(pid_, SIGTERM);
        std::string stats;
        while (read_some(out_fd_, stats)) {
        }
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            throw std::runtime_error("fusion_server did not stop cleanly");
        }
    }

  private:
    /// Appends what `fd` has within the timeout; false on EOF or timeout.
    static bool read_some(int fd, std::string& into) {
        pollfd p{fd, POLLIN, 0};
        if (::poll(&p, 1, kReplyTimeoutMs) <= 0) return false;
        char buf[4096];
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n <= 0) return false;
        into.append(buf, static_cast<std::size_t>(n));
        return true;
    }

    pid_t pid_ = -1;
    int out_fd_ = -1;
    int err_fd_ = -1;
    std::uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// Inputs and the wire exchange.

struct WireInput {
    std::string name;
    PayloadKind kind = PayloadKind::Dsl;
    std::string payload;
};

/// One scheduled request: which input, which cache outcome the design
/// demands ('m' miss, 'h' hit, 0 = not checked), and whether it opens a
/// group (a connection stops only at a group boundary, so a timed phase
/// never ends between the copies of one wire_large graph).
struct Op {
    std::uint32_t input = 0;
    char expect = 0;
    bool opens_group = true;
};

struct Reply {
    std::string why;  // empty = verified
    std::string cache;
};

/// The string value of `key` in the reply's JSON detail ("" if absent).
std::string json_field(const std::string& json, const std::string& key) {
    const std::string k = "\"" + key + "\":";
    const std::size_t at = json.find(k);
    if (at == std::string::npos) return {};
    const std::size_t open = json.find_first_not_of(" ", at + k.size());
    if (open == std::string::npos || json[open] != '"') return {};
    const std::size_t close = json.find('"', open + 1);
    return close == std::string::npos ? std::string{} : json.substr(open + 1, close - open - 1);
}

Reply exchange(BlockingClient& c, const WireInput& in, std::uint64_t request_id) {
    Frame req;
    req.type = FrameType::Request;
    req.aux = static_cast<std::uint16_t>(in.kind);
    req.request_id = request_id;
    req.tenant = "bench";
    req.payload = in.payload;
    Reply r;
    if (!c.send(req)) {
        r.why = in.name + ": send failed: " + c.last_error();
        return r;
    }
    const BlockingClient::Recv got = c.recv(kReplyTimeoutMs);
    if (got.status != BlockingClient::RecvStatus::Ok) {
        r.why = in.name + ": " + lf::net::to_string(got.status);
        return r;
    }
    const Frame& f = got.frame;
    if (f.type != FrameType::Response || f.aux != 1 || f.request_id != request_id ||
        json_field(f.payload, "status") != "verified") {
        r.why = in.name + ": not a verified response (type " +
                std::to_string(static_cast<int>(f.type)) + ", aux " + std::to_string(f.aux) +
                "): " + f.payload;
        return r;
    }
    r.cache = json_field(f.payload, "cache");
    return r;
}

// ---------------------------------------------------------------------------
// Closed-loop timed phase.

struct ConnResult {
    std::vector<double> latencies_ms;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::int64_t hits = 0;
    std::string first_failure;
    Trace trace{false};
};

struct LoopResult {
    std::vector<double> latencies_ms;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::int64_t hits = 0;
    std::string first_failure;
    double seconds = 0;
    bool exhausted = false;  // a connection ran out of scheduled inputs
    Trace trace{false};      // the client threads' spans, merged
};

/// One client thread per connection; each sends its next request only after
/// the previous reply arrived, until `seconds` pass or its schedule ends.
LoopResult closed_loop(std::uint16_t port, const std::vector<WireInput>& inputs,
                       const std::vector<std::vector<Op>>& schedules, double seconds,
                       bool trace, Clock::time_point origin) {
    std::vector<ConnResult> per(schedules.size());
    std::vector<std::thread> threads;
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    for (std::size_t c = 0; c < schedules.size(); ++c) {
        threads.emplace_back([&, c] {
            ConnResult& r = per[c];
            r.trace = Trace(trace, origin);
            BlockingClient client;
            if (!client.connect("127.0.0.1", port)) {
                ++r.attempted;
                ++r.failed;
                r.first_failure = "connect failed: " + client.last_error();
                return;
            }
            for (std::size_t i = 0; i < schedules[c].size(); ++i) {
                const Op& op = schedules[c][i];
                if (op.opens_group && Clock::now() >= deadline) break;
                const std::uint64_t rid = (static_cast<std::uint64_t>(c) << 32) | i;
                ++r.attempted;
                const Clock::time_point a = Clock::now();
                Reply reply;
                {
                    const Scope s(r.trace, "wire.request", rid);
                    reply = exchange(client, inputs[op.input], rid);
                }
                const double ms = seconds_between(a, Clock::now()) * 1e3;
                if (reply.why.empty() && op.expect != 0 &&
                    reply.cache != (op.expect == 'h' ? "hit" : "miss")) {
                    reply.why = inputs[op.input].name + ": cache " + reply.cache +
                                ", designed " + (op.expect == 'h' ? "hit" : "miss");
                }
                if (!reply.why.empty()) {
                    ++r.failed;
                    if (r.first_failure.empty()) r.first_failure = reply.why;
                    if (!client.connected()) break;
                    continue;
                }
                if (reply.cache == "hit") ++r.hits;
                r.latencies_ms.push_back(ms);
            }
        });
    }
    for (std::thread& t : threads) t.join();
    LoopResult out;
    out.seconds = seconds_between(t0, Clock::now());
    out.trace = Trace(trace, origin);
    for (std::size_t c = 0; c < per.size(); ++c) {
        const ConnResult& r = per[c];
        out.latencies_ms.insert(out.latencies_ms.end(), r.latencies_ms.begin(),
                                r.latencies_ms.end());
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.hits += r.hits;
        if (out.first_failure.empty()) out.first_failure = r.first_failure;
        out.trace.merge(r.trace);
        if (static_cast<std::size_t>(r.attempted) >= schedules[c].size()) out.exhausted = true;
    }
    return out;
}

// ---------------------------------------------------------------------------
// Set-up, timed phase and pings against a live server.

struct WireWorkload {
    std::string name;
    std::vector<WireInput> inputs;
    /// Inputs the warm-up pass sends, in order; each must verify.
    std::vector<std::uint32_t> warm;
    std::vector<std::vector<Op>> schedules;
    bool store = false;
    /// Time spent generating the inputs (outside set-up and the timing).
    double generate_s = 0;
};

/// Spawns a server, sends the warm-up pass, and returns the ready server.
std::unique_ptr<ServerProcess> start_ready(const WireWorkload& w, const RunArgs& args,
                                           const RunDir& dir, int incarnation) {
    std::vector<std::string> extra;
    if (w.store) extra = {"--store", dir.sub("store" + std::to_string(incarnation))};
    auto server = std::make_unique<ServerProcess>(args.bindir + "/fusion_server", extra);
    BlockingClient client;
    if (!client.connect("127.0.0.1", server->port())) {
        throw std::runtime_error("warm-up connect failed: " + client.last_error());
    }
    std::uint64_t rid = 1;
    for (const std::uint32_t i : w.warm) {
        const Reply r = exchange(client, w.inputs[i], rid++);
        if (!r.why.empty()) throw std::runtime_error("warm-up: " + r.why);
    }
    return server;
}

struct Pass {
    LoopResult loop;
    int setups = 0;
    double setup_s = 0;
    double rss_mb = 0;
    std::vector<double> ping_us;
    Trace trace{false};
};

/// Set-up (`repeats` times, median), the timed closed loop, and with
/// tracing the ping round trips.
Pass run_pass(const WireWorkload& w, const RunArgs& args, const RunDir& dir, bool trace,
              int repeats, Clock::time_point origin) {
    Pass p;
    p.trace = Trace(trace, origin);
    std::vector<double> setups;
    std::unique_ptr<ServerProcess> server;
    for (int k = 0; k < repeats; ++k) {
        if (server) {
            server->stop();
            server.reset();
        }
        const Clock::time_point t0 = Clock::now();
        server = start_ready(w, args, dir, k + (trace ? repeats : 0));
        setups.push_back(seconds_between(t0, Clock::now()));
    }
    p.setups = repeats;
    p.setup_s = median(setups);
    p.loop = closed_loop(server->port(), w.inputs, w.schedules, args.pass_seconds(), trace, origin);
    p.rss_mb = server->rss_mb();
    if (trace) {
        BlockingClient c;
        if (!c.connect("127.0.0.1", server->port())) throw std::runtime_error("ping connect");
        for (int i = 0; i < kPings; ++i) {
            Frame ping;
            ping.type = FrameType::Ping;
            ping.request_id = static_cast<std::uint64_t>(i);
            const Clock::time_point a = Clock::now();
            const Scope s(p.trace, "net.ping", static_cast<std::uint64_t>(i));
            if (!c.send(ping)) throw std::runtime_error("ping send failed");
            const BlockingClient::Recv r = c.recv(kReplyTimeoutMs);
            if (r.status != BlockingClient::RecvStatus::Ok || r.frame.type != FrameType::Pong) {
                throw std::runtime_error("ping got no pong");
            }
            p.ping_us.push_back(seconds_between(a, Clock::now()) * 1e6);
        }
    }
    server->stop();
    return p;
}

std::vector<Metric> end_to_end(const Pass& p) {
    std::vector<Metric> m;
    m.push_back({"setup_s", p.setup_s, "s",
                 "median of " + std::to_string(p.setups) + " server starts + warm-up passes"});
    add_operation_metrics(m, p.loop.latencies_ms, p.loop.attempted, p.loop.failed,
                          p.loop.seconds);
    m.push_back({"peak_rss_mb", p.rss_mb, "MB", "fusion_server VmHWM"});
    return m;
}

// ---------------------------------------------------------------------------
// In-process replay of the server's layers (traced pass only).

/// Sizes the replay recorded for one input.
struct ReplaySizes {
    double payload_kb = 0;
    double store_kb = 0;
};

lf::svc::ServiceConfig server_like_config(const std::string& store_dir) {
    lf::svc::ServiceConfig cfg;
    cfg.workers = kServerWorkers;
    cfg.plan_store_dir = store_dir;
    return cfg;
}

/// Runs one input through the public functions the server's request path
/// calls. `service` must not have seen the input yet. Returns "" or why a
/// step did not verify.
std::string replay_input(const WireInput& in, std::uint64_t req, lf::svc::FusionService& service,
                         lf::PlannerWorkspace& ws, Trace& t, ReplaySizes& rs) {
    const Scope root(t, "replay", req);
    const int parent = root.id();
    const std::string id = "replay-" + std::to_string(req);
    lf::svc::JobSpec job;
    rs.payload_kb = static_cast<double>(in.payload.size()) / 1024.0;
    if (in.kind == PayloadKind::Mldg) {
        const Scope s(t, "ldg.parse_mldg", req, parent);
        job = lf::svc::job_from_mldg_text(id, in.payload);
    } else {
        // The server's job_from_dsl_text is parse_any_program + build_mldg;
        // time the two layers, then build the job itself untimed.
        std::optional<lf::front::AnyProgram> any;
        {
            const Scope s(t, "front.parse", req, parent);
            any = lf::front::parse_any_program(in.payload);
        }
        {
            const Scope s(t, "analysis.build_mldg", req, parent);
            if (any->is_2d()) {
                (void)lf::analysis::build_mldg(*any->p2);
            } else {
                (void)lf::analysis::build_mldg_nd(*any->pn);
            }
        }
        job = lf::svc::job_from_dsl_text(id, in.payload);
    }
    const lf::PlanOptions popts;
    std::string bytes;
    std::uint64_t key = 0;
    if (job.depth == 2) {
        {
            const Scope s(t, "svc.key_of", req, parent);
            key = lf::svc::PlanCache::key_of(job.graph, popts, true);
        }
        lf::TryPlanOptions topts;
        topts.workspace = &ws;
        std::optional<lf::Result<lf::FusionPlan>> plan;
        {
            const Scope s(t, "fusion.plan", req, parent);
            plan = lf::try_plan_fusion(job.graph, topts);
        }
        if (!plan->ok()) return in.name + ": replay plan failed";
        {
            const Scope s(t, "fusion.certify", req, parent);
            if (!lf::certify_plan(job.graph, plan->value())) return in.name + ": replay certify";
        }
        {
            const Scope s(t, "svc.gate", req, parent);
            if (!lf::svc::admit_plan(job, plan->value()).admitted) return in.name + ": replay gate";
        }
        {
            const Scope s(t, "svc.store_encode", req, parent);
            bytes = lf::svc::planstore::encode_file(key, plan->value());
        }
    } else {
        {
            const Scope s(t, "svc.key_of", req, parent);
            key = lf::svc::PlanCache::key_of_nd(job.graph_nd, popts, true);
        }
        std::optional<lf::NdFusionPlan> plan;
        {
            const Scope s(t, "fusion.plan", req, parent);
            plan = lf::plan_fusion_nd(job.graph_nd, &ws);
        }
        {
            const Scope s(t, "fusion.certify", req, parent);
            if (!lf::certify_plan(job.graph_nd, *plan)) return in.name + ": replay certify";
        }
        {
            const Scope s(t, "svc.gate", req, parent);
            if (!lf::svc::admit_plan_nd(job, *plan).admitted) return in.name + ": replay gate";
        }
        {
            const Scope s(t, "svc.store_encode", req, parent);
            bytes = lf::svc::planstore::encode_file_nd(key, *plan);
        }
    }
    rs.store_kb = static_cast<double>(bytes.size()) / 1024.0;
    {
        const Scope s(t, "svc.store_decode", req, parent);
        if (!lf::svc::planstore::decode_file(key, bytes).ok) return in.name + ": replay decode";
    }
    for (const char* which : {"svc.run_miss", "svc.run_hit"}) {
        std::optional<lf::svc::RunReport> rep;
        {
            const Scope s(t, which, req, parent);
            rep = service.run({job});
        }
        const lf::svc::JobRecord& rec = rep->jobs.front();
        const bool hit = std::strcmp(which, "svc.run_hit") == 0;
        if (rec.status != lf::svc::JobStatus::Verified ||
            rec.cache != (hit ? lf::svc::CacheOutcome::Hit : lf::svc::CacheOutcome::Miss)) {
            return in.name + ": replay " + which + " ended " + lf::svc::to_string(rec.status) +
                   "/" + lf::svc::to_string(rec.cache);
        }
    }
    return {};
}

struct ReplayResult {
    std::int64_t replays = 0;
    std::vector<double> payload_kb;
    std::vector<double> store_kb;
};

/// Replays `order` (input indices, repeats allowed) until done or
/// `seconds` pass; a fresh service (and store) whenever an input repeats,
/// so the first run of every replay is a miss.
ReplayResult replay(const std::vector<WireInput>& inputs, const std::vector<std::uint32_t>& order,
                    bool store, const RunDir& dir, double seconds, Trace& t, Outcome& out) {
    ReplayResult rr;
    lf::PlannerWorkspace ws;
    std::unique_ptr<lf::svc::FusionService> service;
    std::unordered_set<std::uint32_t> seen;
    int generation = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < order.size() && seconds_between(t0, Clock::now()) < seconds; ++k) {
        if (!service || seen.count(order[k]) != 0) {
            seen.clear();
            service.reset();
            const std::string sd = store ? dir.sub("replay-store" + std::to_string(generation++)) : "";
            service = std::make_unique<lf::svc::FusionService>(server_like_config(sd));
        }
        seen.insert(order[k]);
        ReplaySizes rs;
        ++out.attempted;
        ++rr.replays;
        const std::string why = replay_input(inputs[order[k]], k, *service, ws, t, rs);
        if (!why.empty()) {
            out.fail(why);
            continue;
        }
        rr.payload_kb.push_back(rs.payload_kb);
        rr.store_kb.push_back(rs.store_kb);
    }
    return rr;
}

// ---------------------------------------------------------------------------
// Shared by both wire workloads.

/// Appends the median self time of `span` as `name`, if any span ran.
void add_layer_median(std::vector<Metric>& out, const Trace& t, const char* span,
                      const char* name) {
    const std::vector<double> v = t.self_us(span);
    if (v.empty()) return;
    out.push_back({name, median(v), "us",
                   "median self time of " + std::string(span) + ", n=" + std::to_string(v.size())});
}

Outcome run_wire(const WireWorkload& w, const RunArgs& args,
                 const std::vector<std::uint32_t>& replay_order) {
    Outcome out;
    RunDir dir(args.workdir);
    const Clock::time_point origin = Clock::now();
    const Pass plain = run_pass(w, args, dir, false, kSetupRepeats, origin);
    out.attempted = plain.loop.attempted;
    out.failed = plain.loop.failed;
    out.first_failure = plain.loop.first_failure;
    out.end_to_end = end_to_end(plain);
    out.report.push_back(w.name + ": " + std::to_string(plain.loop.hits) + " cache hits of " +
                         std::to_string(plain.loop.latencies_ms.size()) + " verified replies" +
                         (plain.loop.exhausted ? "; a connection used up its inputs" : ""));
    out.report.push_back(w.name + ": " + std::to_string(w.inputs.size()) +
                         " distinct inputs generated in " + std::to_string(w.generate_s) + " s");
    if (!args.trace) return out;

    Pass traced = run_pass(w, args, dir, true, 1, origin);
    out.attempted += traced.loop.attempted;
    out.failed += traced.loop.failed;
    if (out.first_failure.empty()) out.first_failure = traced.loop.first_failure;
    out.traced_end_to_end = end_to_end(traced);

    Trace rt(true, origin);
    const ReplayResult rr = replay(w.inputs, replay_order, w.store, dir, args.pass_seconds(), rt, out);
    Trace& t = traced.trace;
    t.merge(traced.loop.trace);
    t.merge(rt);

    const double rtt = median(traced.ping_us);
    const double hit_us = median(t.self_us("svc.run_hit"));
    // What the server's reader does to a request before queueing it: the
    // parse layers, summed per replayed input.
    std::map<std::uint64_t, double> parse_by_input;
    for (const char* span : {"front.parse", "analysis.build_mldg", "ldg.parse_mldg"}) {
        for (const auto& [req, us] : t.self_times(span)) parse_by_input[req] += us;
    }
    std::vector<double> parse_us;
    for (const auto& [req, us] : parse_by_input) parse_us.push_back(us);
    const double p50_us = find_metric(out.end_to_end, "p50_ms")->value * 1e3;
    const std::int64_t ok = traced.loop.attempted - traced.loop.failed;
    out.per_layer = {
        {"net.rtt_us", rtt, "us", "median Ping round trip, n=" + std::to_string(kPings)},
        {"net.queue_wait_us", p50_us - rtt - median(parse_us) - hit_us, "us",
         "derived: p50_ms - net.rtt_us - median request parse - svc.run_hit_us"},
        {"net.fail_frac",
         traced.loop.attempted > 0 ? static_cast<double>(traced.loop.failed) /
                                         static_cast<double>(traced.loop.attempted)
                                   : 0.0,
         "frac", "base: " + std::to_string(traced.loop.attempted) + " requests sent"},
        {"ldg.payload_kb", median(rr.payload_kb), "KB",
         "median request payload, n=" + std::to_string(rr.payload_kb.size())},
        {"svc.store_kb", median(rr.store_kb), "KB", "median plan-file size per miss"},
        {"svc.cache_hit_frac",
         ok > 0 ? static_cast<double>(traced.loop.hits) / static_cast<double>(ok) : 0.0, "frac",
         "base: " + std::to_string(ok) + " verified replies"},
    };
    const std::pair<const char*, const char*> layers[] = {
        {"front.parse", "front.parse_us"},
        {"analysis.build_mldg", "analysis.build_mldg_us"},
        {"ldg.parse_mldg", "ldg.parse_mldg_us"},
        {"svc.key_of", "svc.key_of_us"},
        {"svc.run_hit", "svc.run_hit_us"},
        {"svc.run_miss", "svc.run_miss_us"},
        {"svc.gate", "svc.gate_us"},
        {"svc.store_encode", "svc.store_encode_us"},
        {"svc.store_decode", "svc.store_decode_us"},
        {"fusion.plan", "fusion.plan_us"},
        {"fusion.certify", "fusion.certify_us"},
    };
    for (const auto& [span, name] : layers) add_layer_median(out.per_layer, t, span, name);
    out.report.push_back("replayed " + std::to_string(rr.replays) +
                         " inputs in-process through the server's public calls");
    add_trace_overhead(out);
    write_spans(args, t, out);
    return out;
}

/// wire_gallery's distinct inputs, replayed round-robin.
std::vector<std::uint32_t> round_robin(std::size_t inputs, std::size_t rounds) {
    std::vector<std::uint32_t> v;
    for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t i = 0; i < inputs; ++i) v.push_back(static_cast<std::uint32_t>(i));
    }
    return v;
}

}  // namespace

Outcome run_wire_gallery(const RunArgs& args) {
    constexpr int kConnections = 4;
    // Far beyond the ~400 requests/s per connection measured today, so the
    // schedule never runs dry within the timed phase.
    const auto per_conn = static_cast<std::size_t>(args.pass_seconds() * 10'000) + 1;
    WireWorkload w;
    w.name = "wire_gallery";
    for (const lf::svc::JobSpec& job : lf::svc::full_gallery_jobs()) {
        WireInput in;
        in.name = job.id;
        if (job.dsl_source.empty()) {
            in.kind = PayloadKind::Mldg;
            in.payload = lf::serialize_mldg(job.graph, job.id);
        } else {
            in.payload = job.dsl_source;
        }
        w.inputs.push_back(std::move(in));
    }
    for (const lf::svc::JobSpec& job : lf::svc::nd_jobs()) {
        w.inputs.push_back({job.id, PayloadKind::Dsl, job.dsl_source});
    }
    for (std::uint32_t i = 0; i < w.inputs.size(); ++i) w.warm.push_back(i);
    for (int c = 0; c < kConnections; ++c) {
        std::mt19937_64 rng(mix(args.seed, static_cast<std::uint64_t>(c)));
        std::uniform_int_distribution<std::uint32_t> pick(
            0, static_cast<std::uint32_t>(w.inputs.size() - 1));
        std::vector<Op> ops(per_conn);
        for (Op& op : ops) op.input = pick(rng);
        w.schedules.push_back(std::move(ops));
    }
    return run_wire(w, args, round_robin(w.inputs.size(), 50));
}

Outcome run_wire_large(const RunArgs& args) {
    constexpr int kConnections = 2;
    constexpr std::size_t kWarmGraphs = 16;
    constexpr int kRepeats = 3;
    constexpr int kGenerators = 4;
    // Distinct graphs per connection: room for three times the ~250
    // requests/s measured today before a connection runs dry.
    const auto per_conn =
        static_cast<std::size_t>(args.pass_seconds() * 750 / kRepeats / kConnections) + 1;
    const std::size_t needed = kWarmGraphs + per_conn * kConnections;

    // Candidate j is a seeded random legal MLDG from stream j: 32..256
    // loops, forward 6/n and backward 2/n edge densities. Generated in
    // parallel, then taken in stream order, skipping any whose plan-cache
    // key repeats an earlier one.
    const Clock::time_point g0 = Clock::now();
    struct Candidate {
        std::uint64_t key = 0;
        std::string text;
    };
    std::vector<Candidate> cand(needed + needed / 50 + 8);
    std::vector<std::thread> gen;
    for (int t = 0; t < kGenerators; ++t) {
        gen.emplace_back([&, t] {
            for (std::size_t j = static_cast<std::size_t>(t); j < cand.size(); j += kGenerators) {
                lf::Rng rng(mix(args.seed, j));
                lf::workloads::RandomGraphOptions opt;
                opt.num_nodes = static_cast<int>(rng.uniform(32, 256));
                opt.forward_edge_prob = 6.0 / opt.num_nodes;
                opt.backward_edge_prob = 2.0 / opt.num_nodes;
                const lf::Mldg g = lf::workloads::random_legal_mldg(rng, opt);
                cand[j].key = lf::svc::PlanCache::key_of(g, {}, true);
                cand[j].text = lf::serialize_mldg(g, "g" + std::to_string(j));
            }
        });
    }
    for (std::thread& t : gen) t.join();

    WireWorkload w;
    w.name = "wire_large";
    w.store = true;
    std::unordered_set<std::uint64_t> keys;
    for (std::size_t j = 0; j < cand.size() && w.inputs.size() < needed; ++j) {
        if (!keys.insert(cand[j].key).second) continue;
        w.inputs.push_back({"g" + std::to_string(j), PayloadKind::Mldg, std::move(cand[j].text)});
    }
    if (w.inputs.size() < needed) throw std::runtime_error("too many duplicate graphs");
    for (std::uint32_t i = 0; i < kWarmGraphs; ++i) w.warm.push_back(i);
    std::vector<std::uint32_t> replay_order;
    w.schedules.resize(kConnections);
    for (std::uint32_t g = kWarmGraphs; g < w.inputs.size(); ++g) {
        replay_order.push_back(g);
        // One connection sends all three copies in a row: its closed loop
        // guarantees the first copy was answered before the next is sent,
        // so the design is exactly one miss then two hits.
        for (int r = 0; r < kRepeats; ++r) {
            w.schedules[g % kConnections].push_back({g, r == 0 ? 'm' : 'h', r == 0});
        }
    }
    w.generate_s = seconds_between(g0, Clock::now());
    return run_wire(w, args, replay_order);
}

}  // namespace pb
