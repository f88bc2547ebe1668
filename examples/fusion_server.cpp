// fusion_server: the fusion service behind a TCP wire (net/server.hpp).
//
// Binds a loopback TCP endpoint speaking the length-prefixed frame protocol
// (net/frame.hpp, spec in docs/service.md), runs each admitted request on a
// persistent worker pool through svc::FusionService::run_job, replying as
// soon as that job's verdict exists, and defends every edge: per-tenant
// quotas, queue-depth shedding, slow-loris timeouts, bounded connections,
// and the net.* fault points for drills. With --store the plan cache gains
// its crash-safe persistent tier, so a kill -9 loses no admitted plan.
//
// Examples:
//   fusion_server --port 0 --port-file /tmp/port --store /tmp/plans
//   LF_FAULT=net.torn_response fusion_server --port 7070
//   fusion_server --selftest            # in-process loopback smoke, exit 0
//
// Runs until SIGINT/SIGTERM, then stops gracefully and prints a stats JSON
// to stdout. Exit code 0 on a clean stop.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "net/client.hpp"
#include "net/server.hpp"
#include "support/json.hpp"
#include "workloads/sources.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

void usage() {
    std::cout <<
        "usage: fusion_server [options]\n"
        "  --host A           IPv4 address to bind (default 127.0.0.1)\n"
        "  --port N           TCP port; 0 = kernel-assigned (default 0)\n"
        "  --port-file FILE   write the bound port here (for scripts)\n"
        "  --workers N        worker threads, one job each at a time (default 4)\n"
        "  --store DIR        persistent plan-tier directory (default: off)\n"
        "  --checkpoint FILE  service checkpoint manifest (default: off)\n"
        "  --cache N          plan-cache capacity (default 128)\n"
        "  --plan-policy P    planning objective: fastest (default) or smallest\n"
        "  --deadline-ms D    service-wide per-job deadline (default unlimited)\n"
        "  --max-conns N      connection cap (default 64)\n"
        "  --max-inflight N   admitted-job cap before shedding (default 256)\n"
        "  --quota-rate R     per-tenant tokens/sec; 0 disables quotas (default 0)\n"
        "  --quota-burst B    per-tenant burst size (default 8)\n"
        "  --idle-ms T        idle connection timeout (default 5000)\n"
        "  --read-ms T        mid-frame slow-read timeout (default 2000)\n"
        "  --selftest         start, exercise loopback round trips, stop, exit\n"
        "  --help             this text\n";
}

void print_stats(const lf::net::Server& server) {
    const lf::net::ServerStats s = server.stats();
    const lf::svc::PlanCacheStats pc = server.plancache_stats();
    lf::json::Writer w;
    w.begin_object();
    w.key("server").begin_object();
    w.kv("accepted", s.accepted);
    w.kv("accept_faults", s.accept_faults);
    w.kv("rejected_connections", s.rejected_connections);
    w.kv("frames_in", s.frames_in);
    w.kv("pings", s.pings);
    w.kv("requests", s.requests);
    w.kv("responses_sent", s.responses_sent);
    w.kv("wire_errors", s.wire_errors);
    w.kv("bad_payloads", s.bad_payloads);
    w.kv("shed_quota", s.shed_quota);
    w.kv("shed_queue", s.shed_queue);
    w.kv("idle_timeouts", s.idle_timeouts);
    w.kv("read_timeouts", s.read_timeouts);
    w.kv("read_faults", s.read_faults);
    w.kv("write_faults", s.write_faults);
    w.kv("torn_responses", s.torn_responses);
    w.kv("jobs_admitted", s.jobs_admitted);
    w.kv("jobs_verified", s.jobs_verified);
    w.kv("jobs_quarantined", s.jobs_quarantined);
    w.end_object();
    w.key("plancache").begin_object();
    w.kv("hits", pc.hits);
    w.kv("misses", pc.misses);
    w.kv("insertions", pc.insertions);
    w.kv("disk_hits", pc.disk_hits);
    w.kv("disk_misses", pc.disk_misses);
    w.kv("disk_writes", pc.disk_writes);
    w.kv("disk_write_failures", pc.disk_write_failures);
    w.kv("disk_quarantined", pc.disk_quarantined);
    w.end_object();
    w.end_object();
    std::cout << w.str() << "\n";
}

/// In-process loopback exercise used as the CI smoke test: a DSL request,
/// a cache-hit repeat, a graph-only request, a ping, and a garbage frame
/// must all produce the documented outcomes.
int selftest(lf::net::Server& server) {
    using lf::net::BlockingClient;
    using lf::net::Frame;
    using lf::net::FrameType;
    using lf::net::PayloadKind;

    BlockingClient client;
    if (!client.connect("127.0.0.1", server.port())) {
        std::cerr << "selftest: connect failed: " << client.last_error() << "\n";
        return 1;
    }
    // Ping / pong.
    Frame ping;
    ping.type = FrameType::Ping;
    ping.request_id = 1;
    if (!client.send(ping)) return 1;
    auto r = client.recv();
    if (r.status != BlockingClient::RecvStatus::Ok || r.frame.type != FrameType::Pong) {
        std::cerr << "selftest: expected pong, got " << to_string(r.status) << "\n";
        return 1;
    }
    // Two identical DSL requests: both must verify; the repeat may be
    // served by the plan cache but the verdict is what matters here.
    for (int i = 0; i < 2; ++i) {
        Frame req;
        req.type = FrameType::Request;
        req.aux = static_cast<std::uint16_t>(PayloadKind::Dsl);
        req.request_id = 10 + static_cast<std::uint64_t>(i);
        req.tenant = "selftest";
        req.payload = std::string(lf::workloads::sources::kFig2);
        if (!client.send(req)) return 1;
        r = client.recv(30000);
        if (r.status != BlockingClient::RecvStatus::Ok || r.frame.type != FrameType::Response ||
            r.frame.aux != 1) {
            std::cerr << "selftest: request " << i << ": expected verified response, got "
                      << to_string(r.status) << " aux "
                      << (r.status == BlockingClient::RecvStatus::Ok ? r.frame.aux : 0) << "\n";
            return 1;
        }
    }
    // A request with an unknown payload kind must come back as a typed
    // Error frame, not a hang or a dropped connection without a word.
    Frame bad_kind;
    bad_kind.type = FrameType::Request;
    bad_kind.aux = 0;  // no such PayloadKind
    bad_kind.request_id = 99;
    BlockingClient bad;
    if (!bad.connect("127.0.0.1", server.port())) return 1;
    if (!bad.send(bad_kind)) return 1;
    r = bad.recv(30000);
    if (r.status != BlockingClient::RecvStatus::Ok || r.frame.type != FrameType::Error) {
        std::cerr << "selftest: bad payload kind should earn a typed Error frame\n";
        return 1;
    }
    std::cout << "selftest: ok\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    lf::net::ServerConfig config;
    std::string port_file;
    bool run_selftest = false;

    auto next_arg = [&](int& i) -> const char* {
        if (i + 1 >= argc) {
            std::cerr << "missing value for " << argv[i] << "\n";
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        if (std::strcmp(a, "--help") == 0) {
            usage();
            return 0;
        } else if (std::strcmp(a, "--host") == 0) {
            config.host = next_arg(i);
        } else if (std::strcmp(a, "--port") == 0) {
            config.port = static_cast<std::uint16_t>(std::stoi(next_arg(i)));
        } else if (std::strcmp(a, "--port-file") == 0) {
            port_file = next_arg(i);
        } else if (std::strcmp(a, "--workers") == 0) {
            config.service.workers = std::stoi(next_arg(i));
        } else if (std::strcmp(a, "--store") == 0) {
            config.service.plan_store_dir = next_arg(i);
        } else if (std::strcmp(a, "--checkpoint") == 0) {
            config.service.checkpoint_path = next_arg(i);
        } else if (std::strcmp(a, "--cache") == 0) {
            config.service.plan_cache_capacity = static_cast<std::size_t>(std::stoul(next_arg(i)));
        } else if (std::strcmp(a, "--plan-policy") == 0) {
            const std::string name = next_arg(i);
            const std::optional<lf::PlanPolicy> parsed = lf::parse_plan_policy(name);
            if (!parsed.has_value()) {
                std::cerr << "error: unknown plan policy '" << name << "' (fastest|smallest)\n";
                return 1;
            }
            config.service.plan_policy = *parsed;
        } else if (std::strcmp(a, "--deadline-ms") == 0) {
            config.service.retry.deadline_ms = std::stoll(next_arg(i));
        } else if (std::strcmp(a, "--max-conns") == 0) {
            config.max_connections = std::stoi(next_arg(i));
        } else if (std::strcmp(a, "--max-inflight") == 0) {
            config.max_inflight = std::stoi(next_arg(i));
        } else if (std::strcmp(a, "--quota-rate") == 0) {
            config.quota.refill_per_sec = std::stod(next_arg(i));
        } else if (std::strcmp(a, "--quota-burst") == 0) {
            config.quota.burst = std::stoi(next_arg(i));
        } else if (std::strcmp(a, "--idle-ms") == 0) {
            config.idle_timeout_ms = std::stoi(next_arg(i));
        } else if (std::strcmp(a, "--read-ms") == 0) {
            config.read_timeout_ms = std::stoi(next_arg(i));
        } else if (std::strcmp(a, "--selftest") == 0) {
            run_selftest = true;
        } else {
            std::cerr << "unknown option '" << a << "' (see --help)\n";
            return 2;
        }
    }

    lf::net::Server server(config);
    std::string error;
    if (!server.start(&error)) {
        std::cerr << "fusion_server: " << error << "\n";
        return 1;
    }
    std::cerr << "fusion_server: listening on " << config.host << ":" << server.port() << "\n";
    if (!port_file.empty()) {
        std::ofstream out(port_file);
        out << server.port() << "\n";
    }

    if (run_selftest) {
        const int rc = selftest(server);
        server.stop();
        print_stats(server);
        return rc;
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    while (g_stop == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::cerr << "fusion_server: stopping\n";
    server.stop();
    print_stats(server);
    return 0;
}
