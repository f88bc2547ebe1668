#pragma once
// TCP front end for the fusion service: the network edge of the claim that
// polynomial-time planning is cheap enough to run as an always-on service.
//
// One acceptor thread owns the listening socket; each accepted connection
// gets a reader thread that drives the strict frame decoder (net/frame.hpp)
// and turns each admitted request into a `svc::JobSpec` on a bounded queue.
// A persistent pool of `service.workers` threads drains that queue one job
// at a time: each worker keeps one PlannerWorkspace for its whole life,
// runs the job through svc::FusionService::run_job (which keeps its own
// retry / breaker / gate / cache / checkpoint machinery), and writes that
// job's Response the moment its verdict exists. No job waits for another
// job's verdict, so a slow plan never holds back a fast reply; responses
// on one connection may therefore arrive out of request order (clients
// match them by request_id).
//
// Every edge is defended, and every defense is observable in stats():
//
//   * bounded connection count -- over the cap, the client gets a typed
//     Shed frame (TooManyConnections + retry-after) and the socket closes;
//   * per-tenant token-bucket quotas -- an empty bucket sheds the request
//     (QuotaExceeded) with a retry-after hint derived from the refill rate;
//   * queue-depth load shedding -- more than `max_inflight` admitted jobs
//     sheds new requests (QueueFull) instead of letting latency collapse;
//   * wire-to-worker deadline propagation -- a Request's deadline_ms lands
//     in JobSpec::deadline_ms, where it combines (tighter wins) with the
//     service-wide RetryPolicy::deadline_ms;
//   * slow-loris defense -- connections idle longer than `idle_timeout_ms`,
//     or feeding a started frame slower than `read_timeout_ms`, are closed;
//   * malformed bytes -- the decoder's typed WireError goes back in an
//     Error frame and the (unsynchronizable) connection closes.
//
// Fault points (support/faultpoint.hpp), all storm-drill covered:
//   net.accept        accepted connection dropped immediately
//   net.read          connection read fails mid-stream
//   net.write         response write fails; connection closes
//   net.torn_response response cut off mid-frame; connection closes
//
// stop() is graceful: the acceptor dies first, then the readers, so no
// job is admitted after that; the workers then drain every admitted job
// (its verdict is counted and checkpointed even though its connection is
// gone) and exit. A SIGKILL instead of stop() is the crash the persistent
// plan tier and the checkpoint manifest exist for (svc/plancache.hpp,
// svc/report.hpp).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.hpp"
#include "svc/service.hpp"

namespace lf::net {

/// Per-tenant token bucket. refill_per_sec <= 0 disables quotas entirely.
struct TenantQuota {
    double refill_per_sec = 0.0;
    /// Bucket size: how many requests a tenant may burst before the refill
    /// rate governs.
    int burst = 8;
};

struct ServerConfig {
    /// Numeric IPv4 address to bind ("127.0.0.1" keeps the server loopback-
    /// only, which is the supported deployment for drills and tests).
    std::string host = "127.0.0.1";
    /// 0 = let the kernel pick; the bound port is Server::port().
    std::uint16_t port = 0;
    int max_connections = 64;
    /// Admitted-but-unanswered job cap; above it new requests shed.
    int max_inflight = 256;
    /// Close connections with no bytes for this long between frames.
    int idle_timeout_ms = 5000;
    /// Close connections that started a frame but feed it slower than this
    /// (slow-loris defense).
    int read_timeout_ms = 2000;
    /// Minimum retry-after hint carried by Shed frames.
    int shed_retry_after_ms = 50;
    TenantQuota quota;
    /// Configuration of the embedded fusion service (workers = the
    /// server's worker threads, retries, breakers, checkpoint path, plan
    /// cache + persistent tier).
    svc::ServiceConfig service;
};

/// Monotonic counters since start(). Plain values; read via stats().
struct ServerStats {
    std::uint64_t accepted = 0;
    std::uint64_t accept_faults = 0;        // net.accept fired
    std::uint64_t rejected_connections = 0; // over max_connections
    std::uint64_t frames_in = 0;
    std::uint64_t pings = 0;
    std::uint64_t requests = 0;
    std::uint64_t responses_sent = 0;
    std::uint64_t wire_errors = 0;     // decoder rejected the stream
    std::uint64_t bad_payloads = 0;    // frame fine, payload unparseable
    std::uint64_t shed_quota = 0;
    std::uint64_t shed_queue = 0;
    std::uint64_t idle_timeouts = 0;
    std::uint64_t read_timeouts = 0;   // slow-loris closes
    std::uint64_t read_faults = 0;     // net.read fired
    std::uint64_t write_faults = 0;    // net.write fired
    std::uint64_t torn_responses = 0;  // net.torn_response fired
    std::uint64_t jobs_admitted = 0;   // passed every gate, queued for a worker
    std::uint64_t jobs_verified = 0;
    std::uint64_t jobs_quarantined = 0;
};

class Server {
  public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Binds, listens, and spawns the acceptor + worker threads. False
    /// (with *error set) if the socket cannot be set up.
    [[nodiscard]] bool start(std::string* error = nullptr);

    /// The bound port (useful with config.port = 0). 0 before start().
    [[nodiscard]] std::uint16_t port() const { return port_; }

    /// Graceful shutdown; idempotent. See the file comment for ordering.
    void stop();

    [[nodiscard]] ServerStats stats() const;

    /// Cumulative plan-cache counters of the embedded service (exposes the
    /// persistent tier's disk_* counters for drills).
    [[nodiscard]] svc::PlanCacheStats plancache_stats() const;

  private:
    struct Connection {
        explicit Connection(int fd_in) : fd(fd_in) {}
        const int fd;
        std::mutex write_mutex;
        bool closed = false;  // guarded by write_mutex
    };

    struct PendingJob {
        std::shared_ptr<Connection> conn;
        std::uint64_t request_id = 0;
        svc::JobSpec spec;
    };

    void accept_loop();
    void serve_connection(std::shared_ptr<Connection> conn);
    void handle_frame(const std::shared_ptr<Connection>& conn, Frame frame);
    /// A worker's life: take one job, run it, reply; exit once draining
    /// and the queue is empty.
    void worker_loop();
    void reply(const PendingJob& job, const svc::JobRecord& rec);

    /// Serializes and writes `f` on `conn`, honoring the net.write /
    /// net.torn_response fault points; a failed or torn write closes the
    /// connection. Thread-safe per connection.
    bool send_frame(const std::shared_ptr<Connection>& conn, const Frame& f);
    void shed(const std::shared_ptr<Connection>& conn, std::uint64_t request_id,
              ShedReason reason, std::int64_t retry_after_ms);

    /// Takes one token from `tenant`'s bucket. On refusal returns false and
    /// sets `retry_after_ms` to when a token will exist.
    bool take_token(const std::string& tenant, std::int64_t& retry_after_ms);

    ServerConfig config_;
    svc::FusionService service_;
    mutable std::mutex stats_mutex_;
    ServerStats stats_;

    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stop_{false};
    std::atomic<bool> started_{false};
    std::atomic<int> active_connections_{0};
    std::atomic<std::uint64_t> next_job_seq_{1};
    /// Disambiguates job ids across server incarnations: checkpoint
    /// manifests key by job id, and "net-1" from a previous boot must never
    /// alias "net-1" of this one (the content-addressed plan store, not the
    /// checkpoint, is what carries warm state across restarts).
    const std::uint64_t boot_tag_;

    std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::deque<PendingJob> queue_;      // guarded by queue_mutex_
    bool draining_ = false;             // guarded by queue_mutex_
    /// Admitted jobs not yet answered (queued or running).
    std::atomic<int> inflight_{0};

    std::mutex quota_mutex_;
    struct Bucket {
        double tokens = 0;
        std::chrono::steady_clock::time_point last{};
        bool initialized = false;
    };
    std::unordered_map<std::string, Bucket> buckets_;

    std::mutex conns_mutex_;
    std::vector<std::thread> conn_threads_;        // guarded by conns_mutex_
    std::list<std::weak_ptr<Connection>> conns_;   // guarded by conns_mutex_
    std::thread acceptor_;
    std::vector<std::thread> workers_;
};

}  // namespace lf::net
