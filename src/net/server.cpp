#include "net/server.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <optional>

#include "graph/solver_workspace.hpp"
#include "support/diagnostics.hpp"
#include "support/faultpoint.hpp"
#include "support/json.hpp"
#include "svc/manifest.hpp"

namespace lf::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Reader-thread poll slice: small enough that stop() and the idle/slow
/// timeouts are honored promptly, large enough to stay off the profile.
constexpr int kPollSliceMs = 50;

std::int64_t ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(b - a).count();
}

/// Raw best-effort frame write used where no Connection exists yet (the
/// over-capacity shed goes out on a socket we are about to close anyway).
void write_all_best_effort(int fd, const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) continue;
            return;
        }
        off += static_cast<std::size_t>(n);
    }
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      service_(config_.service),
      boot_tag_(static_cast<std::uint64_t>(::getpid())) {
    if (config_.max_connections < 1) config_.max_connections = 1;
    if (config_.max_inflight < 1) config_.max_inflight = 1;
    if (config_.service.workers < 1) config_.service.workers = 1;
    if (config_.shed_retry_after_ms < 1) config_.shed_retry_after_ms = 1;
}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
    auto fail = [&](const std::string& msg) {
        if (error != nullptr) *error = msg + ": " + std::strerror(errno);
        if (listen_fd_ >= 0) {
            ::close(listen_fd_);
            listen_fd_ = -1;
        }
        return false;
    };
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return fail("socket");
    const int one = 1;
    (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
        errno = EINVAL;
        return fail("bad host '" + config_.host + "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        return fail("bind " + config_.host + ":" + std::to_string(config_.port));
    }
    if (::listen(listen_fd_, 64) != 0) return fail("listen");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
        return fail("getsockname");
    }
    port_ = ntohs(bound.sin_port);
    stop_.store(false);
    started_.store(true);
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        draining_ = false;
    }
    acceptor_ = std::thread(&Server::accept_loop, this);
    workers_.reserve(static_cast<std::size_t>(config_.service.workers));
    for (int i = 0; i < config_.service.workers; ++i) {
        workers_.emplace_back(&Server::worker_loop, this);
    }
    return true;
}

void Server::stop() {
    if (!started_.exchange(false)) return;
    stop_.store(true);
    // 1. Kill the intake: no new connections.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    if (acceptor_.joinable()) acceptor_.join();
    // 2. Wake and drain every reader (shutdown unblocks their poll/recv;
    //    readers own and close their fds).
    {
        const std::lock_guard<std::mutex> lock(conns_mutex_);
        for (const auto& weak : conns_) {
            if (const auto conn = weak.lock()) {
                const std::lock_guard<std::mutex> wlock(conn->write_mutex);
                if (!conn->closed) ::shutdown(conn->fd, SHUT_RDWR);
            }
        }
    }
    for (;;) {
        std::vector<std::thread> reap;
        {
            const std::lock_guard<std::mutex> lock(conns_mutex_);
            reap.swap(conn_threads_);
        }
        if (reap.empty()) break;
        for (auto& t : reap) t.join();
    }
    // 3. With every reader gone nothing more is admitted: the workers drain
    //    the queue, then exit (the drained jobs' responses go nowhere -- the
    //    connections are gone -- but their verdicts are counted and reach
    //    the checkpoint and the persistent plan tier).
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        draining_ = true;
    }
    queue_cv_.notify_all();
    for (auto& t : workers_) t.join();
    workers_.clear();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
}

ServerStats Server::stats() const {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    return stats_;
}

svc::PlanCacheStats Server::plancache_stats() const { return service_.plancache_stats(); }

void Server::accept_loop() {
    while (!stop_.load()) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, kPollSliceMs);
        if (stop_.load()) return;
        if (rc <= 0) continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) continue;
        {
            const std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.accepted;
        }
        if (faultpoint::triggered("net.accept")) {
            // Simulated accept-time resource failure: the connection is
            // gone before a single byte is exchanged. Clients must treat
            // it like any other transport flap and reconnect.
            const std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.accept_faults;
            ::close(fd);
            continue;
        }
        if (active_connections_.load() >= config_.max_connections) {
            Frame f;
            f.type = FrameType::Shed;
            f.aux = static_cast<std::uint16_t>(ShedReason::TooManyConnections);
            f.deadline_ms = config_.shed_retry_after_ms;
            write_all_best_effort(fd, encode_frame(f));
            ::close(fd);
            const std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.rejected_connections;
            continue;
        }
        active_connections_.fetch_add(1);
        auto conn = std::make_shared<Connection>(fd);
        const std::lock_guard<std::mutex> lock(conns_mutex_);
        conns_.push_back(conn);
        // Readers occasionally leave stale weak_ptrs behind; prune so a
        // long-lived server's list stays bounded by live connections.
        conns_.remove_if([](const std::weak_ptr<Connection>& w) { return w.expired(); });
        conn_threads_.emplace_back(&Server::serve_connection, this, std::move(conn));
    }
}

void Server::serve_connection(std::shared_ptr<Connection> conn) {
    FrameDecoder decoder;
    Clock::time_point last_byte = Clock::now();  // slow-loris clock
    Clock::time_point idle_since = last_byte;    // idle clock
    char buf[8192];
    bool open = true;
    while (open && !stop_.load()) {
        pollfd pfd{conn->fd, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, kPollSliceMs);
        {
            const std::lock_guard<std::mutex> lock(conn->write_mutex);
            if (conn->closed) break;
        }
        if (rc == 0) {
            const Clock::time_point now = Clock::now();
            // Waiting for our own reply is not client idleness.
            if (conn->owed_replies.load() > 0) idle_since = now;
            if (decoder.mid_frame() && ms_between(last_byte, now) > config_.read_timeout_ms) {
                // Slow-loris: a started frame is trickling in too slowly to
                // be anything but hostile or hopeless.
                const std::lock_guard<std::mutex> lock(stats_mutex_);
                ++stats_.read_timeouts;
                break;
            }
            if (!decoder.mid_frame() && ms_between(idle_since, now) > config_.idle_timeout_ms) {
                const std::lock_guard<std::mutex> lock(stats_mutex_);
                ++stats_.idle_timeouts;
                break;
            }
            continue;
        }
        if (rc < 0) {
            if (errno == EINTR) continue;
            break;
        }
        const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
        if (n < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (n == 0) break;  // peer closed
        if (faultpoint::triggered("net.read")) {
            // Simulated partial-read failure: drop the connection exactly
            // as a real torn read would.
            const std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.read_faults;
            break;
        }
        last_byte = Clock::now();
        idle_since = last_byte;
        decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        for (;;) {
            Frame frame;
            const FrameDecoder::Status st = decoder.poll(frame);
            if (st == FrameDecoder::Status::NeedMore) break;
            if (st == FrameDecoder::Status::Error) {
                {
                    const std::lock_guard<std::mutex> lock(stats_mutex_);
                    ++stats_.wire_errors;
                }
                Frame err;
                err.type = FrameType::Error;
                err.aux = static_cast<std::uint16_t>(decoder.error());
                err.payload = decoder.detail();
                (void)send_frame(conn, err);
                open = false;  // stream lost frame sync; nothing to salvage
                break;
            }
            {
                const std::lock_guard<std::mutex> lock(stats_mutex_);
                ++stats_.frames_in;
            }
            handle_frame(conn, std::move(frame));
            // The reader's own work on the frame (a large payload parses
            // for a while) is not client idleness either.
            idle_since = Clock::now();
            const std::lock_guard<std::mutex> lock(conn->write_mutex);
            if (conn->closed) {
                open = false;
                break;
            }
        }
    }
    {
        const std::lock_guard<std::mutex> lock(conn->write_mutex);
        conn->closed = true;
    }
    ::close(conn->fd);
    active_connections_.fetch_sub(1);
}

bool Server::take_token(const std::string& tenant, std::int64_t& retry_after_ms) {
    if (config_.quota.refill_per_sec <= 0) return true;
    const double burst = config_.quota.burst < 1 ? 1.0 : static_cast<double>(config_.quota.burst);
    const Clock::time_point now = Clock::now();
    const std::lock_guard<std::mutex> lock(quota_mutex_);
    Bucket& b = buckets_[tenant];
    if (!b.initialized) {
        b.tokens = burst;
        b.last = now;
        b.initialized = true;
    }
    const double elapsed_s =
        static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(now - b.last)
                                .count()) /
        1e6;
    b.tokens = std::min(burst, b.tokens + elapsed_s * config_.quota.refill_per_sec);
    b.last = now;
    if (b.tokens >= 1.0) {
        b.tokens -= 1.0;
        return true;
    }
    const double wait_s = (1.0 - b.tokens) / config_.quota.refill_per_sec;
    retry_after_ms = std::max<std::int64_t>(static_cast<std::int64_t>(wait_s * 1000.0) + 1,
                                            config_.shed_retry_after_ms);
    return false;
}

void Server::shed(const std::shared_ptr<Connection>& conn, std::uint64_t request_id,
                  ShedReason reason, std::int64_t retry_after_ms) {
    Frame f;
    f.type = FrameType::Shed;
    f.aux = static_cast<std::uint16_t>(reason);
    f.request_id = request_id;
    f.deadline_ms = retry_after_ms;  // the Shed frame reuses this field as
                                     // the retry-after hint
    f.payload = to_string(reason);
    (void)send_frame(conn, f);
}

void Server::handle_frame(const std::shared_ptr<Connection>& conn, Frame frame) {
    switch (frame.type) {
        case FrameType::Ping: {
            {
                const std::lock_guard<std::mutex> lock(stats_mutex_);
                ++stats_.pings;
            }
            Frame pong;
            pong.type = FrameType::Pong;
            pong.request_id = frame.request_id;
            pong.tenant = frame.tenant;
            (void)send_frame(conn, pong);
            return;
        }
        case FrameType::Request: break;
        default:
            // Server-to-client frame types arriving at the server are a
            // client bug, not an attack surface: ignore them.
            return;
    }
    {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.requests;
    }

    // ---- Admission gate, cheapest checks first. ----
    std::int64_t retry_after_ms = config_.shed_retry_after_ms;
    if (!take_token(frame.tenant, retry_after_ms)) {
        {
            const std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.shed_quota;
        }
        shed(conn, frame.request_id, ShedReason::QuotaExceeded, retry_after_ms);
        return;
    }
    if (inflight_.load() >= config_.max_inflight) {
        {
            const std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.shed_queue;
        }
        shed(conn, frame.request_id, ShedReason::QueueFull, config_.shed_retry_after_ms);
        return;
    }

    // ---- Parse the payload into a JobSpec. ----
    const std::string job_id =
        "net-" + std::to_string(boot_tag_) + "-" + std::to_string(next_job_seq_.fetch_add(1));
    svc::JobSpec spec;
    try {
        switch (static_cast<PayloadKind>(frame.aux)) {
            case PayloadKind::Dsl:
                spec = svc::job_from_dsl_text(job_id, frame.payload,
                                              frame.tenant.empty() ? "net" : frame.tenant);
                break;
            case PayloadKind::Mldg:
                spec = svc::job_from_mldg_text(job_id, frame.payload,
                                               frame.tenant.empty() ? "net" : frame.tenant);
                break;
            default: throw Error("unknown payload kind " + std::to_string(frame.aux));
        }
    } catch (const std::exception& e) {
        {
            const std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.bad_payloads;
        }
        Frame err;
        err.type = FrameType::Error;
        err.aux = static_cast<std::uint16_t>(WireError::BadPayload);
        err.request_id = frame.request_id;
        err.payload = e.what();
        (void)send_frame(conn, err);
        return;
    }
    spec.tenant = frame.tenant;
    spec.deadline_ms = frame.deadline_ms >= 0 ? frame.deadline_ms : -1;

    PendingJob job;
    job.conn = conn;
    job.request_id = frame.request_id;
    job.spec = std::move(spec);
    inflight_.fetch_add(1);
    conn->owed_replies.fetch_add(1);
    {
        // Counted before a worker can finish it: verified + quarantined
        // never runs ahead of admitted in a stats() snapshot.
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.jobs_admitted;
    }
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        queue_.push_back(std::move(job));
    }
    queue_cv_.notify_one();
}

void Server::worker_loop() {
    // One solver arena for the worker's whole life: steady-state planning
    // reuses its buffers (graph/solver_workspace.hpp).
    PlannerWorkspace ws;
    for (;;) {
        PendingJob job;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock, [&] { return draining_ || !queue_.empty(); });
            if (queue_.empty()) return;  // draining, and every job is done
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        std::optional<svc::JobRecord> rec;
        std::string error;
        try {
            rec = service_.run_job(job.spec, ws);
        } catch (const std::exception& e) {
            // run_job ends job-level failures in a Quarantined record; only
            // something like an allocation failure lands here.
            error = e.what();
        }
        if (rec.has_value()) {
            reply(job, *rec);
        } else {
            // Answer and count the job rather than leave its client to time
            // out.
            {
                const std::lock_guard<std::mutex> lock(stats_mutex_);
                ++stats_.jobs_quarantined;
            }
            Frame err;
            err.type = FrameType::Error;
            err.aux = static_cast<std::uint16_t>(WireError::Internal);
            err.request_id = job.request_id;
            err.payload = error;
            (void)send_frame(job.conn, err);
        }
        job.conn->owed_replies.fetch_sub(1);
        inflight_.fetch_sub(1);
    }
}

void Server::reply(const PendingJob& job, const svc::JobRecord& rec) {
    const bool verified = rec.status == svc::JobStatus::Verified;
    {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        if (verified) {
            ++stats_.jobs_verified;
        } else {
            ++stats_.jobs_quarantined;
        }
    }
    json::Writer w;
    w.begin_object();
    w.kv("id", rec.id);
    w.kv("status", svc::to_string(rec.status));
    w.kv("algorithm", rec.algorithm);
    w.kv("level", rec.level);
    w.kv("cache", svc::to_string(rec.cache));
    w.kv("attempts", static_cast<int>(rec.attempts.size()));
    w.kv("quarantine_reason", rec.quarantine_reason);
    // Echo of the deadline the job actually ran under, so clients (and
    // tests) can verify wire-to-worker propagation.
    w.kv("deadline_ms", job.spec.deadline_ms);
    w.kv("tenant", rec.tenant);
    w.end_object();

    Frame resp;
    resp.type = FrameType::Response;
    resp.aux = verified ? 1 : 2;
    resp.request_id = job.request_id;
    resp.deadline_ms = job.spec.deadline_ms;
    resp.tenant = job.spec.tenant;
    resp.payload = w.str();
    if (send_frame(job.conn, resp)) {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.responses_sent;
    }
}

bool Server::send_frame(const std::shared_ptr<Connection>& conn, const Frame& f) {
    const std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (conn->closed) return false;
    if (faultpoint::triggered("net.write")) {
        // Simulated dead peer at write time: the response is lost whole.
        // Shut down so the reader thread notices and reaps the connection.
        const std::lock_guard<std::mutex> slock(stats_mutex_);
        ++stats_.write_faults;
        conn->closed = true;
        ::shutdown(conn->fd, SHUT_RDWR);
        return false;
    }
    std::string bytes = encode_frame(f);
    std::size_t limit = bytes.size();
    bool torn = false;
    if (faultpoint::triggered("net.torn_response")) {
        // Write half the frame, then slam the connection: the client-side
        // decoder must classify this as Torn, never misparse it.
        limit = bytes.size() / 2;
        torn = true;
        const std::lock_guard<std::mutex> slock(stats_mutex_);
        ++stats_.torn_responses;
    }
    std::size_t off = 0;
    bool ok = true;
    while (off < limit) {
        const ssize_t n = ::send(conn->fd, bytes.data() + off, limit - off, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) continue;
            ok = false;
            break;
        }
        off += static_cast<std::size_t>(n);
    }
    if (torn || !ok) {
        conn->closed = true;
        ::shutdown(conn->fd, SHUT_RDWR);
        return false;
    }
    return true;
}

}  // namespace lf::net
