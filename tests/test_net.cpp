// The wire layer (net/frame.hpp, net/client.hpp, net/server.hpp):
//
//   * frame codec -- round trips, limit enforcement, typed decode errors,
//     incremental (byte-at-a-time) delivery, and fuzz over random and
//     truncated byte streams: arbitrary garbage must yield a typed
//     WireError or NeedMore, never a crash or a bogus frame;
//   * loopback server -- verified responses, wire-to-worker deadline
//     propagation (echoed back; an already-expired deadline deterministically
//     quarantines), per-tenant quota sheds with retry-after hints,
//     queue-depth sheds, typed errors for unparseable payloads and garbage
//     bytes, idle and slow-read (slow-loris) connection timeouts;
//   * the worker pool -- a slow job never delays a fast job behind it, and
//     stop() accounts for every admitted job;
//   * fault points -- net.accept / net.read / net.write / net.torn_response
//     each produce their documented failure shape and a stats() count, and
//     the client classifies the damage (Closed/Torn), never misparses it.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <random>
#include <string>
#include <thread>

#include "graph/solver_workspace.hpp"
#include "ldg/serialization.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "support/faultpoint.hpp"
#include "svc/manifest.hpp"
#include "workloads/generators.hpp"
#include "workloads/sources.hpp"

namespace lf::net {
namespace {

class NetTest : public ::testing::Test {
  protected:
    void SetUp() override { faultpoint::reset(); }
    void TearDown() override { faultpoint::reset(); }
};

Frame sample_frame() {
    Frame f;
    f.type = FrameType::Request;
    f.aux = static_cast<std::uint16_t>(PayloadKind::Dsl);
    f.request_id = 0x0123456789abcdefull;
    f.deadline_ms = 1500;
    f.tenant = "tenant-a";
    f.payload = "loop body bytes";
    return f;
}

/// Feeds `bytes` and polls; returns the decoder's verdict for one frame.
FrameDecoder::Status decode_once(const std::string& bytes, Frame& out, FrameDecoder& dec) {
    dec.feed(bytes);
    return dec.poll(out);
}

// ---- Codec ----

TEST_F(NetTest, FrameRoundTripsAllFields) {
    const Frame in = sample_frame();
    FrameDecoder dec;
    Frame out;
    ASSERT_EQ(decode_once(encode_frame(in), out, dec), FrameDecoder::Status::Ready);
    EXPECT_EQ(out.type, in.type);
    EXPECT_EQ(out.aux, in.aux);
    EXPECT_EQ(out.request_id, in.request_id);
    EXPECT_EQ(out.deadline_ms, in.deadline_ms);
    EXPECT_EQ(out.tenant, in.tenant);
    EXPECT_EQ(out.payload, in.payload);
    EXPECT_EQ(dec.buffered(), 0u);
}

TEST_F(NetTest, NegativeDeadlineSurvivesTheWire) {
    Frame in = sample_frame();
    in.deadline_ms = -1;
    FrameDecoder dec;
    Frame out;
    ASSERT_EQ(decode_once(encode_frame(in), out, dec), FrameDecoder::Status::Ready);
    EXPECT_EQ(out.deadline_ms, -1);
}

TEST_F(NetTest, EncoderClampsOversizedFields) {
    Frame f = sample_frame();
    f.tenant.assign(kMaxTenantLen + 100, 't');
    f.payload.assign(kMaxPayloadLen + 5, 'p');
    const std::string bytes = encode_frame(f);
    FrameDecoder dec;
    Frame out;
    ASSERT_EQ(decode_once(bytes, out, dec), FrameDecoder::Status::Ready)
        << "the encoder must never emit a frame the decoder rejects";
    EXPECT_EQ(out.tenant.size(), kMaxTenantLen);
    EXPECT_EQ(out.payload.size(), kMaxPayloadLen);
}

TEST_F(NetTest, ByteAtATimeDeliveryDecodes) {
    const std::string bytes = encode_frame(sample_frame());
    FrameDecoder dec;
    Frame out;
    for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
        dec.feed(std::string_view(&bytes[i], 1));
        ASSERT_EQ(dec.poll(out), FrameDecoder::Status::NeedMore) << "at byte " << i;
    }
    dec.feed(std::string_view(&bytes[bytes.size() - 1], 1));
    ASSERT_EQ(dec.poll(out), FrameDecoder::Status::Ready);
    EXPECT_EQ(out.payload, sample_frame().payload);
}

TEST_F(NetTest, TwoFramesInOneFeed) {
    Frame a = sample_frame();
    Frame b = sample_frame();
    b.request_id = 7;
    b.payload = "second";
    FrameDecoder dec;
    dec.feed(encode_frame(a) + encode_frame(b));
    Frame out;
    ASSERT_EQ(dec.poll(out), FrameDecoder::Status::Ready);
    EXPECT_EQ(out.request_id, a.request_id);
    ASSERT_EQ(dec.poll(out), FrameDecoder::Status::Ready);
    EXPECT_EQ(out.payload, "second");
    EXPECT_EQ(dec.poll(out), FrameDecoder::Status::NeedMore);
}

TEST_F(NetTest, TypedErrorsForEachHeaderDefect) {
    struct Case {
        const char* name;
        std::size_t offset;
        unsigned char value;
        WireError expected;
    };
    // Start from a valid frame and corrupt one header field at a time.
    const Case cases[] = {
        {"magic", 0, 'X', WireError::BadMagic},
        {"version", 4, 0xee, WireError::BadVersion},
        {"type", 6, 0x77, WireError::BadType},
        {"tenant_len", 27, 0xff, WireError::OversizedTenant},   // 0xff00 > 256
        {"payload_len", 31, 0xff, WireError::OversizedPayload}, // top byte: > 1 MiB
    };
    for (const Case& c : cases) {
        std::string bytes = encode_frame(sample_frame());
        bytes[c.offset] = static_cast<char>(c.value);
        FrameDecoder dec;
        Frame out;
        ASSERT_EQ(decode_once(bytes, out, dec), FrameDecoder::Status::Error) << c.name;
        EXPECT_EQ(dec.error(), c.expected) << c.name;
        EXPECT_FALSE(dec.detail().empty()) << c.name;
        // Sticky: the stream is dead; more bytes change nothing.
        dec.feed(encode_frame(sample_frame()));
        EXPECT_EQ(dec.poll(out), FrameDecoder::Status::Error) << c.name;
    }
}

TEST_F(NetTest, EveryPrefixOfAValidFrameIsNeedMoreNeverError) {
    const std::string bytes = encode_frame(sample_frame());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        FrameDecoder dec;
        dec.feed(std::string_view(bytes.data(), len));
        Frame out;
        EXPECT_EQ(dec.poll(out), FrameDecoder::Status::NeedMore) << "prefix length " << len;
        EXPECT_TRUE(len < kHeaderSize || dec.mid_frame()) << "prefix length " << len;
    }
}

TEST_F(NetTest, FuzzRandomBytesNeverCrashAndNeverYieldAFrame) {
    std::mt19937 rng(20260808);
    std::uniform_int_distribution<int> byte(0, 255);
    for (int round = 0; round < 200; ++round) {
        std::string junk(64 + static_cast<std::size_t>(round), '\0');
        for (char& ch : junk) ch = static_cast<char>(byte(rng));
        FrameDecoder dec;
        dec.feed(junk);
        Frame out;
        // Random 4-byte magics essentially never spell LFNP; whatever the
        // verdict, it must be reached without crashing and must be typed.
        const FrameDecoder::Status st = dec.poll(out);
        if (st == FrameDecoder::Status::Error) {
            EXPECT_NE(dec.error(), WireError::None);
        }
    }
}

TEST_F(NetTest, FuzzBitFlippedValidFramesNeverCrash) {
    std::mt19937 rng(987654);
    const std::string valid = encode_frame(sample_frame());
    std::uniform_int_distribution<std::size_t> pos(0, valid.size() - 1);
    std::uniform_int_distribution<int> bit(0, 7);
    for (int round = 0; round < 500; ++round) {
        std::string bytes = valid;
        bytes[pos(rng)] ^= static_cast<char>(1 << bit(rng));
        FrameDecoder dec;
        dec.feed(bytes);
        Frame out;
        // A flipped length field may leave the decoder waiting for bytes
        // that never come (NeedMore) -- the server's read timeout owns that
        // case. Everything else must be Ready or a typed error.
        const FrameDecoder::Status st = dec.poll(out);
        if (st == FrameDecoder::Status::Error) {
            EXPECT_NE(dec.error(), WireError::None);
            EXPECT_FALSE(dec.detail().empty());
        }
    }
}

// ---- Loopback server ----

/// Starts a server on an ephemeral loopback port with test-friendly knobs.
struct TestServer {
    explicit TestServer(ServerConfig config = {}) : server((prepare(config), config)) {
        std::string error;
        started = server.start(&error);
        EXPECT_TRUE(started) << error;
    }
    static void prepare(ServerConfig& config) {
        config.host = "127.0.0.1";
        config.port = 0;
        if (config.service.workers == 0) config.service.workers = 2;
    }
    Server server;
    bool started = false;
};

Frame dsl_request(std::uint64_t id, std::string_view source, std::int64_t deadline_ms = -1,
                  const std::string& tenant = {}) {
    Frame f;
    f.type = FrameType::Request;
    f.aux = static_cast<std::uint16_t>(PayloadKind::Dsl);
    f.request_id = id;
    f.deadline_ms = deadline_ms;
    f.tenant = tenant;
    f.payload = std::string(source);
    return f;
}

/// Text of a seeded random legal MLDG with `loops` loops at the wire_large
/// edge densities. Planned cold, a few thousand loops keep a worker busy
/// for milliseconds; a cached gallery job takes microseconds.
std::string large_mldg_text(int loops, std::uint64_t seed) {
    Rng rng(seed);
    workloads::RandomGraphOptions opt;
    opt.num_nodes = loops;
    opt.forward_edge_prob = 6.0 / loops;
    opt.backward_edge_prob = 2.0 / loops;
    return serialize_mldg(workloads::random_legal_mldg(rng, opt), "large");
}

Frame mldg_request(std::uint64_t id, std::string text) {
    Frame f;
    f.type = FrameType::Request;
    f.aux = static_cast<std::uint16_t>(PayloadKind::Mldg);
    f.request_id = id;
    f.payload = std::move(text);
    return f;
}

/// Spins until `pred(stats)` holds or ~30 s pass; returns whether it held.
template <typename Pred>
bool wait_for_stats(const Server& server, Pred pred) {
    for (int spin = 0; spin < 30000; ++spin) {
        if (pred(server.stats())) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

int raw_connect(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

TEST_F(NetTest, LoopbackRequestEndsVerifiedWithEchoedIds) {
    TestServer ts;
    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ts.server.port()));
    ASSERT_TRUE(client.send(dsl_request(42, workloads::sources::kFig2, -1, "acme")));
    const auto r = client.recv(30000);
    ASSERT_EQ(r.status, BlockingClient::RecvStatus::Ok) << client.last_error();
    EXPECT_EQ(r.frame.type, FrameType::Response);
    EXPECT_EQ(r.frame.aux, 1u) << "verified verdict";
    EXPECT_EQ(r.frame.request_id, 42u);
    EXPECT_EQ(r.frame.tenant, "acme");
    EXPECT_NE(r.frame.payload.find("\"status\": \"verified\""), std::string::npos)
        << r.frame.payload;
    EXPECT_NE(r.frame.payload.find("\"tenant\": \"acme\""), std::string::npos);
    // The client can observe the response bytes before the worker thread
    // bumps its counter; give the stats a moment to settle.
    for (int spin = 0; spin < 100 && ts.server.stats().responses_sent == 0; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const ServerStats s = ts.server.stats();
    EXPECT_EQ(s.requests, 1u);
    EXPECT_EQ(s.responses_sent, 1u);
    EXPECT_EQ(s.jobs_verified, 1u);
}

TEST_F(NetTest, WireDeadlinePropagatesToTheWorker) {
    TestServer ts;
    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ts.server.port()));
    // A generous deadline verifies and is echoed back both in the frame
    // field and the payload JSON.
    ASSERT_TRUE(client.send(dsl_request(1, workloads::sources::kFig2, 60000)));
    auto r = client.recv(30000);
    ASSERT_EQ(r.status, BlockingClient::RecvStatus::Ok);
    EXPECT_EQ(r.frame.aux, 1u);
    EXPECT_EQ(r.frame.deadline_ms, 60000);
    EXPECT_NE(r.frame.payload.find("\"deadline_ms\": 60000"), std::string::npos)
        << r.frame.payload;
    // An already-expired deadline (0 ms) deterministically exhausts the
    // planner's wall guard, so the ladder's fused rungs all fail and the
    // job degrades to the always-correct loop-distribution fallback -- the
    // proof the wire value reaches planner-level enforcement, not just the
    // report. kFig8 fuses via Algorithm 3 when unconstrained (and it must
    // be a program not sent above: a plan-cache hit skips planning and the
    // deadline would never bite -- by design, cached plans cost nothing).
    ASSERT_TRUE(client.send(dsl_request(2, workloads::sources::kFig8, 0)));
    r = client.recv(30000);
    ASSERT_EQ(r.status, BlockingClient::RecvStatus::Ok);
    EXPECT_EQ(r.frame.type, FrameType::Response);
    EXPECT_EQ(r.frame.aux, 1u) << r.frame.payload;
    EXPECT_NE(r.frame.payload.find("loop distribution (unfused fallback)"), std::string::npos)
        << "expired deadline must force the unfused degrade path: " << r.frame.payload;
}

TEST_F(NetTest, TenantQuotaShedsWithRetryAfterHint) {
    ServerConfig config;
    config.quota.refill_per_sec = 0.001;  // one token per ~17 minutes
    config.quota.burst = 1;
    TestServer ts(config);
    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ts.server.port()));
    ASSERT_TRUE(client.send(dsl_request(1, workloads::sources::kFig2, -1, "greedy")));
    auto r = client.recv(30000);
    ASSERT_EQ(r.status, BlockingClient::RecvStatus::Ok);
    ASSERT_EQ(r.frame.type, FrameType::Response);
    // Token bucket empty: the second request sheds, typed, with a hint.
    ASSERT_TRUE(client.send(dsl_request(2, workloads::sources::kFig2, -1, "greedy")));
    r = client.recv(30000);
    ASSERT_EQ(r.status, BlockingClient::RecvStatus::Ok);
    EXPECT_EQ(r.frame.type, FrameType::Shed);
    EXPECT_EQ(r.frame.aux, static_cast<std::uint16_t>(ShedReason::QuotaExceeded));
    EXPECT_GT(r.frame.deadline_ms, 0) << "retry-after hint";
    // Another tenant's bucket is untouched.
    ASSERT_TRUE(client.send(dsl_request(3, workloads::sources::kFig2, -1, "patient")));
    r = client.recv(30000);
    ASSERT_EQ(r.status, BlockingClient::RecvStatus::Ok);
    EXPECT_EQ(r.frame.type, FrameType::Response);
    EXPECT_EQ(ts.server.stats().shed_quota, 1u);
}

TEST_F(NetTest, QueueDepthShedsWhenInflightCapReached) {
    ServerConfig config;
    config.max_inflight = 1;
    TestServer ts(config);
    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ts.server.port()));
    // Job 1 is a large cold graph: a worker is still planning it when the
    // reader handles job 2, which is already in the socket behind it.
    ASSERT_TRUE(client.send(mldg_request(1, large_mldg_text(3000, 11))));
    // While job 1 is admitted-but-unanswered, job 2 must shed QueueFull.
    ASSERT_TRUE(client.send(dsl_request(2, workloads::sources::kFig8)));
    auto r = client.recv(30000);
    ASSERT_EQ(r.status, BlockingClient::RecvStatus::Ok);
    ASSERT_EQ(r.frame.type, FrameType::Shed) << "payload: " << r.frame.payload;
    EXPECT_EQ(r.frame.aux, static_cast<std::uint16_t>(ShedReason::QueueFull));
    EXPECT_EQ(r.frame.request_id, 2u);
    EXPECT_GE(r.frame.deadline_ms, 1);
    // Job 1 still completes.
    r = client.recv(30000);
    ASSERT_EQ(r.status, BlockingClient::RecvStatus::Ok);
    EXPECT_EQ(r.frame.type, FrameType::Response);
    EXPECT_EQ(r.frame.request_id, 1u);
    EXPECT_EQ(ts.server.stats().shed_queue, 1u);
}

TEST_F(NetTest, SlowJobDoesNotDelayAFastJobBehindIt) {
    using Clock = std::chrono::steady_clock;
    ServerConfig config;
    config.service.workers = 2;
    // B idles while A's large payload parses, which takes seconds under
    // sanitizers.
    config.idle_timeout_ms = 60000;
    TestServer ts(config);
    BlockingClient fast;
    ASSERT_TRUE(fast.connect("127.0.0.1", ts.server.port()));
    // Warm the plan cache, so the fast job is a hit.
    ASSERT_TRUE(fast.send(dsl_request(1, workloads::sources::kFig2)));
    auto warm = fast.recv(30000);
    ASSERT_EQ(warm.status, BlockingClient::RecvStatus::Ok);
    ASSERT_EQ(warm.frame.aux, 1u);

    // Connection A sends the slow job; its reply is timed on its own thread.
    BlockingClient slow;
    ASSERT_TRUE(slow.connect("127.0.0.1", ts.server.port()));
    ASSERT_TRUE(slow.send(mldg_request(2, large_mldg_text(3000, 5))));
    Clock::time_point slow_reply{};
    BlockingClient::Recv slow_r;
    std::thread slow_reader([&] {
        slow_r = slow.recv(60000);
        slow_reply = Clock::now();
    });
    // The slow job's parse runs on A's reader; once it is admitted, only
    // its planning stands between it and its reply.
    const bool admitted = wait_for_stats(ts.server, [](const ServerStats& s) {
        return s.jobs_admitted == 2;
    });
    const Clock::time_point slow_admitted = Clock::now();

    // Connection B sends the cached job behind it.
    const Clock::time_point fast_sent = Clock::now();
    const bool fast_sent_ok = fast.send(dsl_request(3, workloads::sources::kFig2));
    const auto fast_r = fast_sent_ok ? fast.recv(30000) : BlockingClient::Recv{};
    const Clock::time_point fast_reply = Clock::now();
    slow_reader.join();
    ASSERT_TRUE(admitted);
    ASSERT_TRUE(fast_sent_ok);
    ASSERT_EQ(fast_r.status, BlockingClient::RecvStatus::Ok);
    EXPECT_EQ(fast_r.frame.request_id, 3u);
    EXPECT_EQ(fast_r.frame.aux, 1u);
    EXPECT_NE(fast_r.frame.payload.find("\"cache\": \"hit\""), std::string::npos);
    ASSERT_EQ(slow_r.status, BlockingClient::RecvStatus::Ok);
    EXPECT_EQ(slow_r.frame.request_id, 2u);
    EXPECT_EQ(slow_r.frame.aux, 1u);
    EXPECT_NE(slow_r.frame.payload.find("\"cache\": \"miss\""), std::string::npos);

    // The fast reply comes first, and within a quarter of the slow job's
    // service time -- it never waited for the slow verdict.
    const auto us = [](Clock::duration d) {
        return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
    };
    const std::int64_t slow_service_us = us(slow_reply - slow_admitted);
    const std::int64_t fast_latency_us = us(fast_reply - fast_sent);
    EXPECT_LT(fast_reply, slow_reply);
    EXPECT_LT(fast_latency_us * 4, slow_service_us)
        << "fast " << fast_latency_us << " us, slow service " << slow_service_us << " us";
}

TEST_F(NetTest, StopAccountsForEveryAdmittedJob) {
    ServerConfig config;
    config.service.workers = 1;  // jobs queue up behind the one worker
    TestServer ts(config);
    constexpr std::size_t kConnections = 4;
    std::vector<BlockingClient> clients(kConnections);
    std::vector<std::string> payloads;
    for (std::size_t c = 0; c < kConnections; ++c) {
        ASSERT_TRUE(clients[c].connect("127.0.0.1", ts.server.port()));
        payloads.push_back(large_mldg_text(1024, 100 + c));
    }
    // Sent back to back, so the parses overlap on the readers and the
    // jobs pile up behind the single worker.
    for (std::size_t c = 0; c < kConnections; ++c) {
        ASSERT_TRUE(clients[c].send(mldg_request(c + 1, payloads[c])));
    }
    ASSERT_TRUE(wait_for_stats(ts.server, [](const ServerStats& s) {
        return s.jobs_admitted == kConnections;
    }));
    // Stop with the last admitted job(s) still queued or planning: the
    // connections close first, then the worker drains the queue.
    ts.server.stop();
    const ServerStats s = ts.server.stats();
    EXPECT_EQ(s.jobs_admitted, kConnections);
    EXPECT_EQ(s.jobs_verified + s.jobs_quarantined, s.jobs_admitted);
    EXPECT_EQ(s.jobs_quarantined, 0u);
    EXPECT_LE(s.responses_sent, s.jobs_admitted);
}

TEST_F(NetTest, UnparseablePayloadEarnsTypedErrorNotACrash) {
    TestServer ts;
    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ts.server.port()));
    ASSERT_TRUE(client.send(dsl_request(5, "for (i in chaos) { not a program }")));
    const auto r = client.recv(30000);
    ASSERT_EQ(r.status, BlockingClient::RecvStatus::Ok);
    EXPECT_EQ(r.frame.type, FrameType::Error);
    EXPECT_EQ(r.frame.aux, static_cast<std::uint16_t>(WireError::BadPayload));
    EXPECT_EQ(r.frame.request_id, 5u);
    EXPECT_FALSE(r.frame.payload.empty()) << "the reason travels back";
    EXPECT_EQ(ts.server.stats().bad_payloads, 1u);
}

TEST_F(NetTest, GarbageBytesEarnTypedWireErrorAndAClosedConnection) {
    TestServer ts;
    const int fd = raw_connect(ts.server.port());
    ASSERT_GE(fd, 0);
    const std::string junk = "GET / HTTP/1.1\r\nHost: not-a-fusion-client\r\n\r\n";
    ASSERT_EQ(::send(fd, junk.data(), junk.size(), 0), static_cast<ssize_t>(junk.size()));
    // The server answers with a typed Error frame, then closes.
    FrameDecoder dec;
    Frame out;
    char buf[512];
    FrameDecoder::Status st = FrameDecoder::Status::NeedMore;
    for (int spin = 0; spin < 100 && st == FrameDecoder::Status::NeedMore; ++spin) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        dec.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        st = dec.poll(out);
    }
    ::close(fd);
    ASSERT_EQ(st, FrameDecoder::Status::Ready);
    EXPECT_EQ(out.type, FrameType::Error);
    EXPECT_EQ(out.aux, static_cast<std::uint16_t>(WireError::BadMagic));
    EXPECT_EQ(ts.server.stats().wire_errors, 1u);
}

TEST_F(NetTest, IdleConnectionsAreReaped) {
    ServerConfig config;
    config.idle_timeout_ms = 120;
    TestServer ts(config);
    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ts.server.port()));
    const auto r = client.recv(3000);  // say nothing; wait for the server
    EXPECT_EQ(r.status, BlockingClient::RecvStatus::Closed);
    EXPECT_EQ(ts.server.stats().idle_timeouts, 1u);
}

TEST_F(NetTest, ConnectionOwedAReplyIsNeverIdleReaped) {
    ServerConfig config;
    // Far below what parsing and planning the job below take, so the reader
    // and the worker spend several idle timeouts on it.
    config.idle_timeout_ms = 20;
    // No step budget: the ladder solves every rung instead of falling back.
    config.service.retry.initial_steps = kUnlimitedSteps;
    TestServer ts(config);
    // A 3000-loop chain whose edges are listed back to front: the ladder's
    // first rung needs ~3000 Bellman-Ford passes (tens of ms cold, Release),
    // after the reader spent tens of ms parsing the payload.
    Mldg chain;
    for (int v = 0; v < 3000; ++v) chain.add_node("L" + std::to_string(v));
    for (int v = 2998; v >= 0; --v) chain.add_edge(v, v + 1, {{0, 0}});
    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ts.server.port()));
    ASSERT_TRUE(client.send(mldg_request(1, serialize_mldg(chain, "chain"))));
    const auto r = client.recv(60000);
    ASSERT_EQ(r.status, BlockingClient::RecvStatus::Ok) << client.last_error();
    EXPECT_EQ(r.frame.type, FrameType::Response);
    EXPECT_EQ(r.frame.request_id, 1u);
    EXPECT_NE(r.frame.payload.find("Algorithm 3"), std::string::npos) << r.frame.payload;
    // Once nothing is owed, the connection idles out as usual.
    EXPECT_TRUE(wait_for_stats(ts.server, [](const ServerStats& s) {
        return s.idle_timeouts == 1;
    }));
}

TEST_F(NetTest, SlowLorisMidFrameTricklersAreReaped) {
    ServerConfig config;
    config.read_timeout_ms = 120;
    config.idle_timeout_ms = 60000;  // only the mid-frame timeout may fire
    TestServer ts(config);
    const int fd = raw_connect(ts.server.port());
    ASSERT_GE(fd, 0);
    // A valid header promising a body that never arrives.
    Frame f = dsl_request(1, workloads::sources::kFig2);
    const std::string bytes = encode_frame(f);
    ASSERT_EQ(::send(fd, bytes.data(), kHeaderSize + 3, 0),
              static_cast<ssize_t>(kHeaderSize + 3));
    char buf[64];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);  // blocks until the server closes
    ::close(fd);
    EXPECT_EQ(n, 0) << "server must close the trickling connection";
    EXPECT_EQ(ts.server.stats().read_timeouts, 1u);
    EXPECT_EQ(ts.server.stats().idle_timeouts, 0u);
}

// ---- Fault points ----

TEST_F(NetTest, AcceptFaultDropsTheConnectionImmediately) {
    TestServer ts;
    faultpoint::arm("net.accept");
    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ts.server.port()));
    // The TCP handshake succeeds (the kernel's doing); the server-side drop
    // surfaces on first use.
    (void)client.send(dsl_request(1, workloads::sources::kFig2));
    const auto r = client.recv(5000);
    EXPECT_NE(r.status, BlockingClient::RecvStatus::Ok);
    for (int spin = 0; spin < 100 && ts.server.stats().accept_faults == 0; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(ts.server.stats().accept_faults, 1u);
    EXPECT_GE(faultpoint::hits("net.accept"), 1u);
}

TEST_F(NetTest, ReadFaultDropsTheConnection) {
    TestServer ts;
    faultpoint::arm("net.read");
    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ts.server.port()));
    ASSERT_TRUE(client.send(dsl_request(1, workloads::sources::kFig2)));
    const auto r = client.recv(5000);
    EXPECT_NE(r.status, BlockingClient::RecvStatus::Ok);
    EXPECT_GE(ts.server.stats().read_faults, 1u);
}

TEST_F(NetTest, WriteFaultLosesTheResponseWhole) {
    TestServer ts;
    faultpoint::arm("net.write");
    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ts.server.port()));
    Frame ping;
    ping.type = FrameType::Ping;
    ping.request_id = 9;
    ASSERT_TRUE(client.send(ping));
    const auto r = client.recv(10000);
    // Nothing was written before the close: a clean Closed, never a torn
    // half-frame and never a bogus Ok.
    EXPECT_EQ(r.status, BlockingClient::RecvStatus::Closed) << to_string(r.status);
    EXPECT_GE(ts.server.stats().write_faults, 1u);
}

TEST_F(NetTest, TornResponseIsClassifiedTornByTheClient) {
    TestServer ts;
    faultpoint::arm("net.torn_response");
    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ts.server.port()));
    Frame ping;
    ping.type = FrameType::Ping;
    ping.request_id = 9;
    ASSERT_TRUE(client.send(ping));
    const auto r = client.recv(10000);
    EXPECT_EQ(r.status, BlockingClient::RecvStatus::Torn) << to_string(r.status);
    EXPECT_GE(ts.server.stats().torn_responses, 1u);
}

TEST_F(NetTest, ServerSurvivesAStormOfMixedTraffic) {
    // A mini in-process storm: concurrent well-formed requests, garbage
    // streams, and pings; the server must answer or close every one and
    // stop cleanly. (The full per-fault storm drill is tools/storm_drill.sh.)
    ServerConfig config;
    config.service.workers = 2;
    TestServer ts(config);
    std::vector<std::thread> pool;
    std::atomic<int> verified{0};
    for (int t = 0; t < 4; ++t) {
        pool.emplace_back([&, t] {
            BlockingClient client;
            if (!client.connect("127.0.0.1", ts.server.port())) return;
            for (int i = 0; i < 5; ++i) {
                if (t == 3) {  // one thread speaks garbage
                    const int fd = raw_connect(ts.server.port());
                    if (fd >= 0) {
                        (void)::send(fd, "garbage\n", 8, 0);
                        ::close(fd);
                    }
                    continue;
                }
                const auto src = (i % 2) == 0 ? workloads::sources::kFig2
                                              : workloads::sources::kJacobiPair;
                if (!client.send(dsl_request(static_cast<std::uint64_t>(t * 100 + i), src))) {
                    return;
                }
                const auto r = client.recv(30000);
                if (r.status == BlockingClient::RecvStatus::Ok && r.frame.aux == 1) ++verified;
            }
        });
    }
    for (auto& th : pool) th.join();
    EXPECT_EQ(verified.load(), 15);
    ts.server.stop();
    const ServerStats s = ts.server.stats();
    EXPECT_EQ(s.jobs_verified, 15u);
    EXPECT_EQ(s.responses_sent, 15u);
}

}  // namespace
}  // namespace lf::net
