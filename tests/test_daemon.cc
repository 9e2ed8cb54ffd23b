/**
 * @file
 * End-to-end tests for the casimd daemon over socketpairs: the wire
 * protocol ops (including the v2 hello negotiation and server-side
 * sweep expansion), error replies with stable error codes, result
 * decoding (byte-exact against a local queue), the request-line
 * length limit, concurrent clients against one daemon, and the drain
 * guarantee — buffered request lines
 * and in-flight concurrent batches are still answered after a stop.
 */

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/stats.hh"
#include "sim/daemon.hh"

namespace casim {
namespace {

/** A fast study configuration for daemon tests. */
StudyConfig
testConfig()
{
    StudyConfig config;
    config.workload.threads = 4;
    config.workload.scale = 0.01;
    config.hierarchy.numCores = 4;
    return config;
}

/** Blocking full write of `text` to `fd`. */
void
writeAll(int fd, const std::string &text)
{
    std::size_t done = 0;
    while (done < text.size()) {
        const ssize_t n =
            ::write(fd, text.data() + done, text.size() - done);
        ASSERT_GT(n, 0);
        done += static_cast<std::size_t>(n);
    }
}

/** Read one newline-terminated line from `fd` (buffered in `pending`). */
std::string
readLine(int fd, std::string &pending)
{
    for (;;) {
        const auto nl = pending.find('\n');
        if (nl != std::string::npos) {
            const std::string line = pending.substr(0, nl);
            pending.erase(0, nl + 1);
            return line;
        }
        char buf[4096];
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0)
            return "";
        pending.append(buf, static_cast<std::size_t>(n));
    }
}

/** One daemon served over a socketpair; joins on destruction. */
class DaemonHarness
{
  public:
    DaemonHarness() : daemon_(testConfig(), 2)
    {
        int sv[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        client_ = sv[0];
        server_ = sv[1];
        thread_ = std::thread([this] {
            daemon_.serveConnection(server_, server_);
            // Signal EOF to the client once the connection loop exits
            // (e.g. after a shutdown op) so reads never block forever.
            ::shutdown(server_, SHUT_RDWR);
        });
    }

    ~DaemonHarness()
    {
        ::shutdown(client_, SHUT_WR); // EOF ends the connection loop
        thread_.join();
        ::close(client_);
        ::close(server_);
    }

    ExperimentDaemon &daemon() { return daemon_; }
    int fd() const { return client_; }
    std::string readResponse() { return readLine(client_, pending_); }

  private:
    ExperimentDaemon daemon_;
    int client_ = -1;
    int server_ = -1;
    std::string pending_;
    std::thread thread_;
};

TEST(Daemon, PingStatsAndUnknownOp)
{
    DaemonHarness harness;
    writeAll(harness.fd(), "{\"op\": \"ping\"}\n");
    std::string line = harness.readResponse();
    EXPECT_NE(line.find("pong"), std::string::npos) << line;
    EXPECT_EQ(line.find('\n'), std::string::npos);

    writeAll(harness.fd(), "{\"op\": \"stats\"}\n");
    line = harness.readResponse();
    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(line, doc, &error)) << error;
    EXPECT_NE(line.find("casimd.requests"), std::string::npos);
    EXPECT_NE(line.find("capture_cache.memo_hits"), std::string::npos);
    EXPECT_NE(line.find("queue.batches"), std::string::npos);

    writeAll(harness.fd(), "{\"op\": \"flush\"}\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("\"error\""), std::string::npos) << line;
    EXPECT_NE(line.find("unknown op 'flush'"), std::string::npos)
        << line;
}

TEST(Daemon, ExperimentMatchesLocalQueueByteForByte)
{
    ExperimentRequest request;
    request.workload = "canneal";
    request.config = testConfig();
    request.labeler = "oracle";

    CaptureCache cache;
    ParallelRunner runner(2);
    ExperimentQueue local(cache, runner);
    const ExperimentResult direct = local.run(request);

    DaemonHarness harness;
    writeAll(harness.fd(),
             "{\"op\": \"experiment\", \"request\": " +
                 request.toJson() + "}\n");
    const ExperimentResult remote =
        decodeResponseDocument(harness.readResponse());
    EXPECT_EQ(remote.toRows(), direct.toRows());

    // A bare object (no "op") is the same experiment.
    writeAll(harness.fd(), request.toJson() + "\n");
    const ExperimentResult bare =
        decodeResponseDocument(harness.readResponse());
    EXPECT_EQ(bare.toRows(), direct.toRows());

    // The second round was served from the resident capture store.
    EXPECT_GE(harness.daemon().cache().counter("memo_hits"), 1u);
}

TEST(Daemon, BatchKeepsRequestOrderAndPerSlotErrors)
{
    ExperimentRequest good;
    good.workload = "canneal";
    good.config = testConfig();
    ExperimentRequest bad = good;
    bad.policy = "lru2";

    DaemonHarness harness;
    writeAll(harness.fd(),
             "{\"op\": \"batch\", \"requests\": [" + good.toJson() +
                 ", " + bad.toJson() + ", " + good.toJson() + "]}\n");

    // One response line per slot, in request order.
    const std::string first = harness.readResponse();
    const std::string second = harness.readResponse();
    const std::string third = harness.readResponse();
    EXPECT_EQ(first.find("\"error\""), std::string::npos) << first;
    EXPECT_NE(second.find("invalid experiment request: unknown policy "
                          "'lru2'"),
              std::string::npos)
        << second;
    EXPECT_EQ(first, third);
    const ExperimentResult result = decodeResponseDocument(first);
    EXPECT_GT(result.misses, 0u);
}

TEST(Daemon, MalformedLinesGetErrorDocuments)
{
    DaemonHarness harness;
    writeAll(harness.fd(), "{nope\n");
    std::string line = harness.readResponse();
    EXPECT_NE(line.find("request parse error"), std::string::npos)
        << line;

    writeAll(harness.fd(), "42\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("must be a JSON object"), std::string::npos)
        << line;

    // Error documents are still valid casim-stats-1 JSON.
    json::Value doc;
    std::string error;
    EXPECT_TRUE(json::parse(line, doc, &error)) << error;

    // And the connection survives for a real request afterwards.
    writeAll(harness.fd(), "{\"op\": \"ping\"}\n");
    EXPECT_NE(harness.readResponse().find("pong"), std::string::npos);
}

TEST(Daemon, OverlongLineIsRefusedAndClosesTheConnection)
{
    DaemonHarness harness;
    writeAll(harness.fd(), "{\"op\": \"ping\"}\n");
    EXPECT_NE(harness.readResponse().find("pong"), std::string::npos);

    // A daemon that kept buffering would never answer: bound the wait
    // so that shows as a failed read instead of a hang.
    const timeval timeout{60, 0};
    ASSERT_EQ(::setsockopt(harness.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);

    // One line just over the limit, newline never sent.  The daemon
    // stops reading at the limit and closes, so the writer runs on its
    // own thread and stops at the first failed send.
    std::thread writer([fd = harness.fd()] {
        const std::string chunk(64 * 1024, 'x');
        std::size_t sent = 0;
        while (sent <= kMaxRequestLineBytes) {
            const ssize_t n =
                ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
            if (n <= 0)
                return;
            sent += static_cast<std::size_t>(n);
        }
    });
    const std::string line = harness.readResponse();
    writer.join();
    EXPECT_NE(line.find("\"bad_request\""), std::string::npos) << line;
    EXPECT_NE(line.find("request line longer than " +
                        std::to_string(kMaxRequestLineBytes) + " bytes"),
              std::string::npos)
        << line;
    // The connection is closed after the error.
    EXPECT_EQ(harness.readResponse(), "");

    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(harness.daemon().statsDocument(), doc, &error))
        << error;
    const json::Value *stats = doc.find("stats");
    ASSERT_NE(stats, nullptr);
    const json::Value *group = stats->find("casimd");
    ASSERT_NE(group, nullptr);
    const json::Value *overlong = group->find("casimd.overlong_lines");
    ASSERT_NE(overlong, nullptr);
    ASSERT_NE(overlong->find("value"), nullptr);
    EXPECT_EQ(overlong->find("value")->number(), 1.0);
}

TEST(Daemon, HelloNegotiatesProtocol)
{
    DaemonHarness harness;

    // A bare hello negotiates the newest protocol.
    writeAll(harness.fd(), "{\"op\": \"hello\"}\n");
    std::string line = harness.readResponse();
    EXPECT_EQ(line.find("\"error\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"hello\""), std::string::npos) << line;
    EXPECT_NE(line.find("[\"protocol\", \"2\"]"), std::string::npos)
        << line;
    EXPECT_NE(line.find("[\"min_protocol\", \"1\"]"), std::string::npos)
        << line;
    EXPECT_NE(line.find("[\"max_protocol\", \"2\"]"), std::string::npos)
        << line;
    EXPECT_NE(line.find("[\"server\", \"casimd\"]"), std::string::npos)
        << line;

    // An explicit supported version is echoed back.
    writeAll(harness.fd(), "{\"op\": \"hello\", \"protocol\": 1}\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("[\"protocol\", \"1\"]"), std::string::npos)
        << line;

    // Out-of-range versions get the stable protocol_mismatch code.
    writeAll(harness.fd(), "{\"op\": \"hello\", \"protocol\": 99}\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("unsupported protocol 99 (supported: 1..2)"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"error_code\": \"protocol_mismatch\""),
              std::string::npos)
        << line;

    // A non-integer version is a malformed request, not a mismatch.
    writeAll(harness.fd(), "{\"op\": \"hello\", \"protocol\": 1.5}\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("\"error_code\": \"bad_request\""),
              std::string::npos)
        << line;
}

TEST(Daemon, ErrorRepliesCarryStableCodes)
{
    DaemonHarness harness;

    writeAll(harness.fd(), "{nope\n");
    std::string line = harness.readResponse();
    EXPECT_NE(line.find("\"error_code\": \"bad_request\""),
              std::string::npos)
        << line;

    writeAll(harness.fd(), "{\"op\": \"flush\"}\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("\"error_code\": \"unknown_op\""),
              std::string::npos)
        << line;

    // Per-slot validation errors keep the validate() message and add
    // the field-specific code.
    ExperimentRequest bad;
    bad.workload = "canneal";
    bad.config = testConfig();
    bad.policy = "lru2";
    writeAll(harness.fd(),
             "{\"op\": \"batch\", \"requests\": [" + bad.toJson() +
                 "]}\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("invalid experiment request: unknown policy "
                        "'lru2'"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"error_code\": \"unknown_policy\""),
              std::string::npos)
        << line;

    bad.policy = "lru";
    bad.workload = "cannealx";
    writeAll(harness.fd(), bad.toJson() + "\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("\"error_code\": \"unknown_workload\""),
              std::string::npos)
        << line;
}

TEST(Daemon, UnregisteredPolicyIsRefusedAndTheDaemonKeepsServing)
{
    // "sharing-aware" once passed validation and then killed the
    // process when the cell tried to build it.
    DaemonHarness harness;
    ExperimentRequest bad;
    bad.workload = "canneal";
    bad.config = testConfig();
    for (const char *name : {"sharing-aware", "random", "lip", "bip"}) {
        bad.policy = name;
        writeAll(harness.fd(), bad.toJson() + "\n");
        const std::string line = harness.readResponse();
        EXPECT_NE(line.find("\"error_code\": \"unknown_policy\""),
                  std::string::npos)
            << line;
    }

    ExperimentRequest base = bad;
    base.policy = "lru";
    writeAll(harness.fd(),
             "{\"op\": \"sweep\", \"base\": " + base.toJson() +
                 ", \"policies\": [\"lru\", \"sharing-aware\"]}\n");
    std::string line = harness.readResponse();
    EXPECT_NE(line.find("sweep axis 'policies'[1]: unknown policy "
                        "'sharing-aware'"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"error_code\": \"unknown_policy\""),
              std::string::npos)
        << line;

    writeAll(harness.fd(), "{\"op\": \"ping\"}\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("pong"), std::string::npos) << line;
}

TEST(Daemon, SweepExpandsCrossProductInOrder)
{
    ExperimentRequest base;
    base.workload = "canneal";
    base.config = testConfig();

    DaemonHarness harness;
    // The equivalent explicit batch, for byte-exact comparison.
    ExperimentRequest lru = base;
    ExperimentRequest srrip = base;
    srrip.policy = "srrip";
    writeAll(harness.fd(),
             "{\"op\": \"batch\", \"requests\": [" + lru.toJson() +
                 ", " + srrip.toJson() + "]}\n");
    const std::string batch_first = harness.readResponse();
    const std::string batch_second = harness.readResponse();

    writeAll(harness.fd(),
             "{\"op\": \"sweep\", \"base\": " + base.toJson() +
                 ", \"policies\": [\"lru\", \"srrip\"]}\n");
    const std::string header = harness.readResponse();
    EXPECT_EQ(header.find("\"error\""), std::string::npos) << header;
    EXPECT_NE(header.find("[\"cells\", \"2\"]"), std::string::npos)
        << header;
    EXPECT_NE(header.find(
                  "[\"order\", \"workloads, policies, llc_bytes\"]"),
              std::string::npos)
        << header;
    // One result line per cell, policies in request order, identical
    // to the explicit batch byte for byte.
    EXPECT_EQ(harness.readResponse(), batch_first);
    EXPECT_EQ(harness.readResponse(), batch_second);
}

TEST(Daemon, SweepRejectsBadAxesAndOverCapExpansions)
{
    DaemonHarness harness;
    ExperimentRequest base;
    base.workload = "canneal";
    base.config = testConfig();

    writeAll(harness.fd(), "{\"op\": \"sweep\"}\n");
    std::string line = harness.readResponse();
    EXPECT_NE(line.find("op 'sweep' needs a 'base' request object"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"error_code\": \"bad_request\""),
              std::string::npos)
        << line;

    writeAll(harness.fd(),
             "{\"op\": \"sweep\", \"base\": " + base.toJson() +
                 ", \"polices\": [\"lru\"]}\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("unknown sweep field 'polices'"),
              std::string::npos)
        << line;

    // Axis diagnostics name the axis, the index and the known values.
    writeAll(harness.fd(),
             "{\"op\": \"sweep\", \"base\": " + base.toJson() +
                 ", \"policies\": [\"lru\", \"lru2\"]}\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("sweep axis 'policies'[1]: unknown policy "
                        "'lru2'"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"error_code\": \"unknown_policy\""),
              std::string::npos)
        << line;

    writeAll(harness.fd(),
             "{\"op\": \"sweep\", \"base\": " + base.toJson() +
                 ", \"workloads\": []}\n");
    line = harness.readResponse();
    EXPECT_NE(
        line.find("sweep axis 'workloads' must be a non-empty array"),
        std::string::npos)
        << line;

    // An expansion beyond the cap is refused before any cell runs.
    std::string llc_bytes = "[";
    for (int i = 0; i < 1025; ++i)
        llc_bytes += (i ? ", " : "") + std::to_string(65536 + i * 64);
    llc_bytes += "]";
    writeAll(harness.fd(),
             "{\"op\": \"sweep\", \"base\": " + base.toJson() +
                 ", \"llc_bytes\": " + llc_bytes + "}\n");
    line = harness.readResponse();
    EXPECT_NE(
        line.find("sweep expands to 1 x 1 x 1025 cells (cap 1024)"),
        std::string::npos)
        << line;
    EXPECT_NE(line.find("\"error_code\": \"capacity\""),
              std::string::npos)
        << line;
}

TEST(Daemon, ConcurrentClientsShareTheResidentCache)
{
    ExperimentRequest request;
    request.workload = "streamcluster";
    request.config = testConfig();

    CaptureCache cache;
    ParallelRunner runner(2);
    ExperimentQueue local(cache, runner);
    const auto expected = local.run(request).toRows();

    ExperimentDaemon daemon(testConfig(), 2);
    constexpr int kClients = 3;
    int client_fds[kClients];
    std::vector<std::thread> servers;
    for (int c = 0; c < kClients; ++c) {
        int sv[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        client_fds[c] = sv[0];
        const int server = sv[1];
        servers.emplace_back([&daemon, server] {
            daemon.serveConnection(server, server);
            ::close(server);
        });
    }

    std::vector<std::thread> clients;
    std::vector<std::string> replies(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            const int fd = client_fds[c];
            std::string pending;
            std::string payload = request.toJson() + "\n";
            std::size_t done = 0;
            while (done < payload.size()) {
                const ssize_t n = ::write(fd, payload.data() + done,
                                          payload.size() - done);
                if (n <= 0)
                    break;
                done += static_cast<std::size_t>(n);
            }
            replies[c] = readLine(fd, pending);
            ::shutdown(fd, SHUT_WR);
        });
    }
    for (auto &t : clients)
        t.join();
    for (auto &t : servers)
        t.join();
    for (int c = 0; c < kClients; ++c) {
        EXPECT_EQ(decodeResponseDocument(replies[c]).toRows(),
                  expected);
        ::close(client_fds[c]);
    }

    // One capture identity: every client after the first resolved it
    // from the resident store.
    EXPECT_EQ(daemon.cache().counter("memo_hits"), kClients - 1u);
}

TEST(Daemon, ShutdownOpDrainsBufferedRequests)
{
    ExperimentRequest request;
    request.workload = "canneal";
    request.config = testConfig();

    DaemonHarness harness;
    // One write carrying a request, the shutdown op, and another
    // request behind it: all three lines were read before the stop
    // takes effect, so all three must be answered (no torn or dropped
    // documents) before the connection closes.
    writeAll(harness.fd(), request.toJson() + "\n" +
                               "{\"op\": \"shutdown\"}\n" +
                               request.toJson() + "\n");
    const std::string first = harness.readResponse();
    const std::string second = harness.readResponse();
    const std::string third = harness.readResponse();
    EXPECT_GT(decodeResponseDocument(first).misses, 0u);
    EXPECT_NE(second.find("shutting down"), std::string::npos);
    EXPECT_EQ(third, first);
    EXPECT_TRUE(harness.daemon().stopping());
    // EOF follows the drained responses.
    EXPECT_EQ(harness.readResponse(), "");
}

TEST(Daemon, ShutdownDrainsConcurrentBatches)
{
    ExperimentRequest canneal;
    canneal.workload = "canneal";
    canneal.config = testConfig();
    ExperimentRequest dedup;
    dedup.workload = "dedup";
    dedup.config = testConfig();

    ExperimentDaemon daemon(testConfig(), 2);
    constexpr int kClients = 3;
    int client_fds[kClients];
    std::vector<std::thread> servers;
    for (int c = 0; c < kClients; ++c) {
        int sv[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        client_fds[c] = sv[0];
        const int server = sv[1];
        servers.emplace_back([&daemon, server] {
            daemon.serveConnection(server, server);
            ::shutdown(server, SHUT_RDWR);
        });
    }

    // Clients 1 and 2 submit two-cell batches with overlapping and
    // disjoint capture identities.
    writeAll(client_fds[1],
             "{\"op\": \"batch\", \"requests\": [" + canneal.toJson() +
                 ", " + dedup.toJson() + "]}\n");
    writeAll(client_fds[2],
             "{\"op\": \"batch\", \"requests\": [" + dedup.toJson() +
                 ", " + canneal.toJson() + "]}\n");

    // Wait until both batches are actually in the queue — the atomic
    // counters are readable mid-batch — so the shutdown below lands
    // while work is in flight.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
        const auto submitted = stats::counterValue(
            daemon.queue().stats().find("queue.submitted"));
        if (submitted.value_or(0) >= 4)
            break;
        std::this_thread::yield();
    }

    // Client 0 buffers a request and the shutdown in one write: its
    // request and both in-flight batches must all be answered with
    // complete documents before the connections close.
    writeAll(client_fds[0],
             canneal.toJson() + "\n{\"op\": \"shutdown\"}\n");

    std::string pending0, pending1, pending2;
    const std::string own = readLine(client_fds[0], pending0);
    EXPECT_GT(decodeResponseDocument(own).misses, 0u);
    EXPECT_NE(readLine(client_fds[0], pending0).find("shutting down"),
              std::string::npos);

    const std::string one_a = readLine(client_fds[1], pending1);
    const std::string one_b = readLine(client_fds[1], pending1);
    const std::string two_a = readLine(client_fds[2], pending2);
    const std::string two_b = readLine(client_fds[2], pending2);
    EXPECT_GT(decodeResponseDocument(one_a).misses, 0u);
    EXPECT_GT(decodeResponseDocument(two_b).misses, 0u);
    // The mirrored batches resolve to the same cells.
    EXPECT_EQ(decodeResponseDocument(one_a).toRows(),
              decodeResponseDocument(two_b).toRows());
    EXPECT_EQ(decodeResponseDocument(one_b).toRows(),
              decodeResponseDocument(two_a).toRows());

    EXPECT_TRUE(daemon.stopping());
    for (auto &thread : servers)
        thread.join();
    for (int c = 0; c < kClients; ++c)
        ::close(client_fds[c]);
}

TEST(Daemon, DecodeResponseDocumentIsFatalOnErrorReply)
{
    std::string line;
    {
        // Scoped so the connection thread is joined before the death
        // test forks.
        DaemonHarness harness;
        writeAll(harness.fd(), "{\"op\": \"nope\"}\n");
        line = harness.readResponse();
    }
    EXPECT_DEATH(decodeResponseDocument(line), "casimd: unknown op");
}

} // namespace
} // namespace casim
