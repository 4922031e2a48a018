/**
 * @file
 * TCP transport + protocol-extension tests: a loopback daemon must
 * answer bit-identically to direct simulation, survive the whole
 * pinned malformed-frame table on one connection, expose its fleet
 * topology through the {"fleet":true} probe (and refuse it when not
 * part of a fleet), accept `put` write-through, and the client's
 * connect retry must ride out a daemon that binds late. The accept
 * loop must join finished connections, and the socket line reader
 * must return every line exactly once.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include "conform/ops.hh"
#include "core/unrolling.hh"
#include "fleet/topology.hh"
#include "gan/models.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/engine.hh"
#include "serve/protocol.hh"
#include "sim/json.hh"
#include "sim/phase.hh"
#include "util/logging.hh"

namespace {

using namespace ganacc;
namespace fs = std::filesystem;

std::string
scratchDir(const char *tag)
{
    return (fs::temp_directory_path() /
            ("ganacc-tcp-test-" + std::to_string(::getpid()) + "-" +
             tag))
        .string();
}

/** One loopback TCP daemon on an ephemeral port, its own cache. */
class TcpDaemon
{
  public:
    explicit TcpDaemon(serve::EngineOptions eo)
    {
        eo.ownCache = true;
        engine_ = std::make_unique<serve::Engine>(eo);
        const int listener = serve::listenTcp("127.0.0.1:0", &bound_);
        thread_ = std::thread([this, listener] {
            serve::serveListener(listener, *engine_, stop_);
        });
    }

    ~TcpDaemon()
    {
        stop_.store(true);
        thread_.join();
    }

    const std::string &address() const { return bound_; }

  private:
    std::string bound_;
    std::unique_ptr<serve::Engine> engine_;
    std::thread thread_;
    std::atomic<bool> stop_{false};
};

serve::Request
specRequest(std::uint64_t id, core::ArchKind kind,
            const sim::Unroll &u, const sim::ConvSpec &spec)
{
    serve::Request req;
    req.id = id;
    req.kind = kind;
    req.unroll = u;
    req.hasSpec = true;
    req.spec = spec;
    return req;
}

TEST(ServeTcp, AddressClassifierSplitsTcpFromUnixPaths)
{
    EXPECT_TRUE(serve::isTcpAddress("127.0.0.1:7741"));
    EXPECT_TRUE(serve::isTcpAddress("localhost:80"));
    EXPECT_TRUE(serve::isTcpAddress(":7741"));
    EXPECT_FALSE(serve::isTcpAddress("/tmp/ganacc.sock"));
    EXPECT_FALSE(serve::isTcpAddress("ganacc.sock"));
    EXPECT_FALSE(serve::isTcpAddress("./relative:odd/path"));
}

TEST(ServeTcp, LoopbackDaemonServesBitIdenticalStats)
{
    serve::EngineOptions eo;
    eo.jobs = 2;
    eo.deterministic = true;
    TcpDaemon daemon(eo);

    serve::Client client;
    client.connect(daemon.address());

    const gan::GanModel model = gan::makeMnistGan();
    const sim::Unroll u = core::paperUnroll(
        core::ArchKind::NLR, core::BankRole::ST, sim::PhaseFamily::D,
        1200);
    std::uint64_t id = 1;
    for (const auto &job :
         sim::familyJobs(model, sim::PhaseFamily::D)) {
        const serve::Response rsp = client.roundTrip(
            specRequest(id, core::ArchKind::NLR, u, job));
        ASSERT_TRUE(rsp.ok) << rsp.error;
        EXPECT_EQ(rsp.id, id);
        const sim::RunStats direct =
            core::makeArch(core::ArchKind::NLR, u)->run(job);
        EXPECT_EQ(sim::toJson(rsp.stats), sim::toJson(direct));
        ++id;
    }
}

TEST(ServeTcp, OneConnectionSurvivesTheWholeMalformedTable)
{
    serve::EngineOptions eo;
    eo.jobs = 1;
    eo.deterministic = true;
    TcpDaemon daemon(eo);

    serve::Client client;
    client.connect(daemon.address());
    for (const conform::MalformedFrame &frame :
         conform::malformedFrames()) {
        const std::vector<std::string> out =
            serve::replayLines(client, {frame.line});
        ASSERT_EQ(out.size(), 1u) << frame.name;
        const serve::Response rsp = serve::decodeResponse(out[0]);
        EXPECT_FALSE(rsp.ok) << frame.name;
        EXPECT_EQ(rsp.error, frame.error) << frame.name;
    }
    // The connection is still healthy: a probe round-trips.
    serve::Request probe;
    probe.id = 1;
    probe.statsProbe = true;
    const serve::Response rsp = client.roundTrip(probe);
    EXPECT_TRUE(rsp.ok) << rsp.error;
}

TEST(ServeTcp, FleetProbeAnswersTheConfiguredTopology)
{
    fleet::Topology topo;
    topo.shards = {"127.0.0.1:7741", "127.0.0.1:7742",
                   "127.0.0.1:7743"};
    topo.rf = 2;
    topo.self = 2;

    serve::EngineOptions eo;
    eo.jobs = 1;
    eo.deterministic = true;
    eo.fleetJson = fleet::toJson(topo);
    TcpDaemon daemon(eo);

    serve::Client client;
    client.connect(daemon.address());
    serve::Request probe;
    probe.id = 7;
    probe.fleetProbe = true;
    const serve::Response rsp = client.roundTrip(probe);
    ASSERT_TRUE(rsp.ok) << rsp.error;
    EXPECT_EQ(rsp.fleet, fleet::toJson(topo));
    const fleet::Topology back = fleet::topologyFromJson(rsp.fleet);
    EXPECT_EQ(back.shards, topo.shards);
    EXPECT_EQ(back.self, 2);
}

TEST(ServeTcp, FleetProbeOnALoneDaemonIsAPinnedError)
{
    serve::EngineOptions eo;
    eo.jobs = 1;
    eo.deterministic = true;
    TcpDaemon daemon(eo);

    serve::Client client;
    client.connect(daemon.address());
    serve::Request probe;
    probe.id = 3;
    probe.fleetProbe = true;
    const serve::Response rsp = client.roundTrip(probe);
    EXPECT_FALSE(rsp.ok);
    EXPECT_EQ(rsp.error, "daemon is not part of a fleet");
}

TEST(ServeTcp, PutWritesThroughAndTheNextRequestServesFromMemory)
{
    const std::string store = scratchDir("put");
    fs::remove_all(store);
    serve::EngineOptions eo;
    eo.jobs = 1;
    eo.deterministic = true;
    eo.cacheDir = store;
    TcpDaemon daemon(eo);

    serve::Client client;
    client.connect(daemon.address());

    const gan::GanModel model = gan::makeMnistGan();
    const sim::Unroll u = core::paperUnroll(
        core::ArchKind::NLR, core::BankRole::ST, sim::PhaseFamily::D,
        1200);
    const sim::ConvSpec job =
        sim::familyJobs(model, sim::PhaseFamily::D).front();
    const sim::RunStats direct =
        core::makeArch(core::ArchKind::NLR, u)->run(job);

    serve::Request put;
    put.id = 1;
    put.kind = core::ArchKind::NLR;
    put.unroll = u;
    put.spec = job;
    put.put = true;
    put.putStats = direct;
    put.putSimVersion = serve::simulatorVersion();
    const serve::Response ack = client.roundTrip(put);
    ASSERT_TRUE(ack.ok) << ack.error;
    EXPECT_EQ(ack.cache, "put");
    EXPECT_EQ(sim::toJson(ack.stats), sim::toJson(direct));

    // The entry landed on disk at the content-key fan-out path…
    const std::string key =
        serve::contentKey(core::ArchKind::NLR, u, job);
    EXPECT_TRUE(fs::exists(store + "/" + key.substr(0, 2) + "/" +
                           key + ".json"));

    // …and the daemon now serves the triple from memory, no sim run.
    const serve::Response got =
        client.roundTrip(specRequest(2, core::ArchKind::NLR, u, job));
    ASSERT_TRUE(got.ok) << got.error;
    EXPECT_EQ(got.cache, "mem");
    EXPECT_EQ(sim::toJson(got.stats), sim::toJson(direct));
    fs::remove_all(store);
}

TEST(ServeTcp, PutWithAForeignSimVersionIsRefused)
{
    serve::EngineOptions eo;
    eo.jobs = 1;
    eo.deterministic = true;
    TcpDaemon daemon(eo);

    serve::Client client;
    client.connect(daemon.address());

    const gan::GanModel model = gan::makeMnistGan();
    const sim::Unroll u = core::paperUnroll(
        core::ArchKind::NLR, core::BankRole::ST, sim::PhaseFamily::D,
        1200);
    const sim::ConvSpec job =
        sim::familyJobs(model, sim::PhaseFamily::D).front();

    serve::Request put;
    put.id = 1;
    put.kind = core::ArchKind::NLR;
    put.unroll = u;
    put.spec = job;
    put.put = true;
    put.putStats = core::makeArch(core::ArchKind::NLR, u)->run(job);
    put.putSimVersion = "sim-v0-foreign";
    const serve::Response rsp = client.roundTrip(put);
    EXPECT_FALSE(rsp.ok);
    EXPECT_EQ(rsp.error,
              "fatal: put carries simulator version "
              "\"sim-v0-foreign\", this daemon runs \"" +
                  serve::simulatorVersion() + "\"");
}

/** Satellite: connect retry against a daemon that binds late. */
TEST(ServeTcp, ConnectRetryRidesOutALateBindingDaemon)
{
    const std::string sock = scratchDir("late") + ".sock";
    fs::remove(sock);

    serve::EngineOptions eo;
    eo.jobs = 1;
    eo.deterministic = true;
    eo.ownCache = true;
    serve::Engine engine(eo);
    std::atomic<bool> stop{false};

    // The daemon binds ~100ms after the client starts dialing.
    std::thread daemon([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        serve::runSocketServer(sock, engine, stop);
    });

    serve::ConnectOptions copt;
    copt.retries = 50;
    copt.backoffMs = 5;
    serve::Client client;
    client.connect(sock, copt); // throws if the retry loop gives up

    serve::Request probe;
    probe.id = 1;
    probe.statsProbe = true;
    const serve::Response rsp = client.roundTrip(probe);
    EXPECT_TRUE(rsp.ok) << rsp.error;

    client.close();
    stop.store(true);
    daemon.join();
    fs::remove(sock);
}

TEST(ServeTcp, ZeroRetriesOnAMissingEndpointFailsFast)
{
    serve::ConnectOptions copt;
    copt.retries = 0;
    serve::Client client;
    EXPECT_THROW(client.connect(scratchDir("nope") + ".sock", copt),
                 util::FatalError);
}

} // namespace

namespace {

/** This process's VmSize in kB, from /proc/self/status. */
long
vmSizeKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmSize:", 0) == 0)
            return std::stol(line.substr(7));
    return -1;
}

} // namespace

TEST(ServeTcp, FinishedConnectionsAreJoinedAsTheyEnd)
{
    // One malloc arena, so that VmSize moves with thread stacks and
    // not with the 64 MB arena reservations new threads may make. A
    // sanitizer's allocator has no such arenas and refuses the call.
    mallopt(M_ARENA_MAX, 1);
    serve::EngineOptions eo;
    eo.jobs = 1;
    TcpDaemon daemon(eo);
    auto oneConnection = [&] {
        serve::Client client;
        client.connect(daemon.address());
        serve::Request probe;
        probe.id = 1;
        probe.statsProbe = true;
        const serve::Response rsp = client.roundTrip(probe);
        EXPECT_TRUE(rsp.ok) << rsp.error;
    };
    // The first connections map the allocator arenas and cached
    // stacks that later ones reuse.
    for (int i = 0; i < 8; ++i)
        oneConnection();
    const long before = vmSizeKb();
    ASSERT_GT(before, 0);
    for (int i = 0; i < 64; ++i)
        oneConnection();
    const long grown = vmSizeKb() - before;

    pthread_attr_t attr;
    ASSERT_EQ(0, pthread_getattr_default_np(&attr));
    std::size_t stack = 0;
    pthread_attr_getstacksize(&attr, &stack);
    pthread_attr_destroy(&attr);
    // Unjoined, 64 connections would keep 64 stacks mapped.
    EXPECT_LT(grown, 4 * long(stack / 1024))
        << "VmSize grew " << grown << " kB over 64 connections";
}

TEST(ServeTcp, FdLineReaderReturnsEveryLineOnce)
{
    int fds[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    auto sendAll = [&](const std::string &bytes) {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n = ::send(fds[1], bytes.data() + off,
                                     bytes.size() - off, 0);
            ASSERT_GT(n, 0);
            off += std::size_t(n);
        }
    };
    serve::FdLineReader reader(fds[0]);
    std::string line;

    // Many lines in one read: all are buffered before the first.
    std::string batch;
    for (int i = 0; i < 64; ++i)
        batch += "line " + std::to_string(i) + "\n";
    sendAll(batch);
    for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(reader.getline(line));
        EXPECT_EQ(line, "line " + std::to_string(i));
    }

    // A line split across reads, a 1 MB line (far more than one read
    // and than the socket buffer, so a second thread writes), and a
    // final line with no '\n' before EOF.
    const std::string big(std::size_t(1) << 20, 'x');
    sendAll("a split ");
    std::thread writer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        sendAll("line\n" + big + "\n" + "tail");
        ::shutdown(fds[1], SHUT_WR);
    });
    ASSERT_TRUE(reader.getline(line));
    EXPECT_EQ(line, "a split line");
    ASSERT_TRUE(reader.getline(line));
    EXPECT_EQ(line.size(), big.size());
    EXPECT_TRUE(line == big);
    ASSERT_TRUE(reader.getline(line));
    EXPECT_EQ(line, "tail");
    EXPECT_FALSE(reader.getline(line));
    writer.join();
    ::close(fds[0]);
    ::close(fds[1]);
}
