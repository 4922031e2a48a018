/**
 * @file
 * Fleet-layer tests: consistent-hash ring placement (determinism,
 * coverage, stability under shard loss, replica-walk invariants),
 * topology JSON round-trips, the telemetry merge arithmetic pinned
 * byte-exactly, and a live in-process 3-shard TCP fleet — routed
 * responses must be bit-identical to direct simulation, fresh results
 * must replicate to RF=2 stores, a dead primary must fail over to its
 * replica, a rolling restart of every shard must lose nothing, and a
 * shedding shard must be retried with backoff by the router.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "core/unrolling.hh"
#include "fleet/ring.hh"
#include "fleet/router.hh"
#include "fleet/stats.hh"
#include "fleet/topology.hh"
#include "fleet/trace_merge.hh"
#include "gan/models.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/daemon.hh"
#include "serve/engine.hh"
#include "serve/protocol.hh"
#include "sim/json.hh"
#include "sim/phase.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace {

using namespace ganacc;
namespace fs = std::filesystem;

std::vector<std::string>
fakeShards(int n)
{
    std::vector<std::string> out;
    for (int i = 0; i < n; ++i)
        out.push_back("10.0.0." + std::to_string(i + 1) + ":7741");
    return out;
}

TEST(FleetRing, PlacementIsDeterministicAndCoversEveryShard)
{
    const auto shards = fakeShards(3);
    const fleet::Ring a(shards, 64);
    const fleet::Ring b(shards, 64);
    EXPECT_EQ(a.points(), b.points());
    EXPECT_EQ(a.shardCount(), 3);

    std::set<int> owners;
    for (int k = 0; k < 2000; ++k)
        owners.insert(a.primary("key-" + std::to_string(k)));
    EXPECT_EQ(owners.size(), 3u)
        << "2000 keys must touch every shard of a 3-shard ring";
}

TEST(FleetRing, LosingOneShardOnlyRemapsItsOwnKeys)
{
    const auto three = fakeShards(3);
    const std::vector<std::string> two(three.begin(),
                                       three.begin() + 2);
    const fleet::Ring before(three, 64);
    const fleet::Ring after(two, 64);

    int remapped = 0, kept = 0;
    for (int k = 0; k < 2000; ++k) {
        const std::string key = "key-" + std::to_string(k);
        const int p = before.primary(key);
        if (p == 2) {
            ++remapped; // the lost shard's keys move somewhere
            continue;
        }
        EXPECT_EQ(after.primary(key), p)
            << "a surviving shard's key must not move: " << key;
        ++kept;
    }
    EXPECT_GT(remapped, 0);
    EXPECT_GT(kept, 0);
}

TEST(FleetRing, ReplicaWalkIsDistinctPrimaryFirstAndClamped)
{
    const fleet::Ring ring(fakeShards(3), 64);
    for (int k = 0; k < 200; ++k) {
        const std::string key = "key-" + std::to_string(k);
        const std::vector<int> two = ring.replicas(key, 2);
        ASSERT_EQ(two.size(), 2u);
        EXPECT_EQ(two[0], ring.primary(key));
        EXPECT_NE(two[0], two[1]);
        const std::vector<int> clamped = ring.replicas(key, 10);
        ASSERT_EQ(clamped.size(), 3u) << "rf clamps to fleet size";
        EXPECT_EQ(std::set<int>(clamped.begin(), clamped.end()).size(),
                  3u);
        EXPECT_EQ(clamped[0], two[0]);
        EXPECT_EQ(clamped[1], two[1])
            << "the rf=2 walk must be a prefix of the rf=3 walk";
    }
}

/** Exact keyspace shares from the ring points: point i owns the arc
 *  (p[i-1], p[i]], and the first point the wrap-around arc too. */
std::vector<double>
arcShares(const fleet::Ring &ring)
{
    const auto &pts = ring.points();
    std::vector<double> share(std::size_t(ring.shardCount()), 0.0);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const std::uint64_t prev =
            pts[(i + pts.size() - 1) % pts.size()].first;
        share[std::size_t(pts[i].second)] +=
            double(pts[i].first - prev) / 18446744073709551616.0;
    }
    return share;
}

TEST(FleetRing, SharesStayBalancedOnLoopbackPorts)
{
    // Loopback shards differ only in their port digits, the layout of
    // every local fleet and of the serving benchmark; 64 vnodes each.
    util::Rng rng(0xB41A4CEULL);
    for (int draw = 0; draw < 50; ++draw) {
        for (const auto &[n, bound] : {std::pair{3, 0.50}, {2, 0.70}}) {
            std::set<int> ports;
            while (int(ports.size()) < n)
                ports.insert(rng.uniformInt(1024, 65535));
            std::vector<std::string> shards;
            for (int port : ports)
                shards.push_back("127.0.0.1:" + std::to_string(port));
            const std::vector<double> share =
                arcShares(fleet::Ring(shards, 64));
            for (int s = 0; s < n; ++s)
                EXPECT_LE(share[std::size_t(s)], bound)
                    << n << " shards, draw " << draw << ": "
                    << shards[std::size_t(s)] << " owns "
                    << share[std::size_t(s)] << " of the keyspace";
        }
    }
}

TEST(FleetTopology, JsonRoundTripsAndShardListParses)
{
    fleet::Topology t;
    t.shards = {"127.0.0.1:7741", "127.0.0.1:7742"};
    t.vnodes = 32;
    t.rf = 2;
    t.self = 1;
    const fleet::Topology back =
        fleet::topologyFromJson(fleet::toJson(t));
    EXPECT_EQ(back.shards, t.shards);
    EXPECT_EQ(back.vnodes, t.vnodes);
    EXPECT_EQ(back.rf, t.rf);
    EXPECT_EQ(back.self, t.self);
    EXPECT_EQ(fleet::toJson(back), fleet::toJson(t));

    const fleet::Topology csv =
        fleet::parseShardList("a:1,b:2,c:3");
    EXPECT_EQ(csv.shards,
              (std::vector<std::string>{"a:1", "b:2", "c:3"}));
    EXPECT_EQ(csv.vnodes, 64);
    EXPECT_EQ(csv.rf, 2);
    EXPECT_EQ(csv.self, -1);
}

/** Satellite: the merge is pure integer arithmetic — pin it. */
TEST(FleetStats, MergeArithmeticIsPinnedByteExact)
{
    const std::string a =
        "{\"counters\":{\"x\":2,\"y\":3},\"gauges\":{\"g\":1},"
        "\"histograms\":{\"h\":{\"count\":2,\"sum\":10,"
        "\"buckets\":[1,1]}}}";
    const std::string b =
        "{\"counters\":{\"x\":5},\"gauges\":{\"g\":4},"
        "\"histograms\":{\"h\":{\"count\":1,\"sum\":7,"
        "\"buckets\":[0,1]}}}";
    EXPECT_EQ(fleet::mergeTelemetry({a, b}),
              "{\"counters\":{\"x\":7,\"y\":3},\"gauges\":{\"g\":5},"
              "\"histograms\":{\"h\":{\"count\":3,\"sum\":17,"
              "\"buckets\":[1,2]}}}");
    // Unreachable shards (empty snapshots) contribute nothing.
    EXPECT_EQ(fleet::mergeTelemetry({a, "", a}),
              fleet::mergeTelemetry({a, a}));
    // Mismatched bucket layouts are a config error, not a zero.
    const std::string shortBuckets =
        "{\"counters\":{},\"gauges\":{},\"histograms\":"
        "{\"h\":{\"count\":1,\"sum\":1,\"buckets\":[1]}}}";
    EXPECT_THROW(fleet::mergeTelemetry({a, shortBuckets}),
                 util::FatalError);
}

/** Satellite: the merged latency summary is exact integer arithmetic
 *  over the aggregate power-of-two histogram — pin the whole report. */
TEST(FleetStats, LatencyQuantilesArePinnedByteExact)
{
    // 4-bucket layout (le 1, 2, 4, +Inf) keeps the fixture readable;
    // the quantile walk only depends on the shared bucket bounds.
    const std::string a =
        "{\"counters\":{},\"gauges\":{},\"histograms\":"
        "{\"ganacc_serve_latency_us\":{\"count\":3,\"sum\":30,"
        "\"buckets\":[1,1,1,0]}}}";
    const std::string b =
        "{\"counters\":{},\"gauges\":{},\"histograms\":"
        "{\"ganacc_serve_latency_us\":{\"count\":1,\"sum\":70,"
        "\"buckets\":[0,0,0,1]}}}";
    // Merged: count 4, sum 100, buckets [1,1,1,1]. p50 lands on le=2
    // (cumulative 2 of 4); p99 needs the +Inf bucket.
    EXPECT_EQ(
        fleet::fleetStatsReport({{"h1:1", a}, {"h2:2", b}}),
        "{\"fleet\":{\"shards\":2,\"reachable\":2},"
        "\"latency\":{\"count\":4,\"sumUs\":100,\"p50Le\":\"2\","
        "\"p99Le\":\"+Inf\"},"
        "\"perShard\":[{\"shard\":0,\"address\":\"h1:1\","
        "\"telemetry\":" +
            a +
            "},{\"shard\":1,\"address\":\"h2:2\",\"telemetry\":" + b +
            "}],"
            "\"aggregate\":{\"counters\":{},\"gauges\":{},"
            "\"histograms\":{\"ganacc_serve_latency_us\":"
            "{\"count\":4,\"sum\":100,\"buckets\":[1,1,1,1]}}}}");

    // No latency histogram anywhere: the summary stays, zeroed.
    const std::string bare =
        "{\"counters\":{\"x\":1},\"gauges\":{},\"histograms\":{}}";
    const auto doc =
        util::json::parse(fleet::fleetStatsReport({{"h1:1", bare}}));
    const auto &lat = doc.asObject().at("latency").asObject();
    EXPECT_EQ(lat.at("count").asUint64(), 0u);
    EXPECT_EQ(lat.at("sumUs").asUint64(), 0u);
    EXPECT_EQ(lat.at("p50Le").asString(), "0");
    EXPECT_EQ(lat.at("p99Le").asString(), "0");
}

TEST(FleetStats, ReportCountsReachableAndKeepsShardRows)
{
    const std::string t =
        "{\"counters\":{\"x\":1},\"gauges\":{},\"histograms\":{}}";
    const std::string report = fleet::fleetStatsReport(
        {{"h1:1", t}, {"h2:2", ""}, {"h3:3", t}});
    const auto doc = util::json::parse(report);
    const auto &root = doc.asObject();
    EXPECT_EQ(root.at("fleet").asObject().at("shards").asUint64(),
              3u);
    EXPECT_EQ(root.at("fleet").asObject().at("reachable").asUint64(),
              2u);
    const auto &rows = root.at("perShard").asArray();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[1].asObject().at("address").asString(), "h2:2");
    EXPECT_TRUE(rows[1].asObject().at("telemetry").isNull());
    EXPECT_EQ(root.at("aggregate")
                  .asObject()
                  .at("counters")
                  .asObject()
                  .at("x")
                  .asUint64(),
              2u);
}

/** An in-process TCP fleet for the live tests: each shard owns its
 *  cache and store, restarts rebind the same address. The caller must
 *  disconnect the router from a shard before stopping it (an open
 *  idle connection holds the listener's drain). */
class TestFleet
{
  public:
    TestFleet(int n, std::string root, std::size_t maxQueue = 256,
              bool shed = false)
        : root_(std::move(root)), maxQueue_(maxQueue), shed_(shed)
    {
        fs::remove_all(root_);
        fs::create_directories(root_);
        shards_.resize(std::size_t(n));
        for (int i = 0; i < n; ++i)
            startShard(i, "127.0.0.1:0");
    }

    ~TestFleet()
    {
        for (std::size_t i = 0; i < shards_.size(); ++i)
            if (shards_[i]->thread.joinable())
                stopShard(int(i));
    }

    void
    startShard(int i, const std::string &addr)
    {
        auto sh = std::make_unique<Shard>();
        sh->store = root_ + "/store" + std::to_string(i);
        serve::EngineOptions eo;
        eo.jobs = 2;
        eo.maxQueue = maxQueue_;
        eo.cacheDir = sh->store;
        eo.deterministic = true;
        eo.ownCache = true;
        eo.shedOverload = shed_;
        sh->engine = std::make_unique<serve::Engine>(eo);
        const int listener = serve::listenTcp(addr, &sh->bound);
        Shard *raw = sh.get();
        sh->thread = std::thread([raw, listener] {
            serve::serveListener(listener, *raw->engine, raw->stop);
        });
        shards_[std::size_t(i)] = std::move(sh);
    }

    void
    stopShard(int i)
    {
        Shard &sh = *shards_[std::size_t(i)];
        sh.stop.store(true);
        sh.thread.join();
        sh.engine.reset();
    }

    std::vector<std::string>
    addresses() const
    {
        std::vector<std::string> out;
        for (const auto &sh : shards_)
            out.push_back(sh->bound);
        return out;
    }

    const std::string &
    storeOf(int i) const
    {
        return shards_[std::size_t(i)]->store;
    }

  private:
    struct Shard
    {
        std::string store;
        std::string bound;
        std::unique_ptr<serve::Engine> engine;
        std::thread thread;
        std::atomic<bool> stop{false};
    };

    std::string root_;
    std::size_t maxQueue_;
    bool shed_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

std::string
scratchRoot(const char *tag)
{
    return (fs::temp_directory_path() /
            ("ganacc-fleet-test-" + std::to_string(::getpid()) + "-" +
             tag))
        .string();
}

/** The mnist-gan jobs of `families` (D alone by default) as spec
 *  requests across two arch kinds — a real workload whose keys spread
 *  over the ring. Deduplicated by content key so every request has its
 *  own cache entry (repeated layer shapes would pipeline into
 *  single-flight "dup" followers and muddy tier assertions). */
std::vector<serve::Request>
sampleWorkload(std::initializer_list<sim::PhaseFamily> families = {
                   sim::PhaseFamily::D})
{
    std::vector<serve::Request> reqs;
    std::set<std::string> seen;
    const gan::GanModel model = gan::makeMnistGan();
    std::uint64_t id = 1;
    for (core::ArchKind kind :
         {core::ArchKind::NLR, core::ArchKind::ZFOST}) {
        for (sim::PhaseFamily family : families) {
            const sim::Unroll u = core::paperUnroll(
                kind, core::BankRole::ST, family, 1200);
            for (const auto &job : sim::familyJobs(model, family)) {
                if (!seen.insert(serve::contentKey(kind, u, job)).second)
                    continue;
                serve::Request req;
                req.id = id++;
                req.kind = kind;
                req.unroll = u;
                req.hasSpec = true;
                req.spec = job;
                reqs.push_back(req);
            }
        }
    }
    return reqs;
}

std::string
entryFile(const std::string &store, const std::string &key)
{
    return store + "/" + key.substr(0, 2) + "/" + key + ".json";
}

TEST(FleetLive, ThreeShardsServeBitIdenticalAndReplicateRfTwo)
{
    TestFleet shards(3, scratchRoot("identity"));
    fleet::RouterOptions ropt;
    ropt.topology.shards = shards.addresses();
    fleet::Router router(std::move(ropt));

    // Both families: about a dozen keys, so a balanced ring (see
    // SharesStayBalancedOnLoopbackPorts) spreads them all but surely.
    const auto reqs =
        sampleWorkload({sim::PhaseFamily::D, sim::PhaseFamily::G});
    std::vector<std::string> lines;
    for (const auto &req : reqs)
        lines.push_back(serve::encodeRequest(req));

    const auto cold = router.transactLines(lines);
    ASSERT_EQ(cold.size(), reqs.size());
    std::set<int> servingShards;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const serve::Response rsp = serve::decodeResponse(cold[i]);
        ASSERT_TRUE(rsp.ok) << rsp.error;
        EXPECT_EQ(rsp.id, reqs[i].id);
        const sim::RunStats direct =
            core::makeArch(reqs[i].kind, reqs[i].unroll)
                ->run(reqs[i].spec);
        EXPECT_EQ(sim::toJson(rsp.stats), sim::toJson(direct))
            << "fleet-served stats diverged from direct simulation";
        const std::string key = serve::contentKey(
            reqs[i].kind, reqs[i].unroll, reqs[i].spec);
        servingShards.insert(router.ring().primary(key));
        // RF=2: after the synchronous replication pass, both replica
        // stores hold the entry on disk.
        for (int r : router.ring().replicas(key, 2))
            EXPECT_TRUE(
                fs::exists(entryFile(shards.storeOf(r), key)))
                << "replica " << r << " missing " << key;
    }
    EXPECT_GT(servingShards.size(), 1u)
        << "the workload must actually spread over the ring";
    EXPECT_GT(router.counters().puts, 0u);
    EXPECT_EQ(router.counters().failovers, 0u);

    // Warm pass: byte-identical modulo the serving tier.
    const auto warm = router.transactLines(lines);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const serve::Response rsp = serve::decodeResponse(warm[i]);
        ASSERT_TRUE(rsp.ok);
        EXPECT_EQ(rsp.cache, "mem");
    }
}

TEST(FleetLive, DeadPrimaryFailsOverToTheWarmReplica)
{
    TestFleet shards(3, scratchRoot("failover"));
    fleet::RouterOptions ropt;
    ropt.topology.shards = shards.addresses();
    fleet::Router router(std::move(ropt));

    const auto reqs = sampleWorkload();
    std::vector<std::string> lines;
    for (const auto &req : reqs)
        lines.push_back(serve::encodeRequest(req));
    for (const std::string &line : router.transactLines(lines))
        ASSERT_TRUE(serve::decodeResponse(line).ok);

    // Kill the primary of the first request's key.
    const std::string key = serve::contentKey(
        reqs[0].kind, reqs[0].unroll, reqs[0].spec);
    const int primary = router.ring().primary(key);
    router.disconnect(primary);
    shards.stopShard(primary);

    const auto again = router.transactLines(lines);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const serve::Response rsp = serve::decodeResponse(again[i]);
        ASSERT_TRUE(rsp.ok)
            << "request " << i << " lost to a single shard death: "
            << rsp.error;
        const sim::RunStats direct =
            core::makeArch(reqs[i].kind, reqs[i].unroll)
                ->run(reqs[i].spec);
        EXPECT_EQ(sim::toJson(rsp.stats), sim::toJson(direct));
    }
    EXPECT_GT(router.counters().failovers, 0u);
}

TEST(FleetLive, RollingRestartOfEveryShardLosesNothing)
{
    TestFleet shards(3, scratchRoot("rolling"));
    std::vector<std::string> addrs = shards.addresses();
    fleet::RouterOptions ropt;
    ropt.topology.shards = addrs;
    fleet::Router router(std::move(ropt));

    const auto reqs = sampleWorkload();
    std::vector<std::string> lines;
    for (const auto &req : reqs)
        lines.push_back(serve::encodeRequest(req));

    for (int k = 0; k < 3; ++k) {
        for (const std::string &line : router.transactLines(lines))
            ASSERT_TRUE(serve::decodeResponse(line).ok);
        // Roll shard k: disconnect (the drain contract), stop, rebind
        // the same address so the ring placement never moves.
        router.disconnect(k);
        shards.stopShard(k);
        shards.startShard(k, addrs[std::size_t(k)]);
    }
    const auto final_pass = router.transactLines(lines);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const serve::Response rsp =
            serve::decodeResponse(final_pass[i]);
        ASSERT_TRUE(rsp.ok) << rsp.error;
        const sim::RunStats direct =
            core::makeArch(reqs[i].kind, reqs[i].unroll)
                ->run(reqs[i].spec);
        EXPECT_EQ(sim::toJson(rsp.stats), sim::toJson(direct));
    }
}

/** A shard whose admission queue never empties: every request line is
 *  answered with the pinned overloaded error. Speaking the real wire
 *  protocol from a scripted server makes the router's retry/backoff
 *  path fully deterministic — a live engine only sheds under racy
 *  queue pressure. */
class SheddingDaemon
{
  public:
    SheddingDaemon()
    {
        const int listener = serve::listenTcp("127.0.0.1:0", &bound_);
        thread_ = std::thread([this, listener] { serve(listener); });
    }

    ~SheddingDaemon() { thread_.join(); } ///< joins on client EOF

    const std::string &address() const { return bound_; }

  private:
    void
    serve(int listener)
    {
        const int fd = ::accept(listener, nullptr, nullptr);
        ::close(listener);
        if (fd < 0)
            return;
        std::string buf;
        char chunk[4096];
        ssize_t n;
        while ((n = ::read(fd, chunk, sizeof chunk)) > 0) {
            buf.append(chunk, std::size_t(n));
            std::size_t pos;
            while ((pos = buf.find('\n')) != std::string::npos) {
                const std::string line = buf.substr(0, pos);
                buf.erase(0, pos + 1);
                std::uint64_t id = 0;
                try {
                    id = serve::decodeRequest(line).id;
                } catch (const util::FatalError &) {
                }
                const std::string rsp =
                    serve::encodeResponse(serve::errorResponse(
                        id, serve::kOverloadedError)) +
                    "\n";
                std::size_t off = 0;
                while (off < rsp.size()) {
                    const ssize_t w = ::write(fd, rsp.data() + off,
                                              rsp.size() - off);
                    if (w <= 0)
                        break;
                    off += std::size_t(w);
                }
            }
        }
        ::close(fd);
    }

    std::string bound_;
    std::thread thread_;
};

TEST(FleetLive, ShedShardIsRetriedWithBackoffUntilTheBudgetEnds)
{
    SheddingDaemon shard;
    fleet::RouterOptions ropt;
    ropt.topology.shards = {shard.address()};
    ropt.topology.rf = 1;
    ropt.overloadRetries = 3;
    ropt.overloadBackoffMs = 1;
    {
        fleet::Router router(std::move(ropt));
        const auto reqs = sampleWorkload();
        const auto out =
            router.transactLines({serve::encodeRequest(reqs[0])});
        ASSERT_EQ(out.size(), 1u);
        const serve::Response rsp = serve::decodeResponse(out[0]);
        EXPECT_FALSE(rsp.ok);
        EXPECT_EQ(rsp.error, serve::kOverloadedError)
            << "past the retry budget the shed response is the answer";
        EXPECT_EQ(router.counters().overloadRetries, 3u);
    } // the router hangs up; the daemon thread exits on EOF
}

TEST(FleetLive, RecoveredQueuePressureEndsInAllOkResponses)
{
    // A real tiny queue (1 deep, 1 worker): sheds may or may not
    // happen depending on scheduling, but with retry the batch must
    // finish fully answered either way.
    TestFleet shards(2, scratchRoot("pressure"), /*maxQueue=*/1,
                     /*shed=*/true);
    fleet::RouterOptions ropt;
    ropt.topology.shards = shards.addresses();
    fleet::Router router(std::move(ropt));

    const auto reqs = sampleWorkload();
    std::vector<std::string> lines;
    for (const auto &req : reqs)
        lines.push_back(serve::encodeRequest(req));
    const auto out = router.transactLines(lines);
    ASSERT_EQ(out.size(), lines.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        const serve::Response rsp = serve::decodeResponse(out[i]);
        EXPECT_TRUE(rsp.ok)
            << "line " << i << " ended overloaded: " << rsp.error;
    }
}

TEST(FleetLive, BootstrapLearnsTheTopologyFromOneShard)
{
    TestFleet shards(2, scratchRoot("bootstrap"));
    // Re-create shard 0 with the fleet topology configured, as
    // ganacc-served --fleet would be.
    fleet::Topology topo;
    topo.shards = shards.addresses();
    topo.rf = 2;
    topo.self = 0;

    serve::EngineOptions eo;
    eo.jobs = 1;
    eo.deterministic = true;
    eo.ownCache = true;
    eo.fleetJson = fleet::toJson(topo);
    serve::Engine engine(eo);
    std::string bound;
    const int listener = serve::listenTcp("127.0.0.1:0", &bound);
    std::atomic<bool> stop{false};
    std::thread daemon([&] {
        serve::serveListener(listener, engine, stop);
    });

    const fleet::Topology learned = fleet::Router::bootstrap(bound);
    EXPECT_EQ(learned.shards, topo.shards);
    EXPECT_EQ(learned.rf, topo.rf);
    EXPECT_EQ(learned.vnodes, topo.vnodes);
    EXPECT_EQ(learned.self, 0);

    stop.store(true);
    daemon.join();
}

TEST(FleetTrace, MergedTraceAssignsPidsAndKeepsParentage)
{
    // A router root span and one child span per "shard", parented via
    // the args identity the merge must carry through verbatim.
    obs::TraceContext ctx;
    ctx.traceHi = 0x11;
    ctx.traceLo = 0x22;
    ctx.span = 0xA0;

    std::vector<obs::TraceEvent> local(1);
    local[0].name = "fleet.request";
    local[0].cat = "fleet";
    local[0].ts = 1;
    local[0].dur = 100;
    local[0].args = obs::spanArgs(ctx, ctx.span, 0);

    std::vector<obs::TraceEvent> shardEv(1);
    shardEv[0].name = "serve.request";
    shardEv[0].cat = "serve";
    shardEv[0].ts = 10;
    shardEv[0].dur = 50;
    shardEv[0].args = obs::spanArgs(ctx, 0xB0, ctx.span);

    const std::string merged = fleet::mergeTraces(
        {{"127.0.0.1:7741", serve::encodeSpanBatch(shardEv)},
         {"127.0.0.1:7742", ""}}, // unreachable: label only
        local);

    const auto doc = util::json::parse(merged);
    const auto &events = doc.asObject().at("traceEvents").asArray();
    // 3 process_name labels + 1 local + 1 shard span.
    ASSERT_EQ(events.size(), 5u);
    std::uint64_t rootSpanSeen = 0;
    bool sawShardLabel = false, sawChild = false;
    for (const auto &evv : events) {
        const auto &ev = evv.asObject();
        const std::string name = ev.at("name").asString();
        if (name == "process_name") {
            if (ev.at("args").asObject().at("name").asString() ==
                "shard0 (127.0.0.1:7741)")
                sawShardLabel = ev.at("pid").asUint64() == 1u;
            continue;
        }
        const auto &args = ev.at("args").asObject();
        EXPECT_EQ(args.at("trace").asString(),
                  ctx.traceIdHex());
        if (name == "fleet.request") {
            EXPECT_EQ(ev.at("pid").asUint64(), 0u);
            EXPECT_FALSE(args.contains("parent")) << "root has no parent";
            rootSpanSeen = 1;
        } else if (name == "serve.request") {
            EXPECT_EQ(ev.at("pid").asUint64(), 1u);
            // The cross-process edge: the shard span still names the
            // router's root span after the merge.
            EXPECT_EQ(args.at("parent").asString(),
                      ctx.spanIdHex());
            sawChild = true;
        }
    }
    EXPECT_EQ(rootSpanSeen, 1u);
    EXPECT_TRUE(sawShardLabel);
    EXPECT_TRUE(sawChild);
}

TEST(FleetLive, ScrapeAndTraceDrainReachEveryShard)
{
    TestFleet shards(2, scratchRoot("scrape"));
    fleet::RouterOptions ropt;
    ropt.topology.shards = shards.addresses();
    fleet::Router router(std::move(ropt));

    const auto scraped = router.scrapeAll();
    ASSERT_EQ(scraped.size(), 2u);
    for (std::size_t s = 0; s < scraped.size(); ++s) {
        EXPECT_EQ(scraped[s].first, shards.addresses()[s]);
        EXPECT_NE(scraped[s].second.find("# TYPE"),
                  std::string::npos)
            << "shard " << s << " returned no Prometheus text";
    }

    // Drains answer even with tracing off: the pinned empty batch.
    const auto drainedOff = router.drainTracesAll();
    ASSERT_EQ(drainedOff.size(), 2u);
    for (const auto &[addr, batch] : drainedOff) {
        (void)addr;
        EXPECT_TRUE(serve::decodeSpanBatch(batch).empty());
    }

    // Armed, a traced workload leaves spans behind to drain. (The
    // in-process fleet shares one TraceSink, so per-shard attribution
    // is meaningless here — the 3-process CI smoke covers that; this
    // pins the probe plumbing end to end.)
    obs::TraceSink &sink = obs::TraceSink::instance();
    sink.enable("");
    sink.setSampling(1.0, 0);
    const auto reqs = sampleWorkload();
    std::vector<std::string> lines;
    for (const auto &req : reqs)
        lines.push_back(serve::encodeRequest(req));
    for (const std::string &line : router.transactLines(lines))
        ASSERT_TRUE(serve::decodeResponse(line).ok);

    std::size_t total = 0;
    bool sawServeSpan = false, sawRootSpan = false;
    for (const auto &[addr, batch] : router.drainTracesAll()) {
        (void)addr;
        for (const obs::TraceEvent &ev :
             serve::decodeSpanBatch(batch)) {
            ++total;
            if (ev.name == "serve.request")
                sawServeSpan = true;
            if (ev.name == "fleet.request")
                sawRootSpan = true;
        }
    }
    sink.disable();
    sink.drain();
    EXPECT_GT(total, 0u);
    EXPECT_TRUE(sawServeSpan);
    EXPECT_TRUE(sawRootSpan);

    // The stats probe reaches every shard too, and the fleet report's
    // aggregate counters are the sum of its per-shard rows.
    auto statsReport = [&router] {
        return util::json::parse(
            fleet::fleetStatsReport(router.statsAll()));
    };
    const auto both = statsReport();
    EXPECT_EQ(
        both.asObject().at("fleet").asObject().at("reachable").asUint64(),
        2u);
    obs::Snapshot rowSum;
    for (const auto &row : both.asObject().at("perShard").asArray()) {
        const obs::Snapshot shard = serve::decodeTelemetry(
            row.asObject().at("telemetry").dump());
        for (const auto &[name, v] : shard.counters())
            rowSum.counter(name, v);
    }
    const obs::Snapshot aggregate = serve::decodeTelemetry(
        both.asObject().at("aggregate").dump());
    EXPECT_FALSE(aggregate.counters().empty());
    EXPECT_EQ(aggregate.counters(), rowSum.counters());

    // A stopped shard still has its row, with null telemetry.
    router.disconnect(1);
    shards.stopShard(1);
    const auto one = statsReport();
    EXPECT_EQ(
        one.asObject().at("fleet").asObject().at("reachable").asUint64(),
        1u);
    const auto &rows = one.asObject().at("perShard").asArray();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_FALSE(rows[0].asObject().at("telemetry").isNull());
    EXPECT_TRUE(rows[1].asObject().at("telemetry").isNull());
}

TEST(FleetLive, TracingIsInvisibleInResponseBytes)
{
    TestFleet shards(2, scratchRoot("parity"));
    fleet::RouterOptions ropt;
    ropt.topology.shards = shards.addresses();
    fleet::Router router(std::move(ropt));

    const auto reqs = sampleWorkload();
    std::vector<std::string> lines;
    for (const auto &req : reqs)
        lines.push_back(serve::encodeRequest(req));

    // Warm the caches, then compare a warm untraced pass against a
    // warm traced pass: telemetry must never leak into responses.
    for (const std::string &line : router.transactLines(lines))
        ASSERT_TRUE(serve::decodeResponse(line).ok);
    const auto untraced = router.transactLines(lines);

    obs::TraceSink &sink = obs::TraceSink::instance();
    sink.enable("");
    sink.setSampling(1.0, 0);
    const auto traced = router.transactLines(lines);
    sink.disable();
    sink.drain();

    ASSERT_EQ(traced.size(), untraced.size());
    for (std::size_t i = 0; i < traced.size(); ++i)
        EXPECT_EQ(traced[i], untraced[i])
            << "line " << i << " changed under tracing";
}

} // namespace
