/**
 * @file
 * End-to-end service tests: responses must be bit-identical to direct
 * in-process simulation for randomized specs no matter which tier
 * serves them, the pipe transport must preserve that identity through
 * a real encode/decode cycle, identical concurrent requests must
 * coalesce correctly, backpressure must bound and drain must fence
 * admissions, and one malformed line must never kill a stream.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/cycle_cache.hh"
#include "core/unrolling.hh"
#include "gan/models.hh"
#include "obs/trace.hh"
#include "serve/daemon.hh"
#include "serve/engine.hh"
#include "serve/protocol.hh"
#include "sim/json.hh"
#include "sim/phase.hh"
#include "tensor/shape.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace {

using namespace ganacc;
namespace fs = std::filesystem;
using util::Rng;

/** Random *legal* spec over the three GAN convolution patterns —
 *  the same families the differential fuzzer draws from. */
sim::ConvSpec
randomSpec(Rng &rng)
{
    sim::ConvSpec s;
    s.label = "serve-fuzz";
    s.nif = rng.uniformInt(1, 4);
    s.nof = rng.uniformInt(1, 4);
    const int kind = rng.uniformInt(0, 2);
    if (kind == 0) { // dense strided S-CONV
        s.ih = s.iw = rng.uniformInt(5, 16);
        s.kh = s.kw = rng.uniformInt(1, 5);
        s.stride = rng.uniformInt(1, 3);
        s.pad = rng.uniformInt(0, s.kh / 2);
        s.oh = tensor::convOutDim(s.ih, s.kh, s.stride, s.pad);
        s.ow = tensor::convOutDim(s.iw, s.kw, s.stride, s.pad);
    } else if (kind == 1) { // zero-stuffed T-CONV
        const int dense = rng.uniformInt(2, 7);
        const int z = rng.uniformInt(2, 3);
        const int extra = rng.uniformInt(0, z - 1);
        s.inZeroStride = z;
        s.inOrigH = s.inOrigW = dense;
        s.ih = s.iw = (dense - 1) * z + 1 + extra;
        s.kh = s.kw = rng.uniformInt(2, 5);
        s.stride = 1;
        s.pad = rng.uniformInt(0, s.kh - 1);
        s.oh = tensor::convOutDim(s.ih, s.kh, 1, s.pad);
        s.ow = tensor::convOutDim(s.iw, s.kw, 1, s.pad);
    } else { // dilated-kernel W-CONV (4-D output)
        s.ih = s.iw = rng.uniformInt(7, 16);
        const int err = rng.uniformInt(2, 5);
        s.kZeroStride = 2;
        s.kOrigH = s.kOrigW = err;
        s.kh = s.kw = (err - 1) * 2 + 1;
        s.stride = 1;
        s.pad = rng.uniformInt(0, 2);
        s.fourDimOutput = true;
        const int natural = s.ih + 2 * s.pad - s.kh + 1;
        if (natural < 1)
            return randomSpec(rng);
        s.oh = s.ow = std::min(natural, rng.uniformInt(2, 6));
    }
    if (s.oh < 1 || s.ow < 1)
        return randomSpec(rng);
    return s;
}

sim::Unroll
smallUnroll(Rng &rng)
{
    sim::Unroll u;
    u.pIf = rng.uniformInt(1, 3);
    u.pOf = rng.uniformInt(1, 4);
    u.pKx = rng.uniformInt(1, 4);
    u.pKy = rng.uniformInt(1, 4);
    u.pOx = rng.uniformInt(1, 4);
    u.pOy = rng.uniformInt(1, 4);
    return u;
}

class ServeServiceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        core::CycleCache::instance().clear();
        dir_ = (fs::temp_directory_path() /
                ("ganacc-serve-test-" + std::to_string(::getpid()) +
                 "-" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name()))
                   .string();
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        core::CycleCache::instance().attachDiskTier(nullptr);
        fs::remove_all(dir_);
    }

    std::string dir_;
};

TEST_F(ServeServiceTest, ServedEqualsDirectOverRandomizedSpecs)
{
    Rng rng(0x5EFD1234);
    serve::EngineOptions opts;
    opts.jobs = 4;
    opts.cacheDir = dir_;
    serve::Engine engine(opts);

    const auto kinds = core::allArchKinds();
    for (int i = 0; i < 60; ++i) {
        serve::Request req;
        req.id = std::uint64_t(i + 1);
        req.kind =
            kinds[std::size_t(rng.uniformInt(0, int(kinds.size()) - 1))];
        req.unroll = smallUnroll(rng);
        req.hasSpec = true;
        req.spec = randomSpec(rng);

        const serve::Response rsp = engine.handle(req);
        ASSERT_TRUE(rsp.ok) << rsp.error;
        const sim::RunStats direct =
            core::makeArch(req.kind, req.unroll)->run(req.spec);
        EXPECT_EQ(sim::toJson(rsp.stats), sim::toJson(direct))
            << "served response diverged from direct simulation ("
            << core::archKindName(req.kind) << ", " << req.spec.label
            << ", iteration " << i << ")";
    }
    engine.drain();
}

TEST_F(ServeServiceTest, EveryTierServesIdenticalBits)
{
    Rng rng(0x7134);
    serve::Request req;
    req.id = 1;
    req.kind = core::ArchKind::ZFOST;
    req.unroll = smallUnroll(rng);
    req.hasSpec = true;
    req.spec = randomSpec(rng);
    const sim::RunStats direct =
        core::makeArch(req.kind, req.unroll)->run(req.spec);

    serve::EngineOptions opts;
    opts.jobs = 1;
    opts.cacheDir = dir_;

    // Tier 1: cold -> simulated.
    {
        serve::Engine engine(opts);
        const serve::Response rsp = engine.handle(req);
        ASSERT_TRUE(rsp.ok);
        EXPECT_EQ(rsp.cache, "sim");
        EXPECT_EQ(sim::toJson(rsp.stats), sim::toJson(direct));

        // Tier 2: repeat in-process -> memory.
        const serve::Response again = engine.handle(req);
        EXPECT_EQ(again.cache, "mem");
        EXPECT_EQ(sim::toJson(again.stats), sim::toJson(direct));
        engine.drain();
    }

    // Tier 3: new engine ("new process"), memory dropped -> disk.
    core::CycleCache::instance().clear();
    serve::Engine engine(opts);
    const serve::Response rsp = engine.handle(req);
    ASSERT_TRUE(rsp.ok);
    EXPECT_EQ(rsp.cache, "disk");
    EXPECT_EQ(sim::toJson(rsp.stats), sim::toJson(direct));
    engine.drain();
}

TEST_F(ServeServiceTest, PipeTransportPreservesBitIdentity)
{
    Rng rng(0xA11CE);
    std::vector<serve::Request> reqs;
    std::stringstream in;
    for (int i = 0; i < 20; ++i) {
        serve::Request req;
        req.id = std::uint64_t(i + 1);
        req.kind = core::ArchKind::ZFWST;
        req.unroll = smallUnroll(rng);
        req.hasSpec = true;
        req.spec = randomSpec(rng);
        reqs.push_back(req);
        in << serve::encodeRequest(req) << "\n";
    }

    serve::EngineOptions opts;
    opts.jobs = 2;
    serve::Engine engine(opts);
    std::stringstream out;
    const serve::ServeTotals totals =
        serve::runPipeServer(in, out, engine);
    engine.drain();
    EXPECT_EQ(totals.lines, 20u);
    EXPECT_EQ(totals.responses, 20u);

    std::string line;
    std::size_t i = 0;
    while (std::getline(out, line)) {
        ASSERT_LT(i, reqs.size());
        const serve::Response rsp = serve::decodeResponse(line);
        EXPECT_EQ(rsp.id, reqs[i].id) << "responses must keep order";
        ASSERT_TRUE(rsp.ok) << rsp.error;
        const sim::RunStats direct =
            core::makeArch(reqs[i].kind, reqs[i].unroll)
                ->run(reqs[i].spec);
        EXPECT_EQ(sim::toJson(rsp.stats), sim::toJson(direct));
        ++i;
    }
    EXPECT_EQ(i, 20u);
}

TEST_F(ServeServiceTest, OneMalformedLineDoesNotKillTheStream)
{
    Rng rng(0xBAD);
    serve::Request good;
    good.id = 7;
    good.kind = core::ArchKind::NLR;
    good.unroll = smallUnroll(rng);
    good.hasSpec = true;
    good.spec = randomSpec(rng);

    std::stringstream in;
    in << serve::encodeRequest(good) << "\n";
    in << "{\"v\":1,\"id\":8,this is not json}\n";
    in << serve::encodeRequest(good) << "\n";

    serve::EngineOptions opts;
    opts.jobs = 1;
    serve::Engine engine(opts);
    std::stringstream out;
    const serve::ServeTotals totals =
        serve::runPipeServer(in, out, engine);
    engine.drain();
    EXPECT_EQ(totals.responses, 3u);

    std::string line;
    std::getline(out, line);
    EXPECT_TRUE(serve::decodeResponse(line).ok);
    std::getline(out, line);
    const serve::Response err = serve::decodeResponse(line);
    EXPECT_FALSE(err.ok);
    EXPECT_EQ(err.id, 8u) << "salvaged id lets the client correlate";
    std::getline(out, line);
    EXPECT_TRUE(serve::decodeResponse(line).ok);
}

TEST_F(ServeServiceTest, IdenticalConcurrentRequestsCoalesce)
{
    Rng rng(0xD0D0);
    serve::Request req;
    req.kind = core::ArchKind::ZFOST;
    req.unroll = smallUnroll(rng);
    req.hasSpec = true;
    req.spec = randomSpec(rng);
    const sim::RunStats direct =
        core::makeArch(req.kind, req.unroll)->run(req.spec);

    serve::EngineOptions opts;
    opts.jobs = 2;
    serve::Engine engine(opts);

    const int n = 64;
    std::vector<std::future<serve::Response>> futures;
    for (int i = 0; i < n; ++i) {
        serve::Request r = req;
        r.id = std::uint64_t(i + 1);
        futures.push_back(engine.submit(r));
    }
    for (int i = 0; i < n; ++i) {
        const serve::Response rsp = futures[std::size_t(i)].get();
        ASSERT_TRUE(rsp.ok);
        EXPECT_EQ(rsp.id, std::uint64_t(i + 1))
            << "followers must be relabeled with their own id";
        EXPECT_EQ(sim::toJson(rsp.stats), sim::toJson(direct));
    }
    const serve::EngineCounters c = engine.counters();
    EXPECT_EQ(c.requests, std::uint64_t(n));
    EXPECT_EQ(c.errors, 0u);
    EXPECT_EQ(c.simulated + c.memHits + c.diskHits + c.deduped,
              std::uint64_t(n))
        << "every request is accounted to exactly one tier";
    EXPECT_EQ(c.simulated, 1u)
        << "the cycle walk must run exactly once for one content key";
    engine.drain();
}

TEST_F(ServeServiceTest, BackpressureBoundsAndDrainFencesAdmission)
{
    Rng rng(0xFE11);
    serve::EngineOptions opts;
    opts.jobs = 2;
    opts.maxQueue = 4; // tiny bound: submit() must block, not balloon
    serve::Engine engine(opts);

    std::vector<std::future<serve::Response>> futures;
    for (int i = 0; i < 64; ++i) {
        serve::Request req;
        req.id = std::uint64_t(i + 1);
        req.kind = core::ArchKind::OST;
        req.unroll = smallUnroll(rng);
        req.hasSpec = true;
        req.spec = randomSpec(rng);
        futures.push_back(engine.submit(req));
    }
    for (auto &f : futures)
        EXPECT_TRUE(f.get().ok);

    engine.drain();
    serve::Request late;
    late.id = 999;
    late.kind = core::ArchKind::NLR;
    late.unroll = smallUnroll(rng);
    late.hasSpec = true;
    late.spec = randomSpec(rng);
    EXPECT_THROW(engine.submit(late), util::FatalError);
}

TEST_F(ServeServiceTest, NetworkRequestsMatchAccumulatedDirectRun)
{
    serve::EngineOptions opts;
    opts.jobs = 2;
    serve::Engine engine(opts);

    const gan::GanModel model = gan::makeMnistGan();
    for (core::ArchKind kind : core::allArchKinds()) {
        serve::Request req;
        req.id = 1;
        req.kind = kind;
        req.unroll = core::paperUnroll(
            kind, core::BankRole::ST, sim::PhaseFamily::D, 1200);
        req.model = "mnist-gan";
        req.family = "D";
        const serve::Response rsp = engine.handle(req);
        ASSERT_TRUE(rsp.ok) << rsp.error;

        sim::RunStats direct;
        const auto arch = core::makeArch(kind, req.unroll);
        for (const auto &job :
             sim::familyJobs(model, sim::PhaseFamily::D))
            direct += arch->run(job);
        EXPECT_EQ(sim::toJson(rsp.stats), sim::toJson(direct))
            << core::archKindName(kind);
    }
    engine.drain();
}

TEST_F(ServeServiceTest, UnknownModelAndFamilyAreAnsweredWithTheirNames)
{
    serve::EngineOptions opts;
    opts.jobs = 1;
    serve::Engine engine(opts);

    serve::Request req;
    req.id = 7;
    req.kind = core::ArchKind::ZFOST;
    req.unroll = core::paperUnroll(req.kind, core::BankRole::ST,
                                   sim::PhaseFamily::D, 1200);
    req.model = "mnist";
    req.family = "D";
    serve::Response rsp = engine.handle(req);
    EXPECT_FALSE(rsp.ok);
    EXPECT_EQ(rsp.error, "fatal: unknown model \"mnist\" (dcgan, "
                         "mnist-gan, cgan, context-encoder)");

    req.model = "mnist-gan";
    req.family = "Dx";
    rsp = engine.handle(req);
    EXPECT_FALSE(rsp.ok);
    EXPECT_EQ(rsp.error,
              "fatal: unknown phase family \"Dx\" (D, G, Dw, Gw)");
    engine.drain();
}

TEST_F(ServeServiceTest, StatsProbeAnswersWithLiveTelemetry)
{
    serve::EngineOptions opts;
    opts.jobs = 2;
    opts.cacheDir = dir_; // so store counters are live too
    serve::Engine engine(opts);

    // Generate some load first, so the probe reports real traffic.
    Rng rng(0x0B5E);
    for (int i = 0; i < 4; ++i) {
        serve::Request req;
        req.id = std::uint64_t(i + 1);
        req.kind = core::ArchKind::ZFOST;
        req.hasSpec = true;
        req.spec = randomSpec(rng);
        req.unroll = smallUnroll(rng);
        ASSERT_TRUE(engine.handle(req).ok);
    }

    serve::Request probe;
    probe.id = 99;
    probe.statsProbe = true;
    const serve::Response rsp = engine.handle(probe);
    ASSERT_TRUE(rsp.ok) << rsp.error;
    EXPECT_EQ(rsp.id, 99u);
    EXPECT_EQ(rsp.simVersion, serve::simulatorVersion());
    ASSERT_FALSE(rsp.telemetry.empty());

    // The snapshot parses, covers every advertised subsystem, and
    // reflects the traffic just generated.
    const auto doc = util::json::parse(rsp.telemetry);
    const auto &counters =
        doc.asObject().at("counters").asObject();
    EXPECT_GE(counters.at("ganacc_serve_requests_total").asUint64(),
              4u);
    EXPECT_TRUE(counters.contains("ganacc_cache_misses_total"));
    EXPECT_TRUE(counters.contains("ganacc_store_writes_total"));
    EXPECT_TRUE(counters.contains("ganacc_pool_executed_total"));
    EXPECT_TRUE(doc.asObject().at("gauges").asObject().contains(
        "ganacc_serve_inflight"));
    const auto &hist = doc.asObject()
                           .at("histograms")
                           .asObject()
                           .at("ganacc_serve_latency_us")
                           .asObject();
    EXPECT_GE(hist.at("count").asUint64(), 4u);

    // Probes do not count as requests in the service summary, and the
    // wire round-trip of the probe response is byte-stable.
    EXPECT_EQ(engine.counters().requests, 4u);
    const std::string wire = serve::encodeResponse(rsp);
    EXPECT_EQ(serve::encodeResponse(serve::decodeResponse(wire)),
              wire);
    engine.drain();
}

TEST_F(ServeServiceTest, StatsProbeAnswersThroughThePipeTransport)
{
    serve::EngineOptions opts;
    opts.jobs = 1;
    opts.deterministic = true;
    serve::Engine engine(opts);

    std::istringstream in("{\"v\":1,\"id\":7,\"stats\":true}\n");
    std::ostringstream out;
    const serve::ServeTotals totals =
        serve::runPipeServer(in, out, engine);
    engine.drain();
    EXPECT_EQ(totals.lines, 1u);
    EXPECT_EQ(totals.responses, 1u);

    const serve::Response rsp =
        serve::decodeResponse(out.str().substr(
            0, out.str().find('\n')));
    EXPECT_TRUE(rsp.ok) << rsp.error;
    EXPECT_EQ(rsp.id, 7u);
    EXPECT_FALSE(rsp.telemetry.empty());
    EXPECT_NO_THROW(util::json::parse(rsp.telemetry));
}

TEST_F(ServeServiceTest, MetricsProbeAnswersWithPrometheusText)
{
    serve::EngineOptions opts;
    opts.jobs = 1;
    serve::Engine engine(opts);

    serve::Request probe;
    probe.id = 61;
    probe.metricsProbe = true;
    const serve::Response rsp = engine.handle(probe);
    ASSERT_TRUE(rsp.ok) << rsp.error;
    EXPECT_EQ(rsp.id, 61u);
    ASSERT_FALSE(rsp.metricsText.empty());
    EXPECT_NE(rsp.metricsText.find(
                  "# TYPE ganacc_serve_requests_total counter"),
              std::string::npos);
    EXPECT_NE(rsp.metricsText.find("ganacc_serve_metrics_probes_total"),
              std::string::npos);

    // Like stats probes: no queueing, no request accounting, and the
    // wire round-trip is byte-stable.
    EXPECT_EQ(engine.counters().requests, 0u);
    const std::string wire = serve::encodeResponse(rsp);
    EXPECT_EQ(serve::encodeResponse(serve::decodeResponse(wire)),
              wire);
    engine.drain();
}

TEST_F(ServeServiceTest, TracedRequestsOpenCorrectlyParentedSpans)
{
    obs::TraceSink &sink = obs::TraceSink::instance();
    sink.enable(""); // live mode
    sink.setSampling(1.0, 0);

    serve::EngineOptions opts;
    opts.jobs = 1;
    serve::Engine engine(opts);

    Rng rng(0x5AA5);
    serve::Request req;
    req.id = 5;
    req.kind = core::ArchKind::ZFOST;
    req.hasSpec = true;
    req.spec = randomSpec(rng);
    req.unroll = smallUnroll(rng);
    req.trace = "00112233445566778899aabbccddeeff-0000000000000042";
    const serve::Response rsp = engine.handle(req);
    ASSERT_TRUE(rsp.ok) << rsp.error;
    EXPECT_TRUE(rsp.traceKept);
    EXPECT_EQ(rsp.traceId, "00112233445566778899aabbccddeeff");
    EXPECT_NE(rsp.traceSpan, 0u);

    // Drain through the probe path, exactly as a collector would.
    serve::Request drain;
    drain.id = 62;
    drain.traceDrainProbe = true;
    const serve::Response dr = engine.handle(drain);
    ASSERT_TRUE(dr.ok) << dr.error;
    const std::vector<obs::TraceEvent> evs =
        serve::decodeSpanBatch(dr.spans);
    ASSERT_FALSE(evs.empty());

    // Walk the batch: serve.request carries the sender's span as its
    // parent, serve.cache hangs off serve.request, and a sim-tier
    // request nests serve.simulate under serve.cache. (The batch may
    // also hold plain RAII spans from deeper layers — only the
    // request's distributed spans carry the trace identity.)
    std::string hopSpan, cacheSpan;
    for (const obs::TraceEvent &ev : evs) {
        if (ev.name.rfind("serve.", 0) != 0)
            continue;
        const auto args = util::json::parse(ev.args).asObject();
        EXPECT_EQ(args.at("trace").asString(),
                  "00112233445566778899aabbccddeeff");
        if (ev.name == "serve.request") {
            EXPECT_EQ(args.at("parent").asString(),
                      "0000000000000042");
            hopSpan = args.at("span").asString();
        }
    }
    ASSERT_FALSE(hopSpan.empty()) << "no serve.request span drained";
    for (const obs::TraceEvent &ev : evs) {
        const auto args = util::json::parse(ev.args).asObject();
        if (ev.name == "serve.cache") {
            EXPECT_EQ(args.at("parent").asString(), hopSpan);
            EXPECT_EQ(args.at("tier").asString(), rsp.cache);
            cacheSpan = args.at("span").asString();
        }
    }
    ASSERT_EQ(rsp.cache, "sim") << "fresh spec must simulate";
    ASSERT_FALSE(cacheSpan.empty());
    bool sawSimulate = false;
    for (const obs::TraceEvent &ev : evs) {
        if (ev.name != "serve.simulate")
            continue;
        sawSimulate = true;
        const auto args = util::json::parse(ev.args).asObject();
        EXPECT_EQ(args.at("parent").asString(), cacheSpan);
    }
    EXPECT_TRUE(sawSimulate);

    // A second drain with nothing new buffered is the empty batch.
    const serve::Response again = engine.handle(drain);
    ASSERT_TRUE(again.ok);
    EXPECT_EQ(again.spans, "{\"events\":[]}");

    engine.drain();
    sink.disable();
    sink.drain();
}

TEST_F(ServeServiceTest, HeadDroppedRequestsLeaveNoSpans)
{
    obs::TraceSink &sink = obs::TraceSink::instance();
    sink.enable("");
    sink.setSampling(0.0, 0); // drop everything, no tail rescue

    serve::EngineOptions opts;
    opts.jobs = 1;
    serve::Engine engine(opts);

    Rng rng(0xD20b);
    serve::Request req;
    req.id = 6;
    req.kind = core::ArchKind::NLR;
    req.hasSpec = true;
    req.spec = randomSpec(rng);
    req.unroll = smallUnroll(rng);
    req.trace = "00112233445566778899aabbccddeeff-0000000000000042";
    const serve::Response rsp = engine.handle(req);
    ASSERT_TRUE(rsp.ok) << rsp.error;
    EXPECT_FALSE(rsp.traceKept);
    // Plain RAII spans from deeper layers may still record; the
    // request's own span batch must not.
    for (const obs::TraceEvent &ev : sink.drain())
        EXPECT_NE(ev.name.rfind("serve.", 0), 0u)
            << "head-dropped request leaked span " << ev.name;

    // Tail-keep rescues the same request at a 1us threshold (any
    // simulated request takes at least that long end to end).
    sink.setSampling(0.0, 1);
    serve::Request again = req;
    again.id = 7;
    again.spec = randomSpec(rng); // fresh shape: forces a simulate
    const serve::Response rescued = engine.handle(again);
    ASSERT_TRUE(rescued.ok) << rescued.error;
    EXPECT_TRUE(rescued.traceKept);
    bool sawRequestSpan = false;
    for (const obs::TraceEvent &ev : sink.drain())
        sawRequestSpan |= ev.name == "serve.request";
    EXPECT_TRUE(sawRequestSpan);

    sink.setSampling(1.0, 0);
    engine.drain();
    sink.disable();
    sink.drain();
}

} // namespace
