/**
 * @file
 * Protocol round-trip tests: fuzzed requests and responses must
 * survive encode -> decode -> encode byte-identically, counters must
 * round-trip bit-exactly (including values above 2^53, where a
 * double-based JSON layer would silently round), and the content key
 * must depend on exactly the inputs that shape a simulation — not on
 * the job label, and not on anything else it should ignore.
 */

#include <gtest/gtest.h>

#include <climits>
#include <string>
#include <utility>
#include <vector>

#include "core/unrolling.hh"
#include "obs/trace.hh"
#include "serve/engine.hh"
#include "serve/protocol.hh"
#include "sim/conv_spec.hh"
#include "sim/json.hh"
#include "stats_helpers.hh"
#include "tensor/shape.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace {

using namespace ganacc;
using util::Rng;

/** Random legal-ish spec over the three GAN convolution patterns
 *  (the protocol must round-trip any spec, legal or not, so this
 *  generator only needs diversity, not legality). */
sim::ConvSpec
randomSpec(Rng &rng)
{
    sim::ConvSpec s;
    s.label = "fuzz-" + std::to_string(rng.uniformInt(0, 1 << 20));
    s.nif = rng.uniformInt(1, 64);
    s.nof = rng.uniformInt(1, 64);
    s.ih = s.iw = rng.uniformInt(5, 64);
    s.kh = s.kw = rng.uniformInt(1, 5);
    s.stride = rng.uniformInt(1, 3);
    s.pad = rng.uniformInt(0, 2);
    s.oh = tensor::convOutDim(s.ih, s.kh, s.stride, s.pad);
    s.ow = tensor::convOutDim(s.iw, s.kw, s.stride, s.pad);
    const int kind = rng.uniformInt(0, 2);
    if (kind == 1) {
        s.inZeroStride = 2;
        s.inOrigH = s.inOrigW = (s.ih + 1) / 2;
    } else if (kind == 2) {
        s.kZeroStride = 2;
        s.kOrigH = s.kOrigW = (s.kh + 1) / 2;
        s.fourDimOutput = true;
    }
    return s;
}

sim::Unroll
randomUnroll(Rng &rng)
{
    sim::Unroll u;
    u.pIf = rng.uniformInt(1, 8);
    u.pOf = rng.uniformInt(1, 120);
    u.pKx = rng.uniformInt(1, 5);
    u.pKy = rng.uniformInt(1, 5);
    u.pOx = rng.uniformInt(1, 8);
    u.pOy = rng.uniformInt(1, 8);
    return u;
}

core::ArchKind
randomKind(Rng &rng)
{
    const auto kinds = core::allArchKinds();
    return kinds[std::size_t(
        rng.uniformInt(0, int(kinds.size()) - 1))];
}

TEST(ServeProtocol, FuzzedSpecRequestsRoundTripBitExact)
{
    Rng rng(0x5E7EC0DE);
    for (int i = 0; i < 200; ++i) {
        serve::Request req;
        req.id = std::uint64_t(rng.uniformInt(0, 1 << 30));
        req.kind = randomKind(rng);
        req.unroll = randomUnroll(rng);
        req.hasSpec = true;
        req.spec = randomSpec(rng);

        const std::string wire = serve::encodeRequest(req);
        const serve::Request back = serve::decodeRequest(wire);
        // Byte-identical re-encoding is the strongest round-trip
        // statement the canonical encoding can make.
        EXPECT_EQ(serve::encodeRequest(back), wire);
        EXPECT_EQ(back.id, req.id);
        EXPECT_EQ(back.kind, req.kind);
        EXPECT_TRUE(back.hasSpec);
        EXPECT_EQ(sim::toJson(back.spec), sim::toJson(req.spec));
        EXPECT_EQ(sim::toJson(back.unroll), sim::toJson(req.unroll));
    }
}

TEST(ServeProtocol, NetworkRequestsRoundTrip)
{
    Rng rng(0xBEEF);
    for (const char *model : {"dcgan", "mnist-gan", "cgan"}) {
        for (const char *family : {"D", "G", "Dw", "Gw"}) {
            serve::Request req;
            req.id = std::uint64_t(rng.uniformInt(1, 1000));
            req.kind = randomKind(rng);
            req.unroll = randomUnroll(rng);
            req.model = model;
            req.family = family;
            const std::string wire = serve::encodeRequest(req);
            const serve::Request back = serve::decodeRequest(wire);
            EXPECT_EQ(serve::encodeRequest(back), wire);
            EXPECT_FALSE(back.hasSpec);
            EXPECT_EQ(back.model, model);
            EXPECT_EQ(back.family, family);
        }
    }
}

TEST(ServeProtocol, ResponsesRoundTripLargeCountersBitExact)
{
    Rng rng(0xCAFE);
    for (int i = 0; i < 100; ++i) {
        serve::Response rsp;
        rsp.id = std::uint64_t(rng.uniformInt(0, 1 << 30));
        rsp.ok = true;
        rsp.simVersion = serve::simulatorVersion();
        rsp.arch = core::archKindName(randomKind(rng));
        rsp.unroll = randomUnroll(rng);
        rsp.cache = (i % 2) ? "mem" : "sim";
        rsp.latencyUs = std::uint64_t(rng.uniformInt(0, 1 << 30));
        // Counters above 2^53: a double-typed JSON layer would round
        // these; the plain-integer path must not.
        rsp.stats.cycles = (1ULL << 53) + 1 + std::uint64_t(i);
        rsp.stats.nPes = 1200;
        rsp.stats.effectiveMacs = 0xFFFFFFFFFFFFFFFFULL - 7;
        rsp.stats.ineffectualMacs = (1ULL << 60) + 3;
        rsp.stats.idlePeSlots = std::uint64_t(rng.uniformInt(0, 1 << 30));
        rsp.stats.weightLoads = (1ULL << 54) + 5;

        const std::string wire = serve::encodeResponse(rsp);
        const serve::Response back = serve::decodeResponse(wire);
        EXPECT_EQ(serve::encodeResponse(back), wire);
        tests::expectStatsEqual(back.stats, rsp.stats,
                                "response round-trip " +
                                    std::to_string(i));
        EXPECT_EQ(back.latencyUs, rsp.latencyUs);
    }
}

TEST(ServeProtocol, ErrorResponsesRoundTrip)
{
    const serve::Response rsp =
        serve::errorResponse(42, "spec: oh must be >= 1");
    const std::string wire = serve::encodeResponse(rsp);
    const serve::Response back = serve::decodeResponse(wire);
    EXPECT_EQ(back.id, 42u);
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.error, "spec: oh must be >= 1");
    EXPECT_EQ(serve::encodeResponse(back), wire);
}

TEST(ServeProtocol, NonPositiveUnrollFactorsAreRefusedAtDecode)
{
    // The GA-UNROLL-POSITIVE rule, on spec, network and put requests
    // alike: a factor the architecture reads must be at least 1.
    Rng rng(0x0F0F);
    serve::Request spec;
    spec.id = 3;
    spec.kind = core::ArchKind::OST;
    spec.unroll = sim::Unroll{.pIf = 1, .pOf = 0, .pKx = 1, .pKy = 1,
                              .pOx = 2, .pOy = 2};
    spec.hasSpec = true;
    spec.spec = randomSpec(rng);
    serve::Request network = spec;
    network.hasSpec = false;
    network.model = "mnist-gan";
    network.family = "D";
    network.unroll.pOf = 2;
    network.unroll.pOx = -4;
    serve::Request put = spec;
    put.put = true;
    put.putSimVersion = serve::simulatorVersion();

    const std::pair<const serve::Request *, const char *> bad[] = {
        {&spec, "P_of = 0 must be at least 1"},
        {&network, "P_ox = -4 must be at least 1"},
        {&put, "P_of = 0 must be at least 1"}};
    for (const auto &[req, factor] : bad) {
        const std::string wire = serve::encodeRequest(*req);
        try {
            serve::decodeRequest(wire);
            ADD_FAILURE() << "accepted " << wire;
        } catch (const util::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(factor),
                      std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find("GA-UNROLL-POSITIVE"),
                      std::string::npos)
                << e.what();
        }
    }

    // Only the factors the architecture reads count: OST ignores P_if.
    serve::Request unused = spec;
    unused.unroll.pOf = 1;
    unused.unroll.pIf = 0;
    EXPECT_EQ(serve::decodeRequest(serve::encodeRequest(unused)).unroll.pIf,
              0);

    // Positive factors whose product (the PE count) does not fit in an
    // int are refused too; the largest product that fits is accepted,
    // and a huge unread factor does not count.
    serve::Request overflow = spec;
    overflow.unroll = sim::Unroll{.pIf = 1, .pOf = 2, .pKx = 1, .pKy = 1,
                                  .pOx = 65536, .pOy = 65536};
    try {
        serve::decodeRequest(serve::encodeRequest(overflow));
        ADD_FAILURE() << "accepted a 2^33-PE OST unrolling";
    } catch (const util::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "OST unroll: the PE count (the product of the "
                      "factors it reads) exceeds 2147483647"),
                  std::string::npos)
            << e.what();
    }
    serve::Request largest = spec;
    largest.unroll = sim::Unroll{.pIf = 1 << 30, .pOf = INT_MAX,
                                 .pKx = 1, .pKy = 1, .pOx = 1, .pOy = 1};
    EXPECT_EQ(serve::decodeRequest(serve::encodeRequest(largest)).unroll.pOf,
              INT_MAX);
}

TEST(ServeProtocol, MalformedLinesThrow)
{
    EXPECT_THROW(serve::decodeRequest("not json"),
                 util::FatalError);
    EXPECT_THROW(serve::decodeRequest("{}"), util::FatalError);
    // Wrong protocol version.
    EXPECT_THROW(
        serve::decodeRequest(
            R"({"v":99,"id":1,"arch":"NLR","unroll":{"pIf":1,"pOf":1,)"
            R"("pKx":1,"pKy":1,"pOx":1,"pOy":1},"model":"dcgan",)"
            R"("family":"D"})"),
        util::FatalError);
    // Unknown architecture.
    EXPECT_THROW(
        serve::decodeRequest(
            R"({"v":1,"id":1,"arch":"TPU","unroll":{"pIf":1,"pOf":1,)"
            R"("pKx":1,"pKy":1,"pOx":1,"pOy":1},"model":"dcgan",)"
            R"("family":"D"})"),
        util::FatalError);
    // Both payloads at once.
    serve::Request req;
    req.id = 1;
    req.kind = core::ArchKind::NLR;
    req.hasSpec = true;
    req.spec.label = "x";
    std::string wire = serve::encodeRequest(req);
    wire.pop_back(); // strip '}'
    wire += R"(,"model":"dcgan","family":"D"})";
    EXPECT_THROW(serve::decodeRequest(wire), util::FatalError);
}

TEST(ServeProtocol, ContentKeyIgnoresLabelOnly)
{
    Rng rng(0x12345);
    const core::ArchKind kind = core::ArchKind::ZFOST;
    const sim::Unroll u = randomUnroll(rng);
    sim::ConvSpec a = randomSpec(rng);
    sim::ConvSpec b = a;
    b.label = "a different name for the same shape";
    EXPECT_EQ(serve::contentKey(kind, u, a),
              serve::contentKey(kind, u, b));

    // Every shaping input must move the key.
    sim::ConvSpec c = a;
    c.nof += 1;
    EXPECT_NE(serve::contentKey(kind, u, a),
              serve::contentKey(kind, u, c));
    sim::Unroll u2 = u;
    u2.pOf += 1;
    EXPECT_NE(serve::contentKey(kind, u, a),
              serve::contentKey(kind, u2, a));
    EXPECT_NE(serve::contentKey(core::ArchKind::OST, u, a),
              serve::contentKey(kind, u, a));
    EXPECT_NE(serve::contentKey(kind, u, a, "ganacc-0.0.0"),
              serve::contentKey(kind, u, a));

    // Shape of the key: 16 lowercase hex digits.
    const std::string key = serve::contentKey(kind, u, a);
    EXPECT_EQ(key.size(), 16u);
    for (char ch : key)
        EXPECT_TRUE((ch >= '0' && ch <= '9') ||
                    (ch >= 'a' && ch <= 'f'))
            << key;
}

TEST(ServeProtocol, CanonicalJsonIsParseableAndStable)
{
    Rng rng(0x777);
    for (int i = 0; i < 50; ++i) {
        const sim::ConvSpec s = randomSpec(rng);
        const std::string text = sim::toJson(s);
        const auto doc = util::json::parse(text);
        const sim::ConvSpec back = sim::convSpecFromJson(doc);
        EXPECT_EQ(sim::toJson(back), text);

        // The shape key is the same encoding with the label cleared.
        sim::ConvSpec unlabeled = s;
        unlabeled.label.clear();
        EXPECT_EQ(sim::specShapeKey(s), sim::toJson(unlabeled));
    }
}

TEST(ServeProtocol, StatsProbeRequestsRoundTripBitExact)
{
    Rng rng(0x57A7);
    for (int i = 0; i < 100; ++i) {
        serve::Request req;
        req.id = std::uint64_t(rng.uniformInt(0, 1 << 30));
        req.statsProbe = true;
        const std::string wire = serve::encodeRequest(req);
        EXPECT_EQ(wire, "{\"v\":1,\"id\":" + std::to_string(req.id) +
                            ",\"stats\":true}");
        const serve::Request back = serve::decodeRequest(wire);
        EXPECT_TRUE(back.statsProbe);
        EXPECT_EQ(back.id, req.id);
        EXPECT_FALSE(back.hasSpec);
        EXPECT_EQ(serve::encodeRequest(back), wire);
    }
}

TEST(ServeProtocol, StatsProbeRejectsMalformedForms)
{
    // "stats" must be literally true.
    EXPECT_THROW(
        serve::decodeRequest(R"({"v":1,"id":1,"stats":false})"),
        util::FatalError);
    // A probe carries no simulation payload.
    EXPECT_THROW(serve::decodeRequest(
                     R"({"v":1,"id":1,"stats":true,"model":"dcgan",)"
                     R"("family":"D","arch":"NLR"})"),
                 util::FatalError);
    // Version checking still applies to probes.
    EXPECT_THROW(
        serve::decodeRequest(R"({"v":9,"id":1,"stats":true})"),
        util::FatalError);
}

TEST(ServeProtocol, TelemetryResponsesRoundTripBitExact)
{
    // The telemetry payload is canonical JSON object text (what
    // serve::encodeTelemetry emits); build one the same way so the
    // encode -> decode -> encode comparison is byte-exact.
    util::json::Object counters;
    counters.set("ganacc_serve_requests_total",
                 util::json::Value(std::uint64_t(7)));
    counters.set("ganacc_cache_mem_hits_total",
                 util::json::Value((std::uint64_t(1) << 53) + 1));
    util::json::Object root;
    root.set("counters", util::json::Value(std::move(counters)));

    serve::Response rsp;
    rsp.id = 9;
    rsp.ok = true;
    rsp.simVersion = serve::simulatorVersion();
    rsp.telemetry = util::json::Value(std::move(root)).dump();

    const std::string wire = serve::encodeResponse(rsp);
    const serve::Response back = serve::decodeResponse(wire);
    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.telemetry, rsp.telemetry);
    EXPECT_EQ(serve::encodeResponse(back), wire);

    // Counters above 2^53 survive (integer JSON path, not doubles).
    const auto doc = util::json::parse(back.telemetry);
    EXPECT_EQ(doc.asObject()
                  .at("counters")
                  .asObject()
                  .at("ganacc_cache_mem_hits_total")
                  .asUint64(),
              (std::uint64_t(1) << 53) + 1);

    // A simulation response (empty telemetry) must not gain the key.
    serve::Response plain = serve::errorResponse(1, "x");
    EXPECT_EQ(serve::encodeResponse(plain).find("telemetry"),
              std::string::npos);

    // A live engine's stats payload is a fixed point of the codec.
    serve::EngineOptions eo;
    eo.jobs = 1;
    serve::Engine engine(eo);
    serve::Request probe;
    probe.id = 10;
    probe.statsProbe = true;
    const std::string live = engine.submit(probe).get().telemetry;
    const obs::Snapshot snap = serve::decodeTelemetry(live);
    EXPECT_EQ(snap.histograms().count("ganacc_serve_latency_us"), 1u);
    EXPECT_EQ(serve::encodeTelemetry(snap), live);

    // Malformed payloads throw FatalError instead of decoding to zero.
    EXPECT_THROW(
        serve::decodeTelemetry(R"({"gauges":{},"histograms":{}})"),
        util::FatalError);
    EXPECT_THROW(serve::decodeTelemetry(
                     R"({"counters":{},"gauges":{},"histograms":)"
                     R"({"h":{"count":1,"sum":1,"buckets":7}}})"),
                 util::FatalError);
    EXPECT_THROW(serve::decodeTelemetry(
                     R"({"counters":{},"gauges":{},"histograms":)"
                     R"({"h":{"count":-1,"sum":1,"buckets":[1]}}})"),
                 util::FatalError);
    EXPECT_THROW(serve::decodeTelemetry(
                     R"({"counters":{"x":-1},"gauges":{},)"
                     R"("histograms":{}})"),
                 util::FatalError);
}

TEST(ServeProtocol, FleetProbeRequestsRoundTripBitExact)
{
    serve::Request req;
    req.id = 41;
    req.fleetProbe = true;
    const std::string wire = serve::encodeRequest(req);
    EXPECT_EQ(wire, "{\"v\":1,\"id\":41,\"fleet\":true}");
    const serve::Request back = serve::decodeRequest(wire);
    EXPECT_TRUE(back.fleetProbe);
    EXPECT_FALSE(back.statsProbe);
    EXPECT_FALSE(back.hasSpec);
    EXPECT_EQ(serve::encodeRequest(back), wire);
}

TEST(ServeProtocol, FleetResponsesCarryTheShardMapVerbatim)
{
    serve::Response rsp;
    rsp.id = 41;
    rsp.ok = true;
    rsp.simVersion = serve::simulatorVersion();
    rsp.fleet = "{\"shards\":[\"h1:1\",\"h2:2\"],\"vnodes\":64,"
                "\"rf\":2,\"self\":0}";
    const std::string wire = serve::encodeResponse(rsp);
    const serve::Response back = serve::decodeResponse(wire);
    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.fleet, rsp.fleet);
    EXPECT_EQ(serve::encodeResponse(back), wire);

    // Non-fleet responses must not gain the key.
    EXPECT_EQ(serve::encodeResponse(serve::errorResponse(1, "x"))
                  .find("fleet"),
              std::string::npos);
}

TEST(ServeProtocol, PutRequestsRoundTripBitExact)
{
    Rng rng(0x907);
    for (int i = 0; i < 100; ++i) {
        serve::Request req;
        req.id = std::uint64_t(rng.uniformInt(0, 1 << 30));
        req.kind = randomKind(rng);
        req.unroll = randomUnroll(rng);
        req.spec = randomSpec(rng);
        req.put = true;
        req.putSimVersion = serve::simulatorVersion();
        req.putStats.cycles = (std::uint64_t(1) << 53) + 1;
        req.putStats.effectiveMacs =
            std::uint64_t(rng.uniformInt(0, 1 << 30));
        req.putStats.weightLoads =
            std::uint64_t(rng.uniformInt(0, 1 << 30));

        const std::string wire = serve::encodeRequest(req);
        const serve::Request back = serve::decodeRequest(wire);
        EXPECT_TRUE(back.put);
        EXPECT_TRUE(back.hasSpec) << "a put names its triple";
        EXPECT_EQ(back.id, req.id);
        EXPECT_EQ(back.kind, req.kind);
        EXPECT_EQ(back.putSimVersion, req.putSimVersion);
        EXPECT_EQ(back.putStats.cycles, req.putStats.cycles);
        EXPECT_EQ(back.putStats.effectiveMacs,
                  req.putStats.effectiveMacs);
        EXPECT_EQ(serve::encodeRequest(back), wire);
    }
}

TEST(ServeProtocol, PutAckResponsesRoundTripBitExact)
{
    serve::Response rsp;
    rsp.id = 12;
    rsp.ok = true;
    rsp.simVersion = serve::simulatorVersion();
    rsp.arch = "NLR";
    rsp.cache = "put";
    rsp.stats.cycles = 1234;
    const std::string wire = serve::encodeResponse(rsp);
    const serve::Response back = serve::decodeResponse(wire);
    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.cache, "put");
    EXPECT_EQ(back.stats.cycles, 1234u);
    EXPECT_EQ(serve::encodeResponse(back), wire);
}

TEST(ServeProtocol, MetricsProbeRequestsRoundTripBitExact)
{
    serve::Request req;
    req.id = 51;
    req.metricsProbe = true;
    const std::string wire = serve::encodeRequest(req);
    EXPECT_EQ(wire, "{\"v\":1,\"id\":51,\"metrics\":true}");
    const serve::Request back = serve::decodeRequest(wire);
    EXPECT_TRUE(back.metricsProbe);
    EXPECT_FALSE(back.statsProbe);
    EXPECT_FALSE(back.hasSpec);
    EXPECT_EQ(serve::encodeRequest(back), wire);
}

TEST(ServeProtocol, TraceDrainRequestsRoundTripBitExact)
{
    serve::Request req;
    req.id = 52;
    req.traceDrainProbe = true;
    const std::string wire = serve::encodeRequest(req);
    EXPECT_EQ(wire, "{\"v\":1,\"id\":52,\"trace-drain\":true}");
    const serve::Request back = serve::decodeRequest(wire);
    EXPECT_TRUE(back.traceDrainProbe);
    EXPECT_FALSE(back.metricsProbe);
    EXPECT_FALSE(back.hasSpec);
    EXPECT_EQ(serve::encodeRequest(back), wire);
}

TEST(ServeProtocol, LiveCollectionProbesRejectMalformedForms)
{
    EXPECT_THROW(
        serve::decodeRequest(R"({"v":1,"id":1,"metrics":false})"),
        util::FatalError);
    EXPECT_THROW(serve::decodeRequest(
                     R"({"v":1,"id":1,"metrics":true,"model":"dcgan",)"
                     R"("family":"D","arch":"NLR"})"),
                 util::FatalError);
    EXPECT_THROW(
        serve::decodeRequest(R"({"v":1,"id":1,"trace-drain":false})"),
        util::FatalError);
    EXPECT_THROW(
        serve::decodeRequest(
            R"({"v":1,"id":1,"trace-drain":true,"model":"dcgan",)"
            R"("family":"D","arch":"NLR"})"),
        util::FatalError);
}

TEST(ServeProtocol, TraceContextRidesAnyRequestForm)
{
    const std::string ctx =
        "0123456789abcdef0123456789abcdef-00000000000000aa";

    serve::Request probe;
    probe.id = 7;
    probe.statsProbe = true;
    probe.trace = ctx;
    const std::string wire = serve::encodeRequest(probe);
    EXPECT_EQ(wire, "{\"v\":1,\"id\":7,\"trace\":\"" + ctx +
                        "\",\"stats\":true}");
    const serve::Request back = serve::decodeRequest(wire);
    EXPECT_EQ(back.trace, ctx);
    EXPECT_TRUE(back.statsProbe);
    EXPECT_EQ(serve::encodeRequest(back), wire);

    // Simulation requests carry it too, and only when set: with an
    // empty context the field never appears on the wire, so traced
    // and untraced streams replay byte-identically.
    Rng rng(0x7247);
    serve::Request sim;
    sim.id = 8;
    sim.kind = randomKind(rng);
    sim.unroll = randomUnroll(rng);
    sim.hasSpec = true;
    sim.spec = randomSpec(rng);
    const std::string untraced = serve::encodeRequest(sim);
    EXPECT_EQ(untraced.find("trace"), std::string::npos);
    sim.trace = ctx;
    const std::string traced = serve::encodeRequest(sim);
    const serve::Request simBack = serve::decodeRequest(traced);
    EXPECT_EQ(simBack.trace, ctx);
    EXPECT_EQ(serve::encodeRequest(simBack), traced);
    serve::Request stripped = simBack;
    stripped.trace.clear();
    EXPECT_EQ(serve::encodeRequest(stripped), untraced);
}

TEST(ServeProtocol, MetricsResponsesCarryPrometheusTextAsAString)
{
    serve::Response rsp;
    rsp.id = 51;
    rsp.ok = true;
    rsp.simVersion = serve::simulatorVersion();
    rsp.metricsText = "# TYPE a_total counter\na_total 3\n"
                      "b_us_bucket{le=\"1\"} 2 # "
                      "{trace_id=\"00ff\"} 1\n";
    const std::string wire = serve::encodeResponse(rsp);
    const serve::Response back = serve::decodeResponse(wire);
    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.metricsText, rsp.metricsText);
    EXPECT_EQ(serve::encodeResponse(back), wire);

    EXPECT_EQ(serve::encodeResponse(serve::errorResponse(1, "x"))
                  .find("metrics"),
              std::string::npos);
}

TEST(ServeProtocol, SpanBatchCodecRoundTripsBitExact)
{
    std::vector<obs::TraceEvent> events(2);
    events[0].name = "serve.simulate";
    events[0].cat = "serve";
    events[0].tid = 3;
    events[0].ts = 100;
    events[0].dur = 42;
    events[0].args = "{\"trace\":\"00ff\",\"span\":\"0a\","
                     "\"parent\":\"0b\"}";
    events[1].name = "with \"quotes\" and \\ backslash";
    events[1].ts = 7;
    events[1].dur = 1;

    const std::string batch = serve::encodeSpanBatch(events);
    const std::vector<obs::TraceEvent> back =
        serve::decodeSpanBatch(batch);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].name, events[0].name);
    EXPECT_EQ(back[0].cat, events[0].cat);
    EXPECT_EQ(back[0].tid, events[0].tid);
    EXPECT_EQ(back[0].ts, events[0].ts);
    EXPECT_EQ(back[0].dur, events[0].dur);
    EXPECT_EQ(back[0].ph, 'X');
    EXPECT_EQ(back[1].name, events[1].name);
    EXPECT_EQ(serve::encodeSpanBatch(back), batch);

    // Args survive as canonical JSON the merge step can re-dump.
    const auto doc = util::json::parse(batch);
    EXPECT_EQ(doc.asObject()
                  .at("events")
                  .asArray()[0]
                  .asObject()
                  .at("args")
                  .asObject()
                  .at("span")
                  .asString(),
              "0a");

    // The empty batch is the pinned no-spans drain payload.
    EXPECT_EQ(serve::encodeSpanBatch({}), "{\"events\":[]}");
    EXPECT_TRUE(serve::decodeSpanBatch("{\"events\":[]}").empty());
    EXPECT_THROW(serve::decodeSpanBatch("nope"), util::FatalError);
    EXPECT_THROW(serve::decodeSpanBatch("{}"), util::FatalError);
}

TEST(ServeProtocol, SpanResponsesCarryTheBatchVerbatim)
{
    serve::Response rsp;
    rsp.id = 52;
    rsp.ok = true;
    rsp.simVersion = serve::simulatorVersion();
    std::vector<obs::TraceEvent> events(1);
    events[0].name = "serve.request";
    events[0].ts = 5;
    events[0].dur = 9;
    rsp.spans = serve::encodeSpanBatch(events);
    const std::string wire = serve::encodeResponse(rsp);
    const serve::Response back = serve::decodeResponse(wire);
    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.spans, rsp.spans);
    EXPECT_EQ(serve::encodeResponse(back), wire);
    ASSERT_EQ(serve::decodeSpanBatch(back.spans).size(), 1u);

    EXPECT_EQ(serve::encodeResponse(serve::errorResponse(1, "x"))
                  .find("spans"),
              std::string::npos);
}

} // namespace
