/**
 * @file
 * Telemetry-layer tests: registry semantics (stable refs, snapshot
 * accumulation, collector lifecycle), histogram bucketing, the
 * Prometheus text dump, the Chrome-trace emitter and span sink, the
 * cycle-walk probe — and the central promise of the whole subsystem:
 * with telemetry off every hook is a no-op, and with telemetry *on*
 * every simulation output is still bit-identical (observation never
 * feeds back).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/dse.hh"
#include "core/zfost.hh"
#include "gan/models.hh"
#include "obs/metrics.hh"
#include "obs/probe.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "sim/conv_spec.hh"
#include "sim/json.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace {

using namespace ganacc;
namespace fs = std::filesystem;

/** Scratch file path unique to the running test. */
std::string
scratchPath(const std::string &leaf)
{
    return (fs::temp_directory_path() /
            ("ganacc-obs-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name() +
             "-" + leaf))
        .string();
}

/** A D-fwd-shaped job small enough for many runs per test. */
sim::ConvSpec
smallSpec()
{
    sim::ConvSpec s;
    s.label = "obs-test";
    s.nif = 3;
    s.nof = 4;
    s.ih = s.iw = 12;
    s.kh = s.kw = 5;
    s.stride = 2;
    s.pad = 2;
    s.oh = s.ow = 6;
    return s;
}

TEST(Metrics, CounterAndGaugeBasics)
{
    obs::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);

    obs::Gauge g;
    g.set(7);
    g.add(-10);
    EXPECT_EQ(g.value(), -3);
}

TEST(Metrics, RegistryReturnsStableReferences)
{
    auto &reg = obs::Registry::instance();
    obs::Counter &a = reg.counter("test_obs_stable_total", "help once");
    obs::Counter &b = reg.counter("test_obs_stable_total");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.help("test_obs_stable_total"), "help once");
}

TEST(Metrics, HistogramBucketsArePowersOfTwo)
{
    using obs::Histogram;
    EXPECT_EQ(Histogram::bucketIndex(0), 0);
    EXPECT_EQ(Histogram::bucketIndex(1), 0);
    EXPECT_EQ(Histogram::bucketIndex(2), 1);
    EXPECT_EQ(Histogram::bucketIndex(3), 2);
    EXPECT_EQ(Histogram::bucketIndex(1u << 20), 20);
    EXPECT_EQ(Histogram::bucketIndex((1u << 20) + 1),
              Histogram::kFiniteBuckets);

    Histogram h;
    h.observe(1);
    h.observe(3);
    h.observe(1u << 21); // lands in +Inf
    const obs::HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 3u);
    EXPECT_EQ(s.sum, 1u + 3u + (1u << 21));
    EXPECT_EQ(s.buckets[0], 1u);
    EXPECT_EQ(s.buckets[2], 1u);
    EXPECT_EQ(s.buckets[std::size_t(Histogram::kFiniteBuckets)], 1u);
}

TEST(Metrics, SnapshotAccumulatesRepeatedNames)
{
    obs::Snapshot s;
    s.counter("x_total", 2);
    s.counter("x_total", 3);
    s.gauge("x_level", 1);
    s.gauge("x_level", -4);
    EXPECT_EQ(s.counters().at("x_total"), 5u);
    EXPECT_EQ(s.gauges().at("x_level"), -3);

    obs::HistogramSnapshot h;
    h.buckets = {1, 0};
    h.count = 1;
    h.sum = 1;
    s.histogram("x_hist", h);
    s.histogram("x_hist", h);
    EXPECT_EQ(s.histograms().at("x_hist").count, 2u);
    EXPECT_EQ(s.histograms().at("x_hist").buckets[0], 2u);
}

TEST(Metrics, CollectorsRunInSnapshotAndCanBeRemoved)
{
    auto &reg = obs::Registry::instance();
    const int token = reg.addCollector([](obs::Snapshot &s) {
        s.counter("test_obs_collected_total", 11);
    });
    EXPECT_EQ(reg.snapshot().counters().at("test_obs_collected_total"),
              11u);
    reg.removeCollector(token);
    EXPECT_EQ(reg.snapshot().counters().count(
                  "test_obs_collected_total"),
              0u);
}

TEST(Metrics, BaseNameStripsLabelBlock)
{
    EXPECT_EQ(obs::metricBaseName("plain_total"), "plain_total");
    EXPECT_EQ(obs::metricBaseName("a_total{arch=\"ZFOST\"}"),
              "a_total");
}

TEST(Metrics, PrometheusRenderIsWellFormed)
{
    obs::Snapshot s;
    s.counter("t_req_total{arch=\"A\"}", 3);
    s.counter("t_req_total{arch=\"B\"}", 4);
    s.gauge("t_depth", 2);
    obs::HistogramSnapshot h;
    h.buckets.assign(std::size_t(obs::Histogram::kBuckets), 0);
    h.buckets[0] = 2; // two samples <= 1
    h.buckets[1] = 1; // one sample <= 2
    h.count = 3;
    h.sum = 4;
    s.histogram("t_lat_us", h);

    const std::string text = obs::renderPrometheus(s);
    EXPECT_NE(text.find("# TYPE t_req_total counter"),
              std::string::npos);
    // One header for the two labelled series.
    EXPECT_EQ(text.find("# TYPE t_req_total counter"),
              text.rfind("# TYPE t_req_total counter"));
    EXPECT_NE(text.find("t_req_total{arch=\"A\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE t_depth gauge"), std::string::npos);
    // Buckets are cumulative and end at +Inf == count.
    EXPECT_NE(text.find("t_lat_us_bucket{le=\"1\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("t_lat_us_bucket{le=\"2\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("t_lat_us_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("t_lat_us_sum 4"), std::string::npos);
    EXPECT_NE(text.find("t_lat_us_count 3"), std::string::npos);
}

TEST(Metrics, ZeroCountHistogramDumpIsWellFormed)
{
    obs::Snapshot s;
    obs::HistogramSnapshot h;
    h.buckets.assign(std::size_t(obs::Histogram::kBuckets), 0);
    s.histogram("t_empty_us", h);

    const std::string text = obs::renderPrometheus(s);
    EXPECT_NE(text.find("# TYPE t_empty_us histogram"),
              std::string::npos);
    EXPECT_NE(text.find("t_empty_us_bucket{le=\"1\"} 0"),
              std::string::npos);
    EXPECT_NE(text.find("t_empty_us_bucket{le=\"+Inf\"} 0"),
              std::string::npos);
    EXPECT_NE(text.find("t_empty_us_sum 0"), std::string::npos);
    EXPECT_NE(text.find("t_empty_us_count 0"), std::string::npos);
}

TEST(Metrics, InfBucketSamplesStayCumulative)
{
    obs::Histogram h;
    h.observe((std::uint64_t(1) << 20) + 1); // first value past 2^20
    h.observe(std::uint64_t(1) << 40);       // far past every bound
    obs::Snapshot s;
    s.histogram("t_inf_us", h.snapshot());

    const std::string text = obs::renderPrometheus(s);
    // Every finite bucket is 0; +Inf picks up both samples.
    EXPECT_NE(text.find("t_inf_us_bucket{le=\"1048576\"} 0"),
              std::string::npos);
    EXPECT_NE(text.find("t_inf_us_bucket{le=\"+Inf\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("t_inf_us_count 2"), std::string::npos);
}

TEST(Metrics, ExemplarRendersAfterTheBucketLine)
{
    obs::Histogram h;
    h.observe(3);
    h.exemplar(3, "00112233445566778899aabbccddeeff");
    obs::Snapshot s;
    s.histogram("t_ex_us", h.snapshot());

    const std::string text = obs::renderPrometheus(s);
    EXPECT_NE(text.find("t_ex_us_bucket{le=\"4\"} 1 # "
                        "{trace_id=\"00112233445566778899aabbccddeeff"
                        "\"} 3"),
              std::string::npos);
    // Buckets without an exemplar keep the plain form.
    EXPECT_NE(text.find("t_ex_us_bucket{le=\"1\"} 0\n"),
              std::string::npos);
}

TEST(Metrics, ExemplarMergeKeepsFirstNonEmpty)
{
    obs::Histogram a;
    a.observe(2);
    a.exemplar(2, "aa0000000000000000000000000000aa");
    obs::Histogram b;
    b.observe(2);
    b.exemplar(2, "bb0000000000000000000000000000bb");
    obs::HistogramSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    EXPECT_EQ(merged.count, 2u);
    EXPECT_EQ(merged.exemplars[1].traceId,
              "aa0000000000000000000000000000aa");

    // An empty slot takes the donor's exemplar instead.
    obs::Histogram c;
    c.observe(2);
    obs::HistogramSnapshot filled = c.snapshot();
    filled.merge(b.snapshot());
    EXPECT_EQ(filled.exemplars[1].traceId,
              "bb0000000000000000000000000000bb");
}

TEST(Metrics, ExemplarsStayOutOfTheJsonTelemetrySnapshot)
{
    auto &reg = obs::Registry::instance();
    obs::Histogram &h = reg.histogram("test_obs_exemplar_json_us");
    h.observe(5);
    h.exemplar(5, "cafecafecafecafecafecafecafecafe");
    const obs::Snapshot snap = reg.snapshot();
    // The JSON path (serve::encodeTelemetry) reads only
    // count/sum/buckets; the exemplar must ride the snapshot without
    // leaking into any byte-stable probe response. Guard the contract
    // here at the source: snapshots carry it in a dedicated field.
    const obs::HistogramSnapshot &hs =
        snap.histograms().at("test_obs_exemplar_json_us");
    EXPECT_EQ(hs.exemplars[3].traceId,
              "cafecafecafecafecafecafecafecafe");
}

TEST(Metrics, ConcurrentRecordVsCollect)
{
    // TSan coverage: observe()/exemplar() racing snapshot()/render.
    obs::Histogram h;
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        std::uint64_t v = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            h.observe(v % 4096);
            if (v % 64 == 0)
                h.exemplar(v % 4096,
                           "feedfeedfeedfeedfeedfeedfeedfeed");
            ++v;
        }
    });
    for (int i = 0; i < 200; ++i) {
        obs::Snapshot s;
        s.histogram("t_race_us", h.snapshot());
        const std::string text = obs::renderPrometheus(s);
        EXPECT_NE(text.find("t_race_us_count"), std::string::npos);
    }
    stop.store(true);
    writer.join();
    const obs::HistogramSnapshot last = h.snapshot();
    std::uint64_t bucketTotal = 0;
    for (std::uint64_t b : last.buckets)
        bucketTotal += b;
    EXPECT_EQ(bucketTotal, last.count);
}

TEST(Trace, ContextRoundTrip)
{
    obs::TraceContext ctx;
    ctx.traceHi = 0x0123456789abcdefULL;
    ctx.traceLo = 0xfedcba9876543210ULL;
    ctx.span = 0x1122334455667788ULL;
    const std::string wire = obs::encodeTraceContext(ctx);
    EXPECT_EQ(wire,
              "0123456789abcdeffedcba9876543210-1122334455667788");
    const obs::TraceContext back = obs::decodeTraceContext(wire);
    EXPECT_EQ(back.traceHi, ctx.traceHi);
    EXPECT_EQ(back.traceLo, ctx.traceLo);
    EXPECT_EQ(back.span, ctx.span);

    EXPECT_THROW(obs::decodeTraceContext(""), util::FatalError);
    EXPECT_THROW(obs::decodeTraceContext("abc"), util::FatalError);
    EXPECT_THROW(
        obs::decodeTraceContext(
            "0123456789abcdeffedcba9876543210+1122334455667788"),
        util::FatalError);
    EXPECT_THROW(
        obs::decodeTraceContext(
            "0123456789abcdeffedcba987654321g-1122334455667788"),
        util::FatalError);
    EXPECT_THROW( // zero trace id is reserved for "no trace"
        obs::decodeTraceContext(
            "00000000000000000000000000000000-1122334455667788"),
        util::FatalError);
}

TEST(Trace, NewContextsAreValidAndDistinct)
{
    const obs::TraceContext a = obs::newTraceContext();
    const obs::TraceContext b = obs::newTraceContext();
    EXPECT_TRUE(a.valid());
    EXPECT_TRUE(b.valid());
    EXPECT_FALSE(a.traceHi == b.traceHi && a.traceLo == b.traceLo);
    EXPECT_NE(obs::newSpanId(), obs::newSpanId());
}

TEST(Trace, SpanArgsFormat)
{
    obs::TraceContext ctx;
    ctx.traceHi = 1;
    ctx.traceLo = 2;
    EXPECT_EQ(obs::spanArgs(ctx, 3, 0),
              "{\"trace\":\"00000000000000010000000000000002\","
              "\"span\":\"0000000000000003\"}");
    EXPECT_EQ(obs::spanArgs(ctx, 3, 4, "\"id\":7"),
              "{\"trace\":\"00000000000000010000000000000002\","
              "\"span\":\"0000000000000003\","
              "\"parent\":\"0000000000000004\",\"id\":7}");
    EXPECT_EQ(obs::spanArgs(std::string(32, 'a'), 3, 4),
              "{\"trace\":\"" + std::string(32, 'a') +
                  "\",\"span\":\"0000000000000003\","
                  "\"parent\":\"0000000000000004\"}");
}

TEST(Trace, DrainWhileRecordingKeepsTheSinkLive)
{
    obs::TraceSink &sink = obs::TraceSink::instance();
    sink.enable(""); // live mode: no file, drain()-only
    {
        obs::Span a("live-a", "test");
    }
    EXPECT_EQ(sink.eventCount(), 1u);

    const std::vector<obs::TraceEvent> first = sink.drain();
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].name, "live-a");
    EXPECT_TRUE(sink.enabled()); // unlike flush(), drain keeps going
    EXPECT_EQ(sink.eventCount(), 0u);

    {
        obs::Span b("live-b", "test");
    }
    const std::vector<obs::TraceEvent> second = sink.drain();
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].name, "live-b");

    // flush() must refuse in live mode and leave the buffer alone.
    {
        obs::Span c("live-c", "test");
    }
    EXPECT_FALSE(sink.flush());
    EXPECT_TRUE(sink.enabled());
    EXPECT_EQ(sink.eventCount(), 1u);
    sink.disable();
    sink.drain();
}

TEST(Trace, DrainRacesRecordingCleanly)
{
    obs::TraceSink &sink = obs::TraceSink::instance();
    sink.enable("");
    std::atomic<bool> stop{false};
    std::atomic<bool> started{false};
    std::thread writer([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            obs::TraceEvent ev;
            ev.name = "racer";
            sink.record(std::move(ev));
            started.store(true, std::memory_order_release);
        }
    });
    while (!started.load(std::memory_order_acquire))
        std::this_thread::yield();
    std::size_t drained = 0;
    for (int i = 0; i < 100; ++i)
        drained += sink.drain().size();
    stop.store(true);
    writer.join();
    drained += sink.drain().size();
    EXPECT_GT(drained, 0u);
    EXPECT_EQ(sink.eventCount(), 0u);
    sink.disable();
}

TEST(Trace, HeadSamplingIsAPureHashOfTheTraceId)
{
    obs::TraceSink &sink = obs::TraceSink::instance();
    obs::TraceContext ctx;
    ctx.traceHi = 0x1234;
    ctx.traceLo = 0x5678;

    sink.setSampling(1.0, 0);
    EXPECT_TRUE(sink.headSampled(ctx));
    EXPECT_TRUE(sink.keep(ctx, 0));

    sink.setSampling(0.0, 0);
    EXPECT_FALSE(sink.headSampled(ctx));
    EXPECT_FALSE(sink.keep(ctx, 1u << 30));

    // Same id, same verdict — the fleet-wide coherence property.
    sink.setSampling(0.5, 0);
    const bool verdict = sink.headSampled(ctx);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(sink.headSampled(ctx), verdict);

    // At rate 0.5 a run of fresh ids lands on both sides.
    int kept = 0;
    for (int i = 0; i < 256; ++i)
        kept += sink.headSampled(obs::newTraceContext()) ? 1 : 0;
    EXPECT_GT(kept, 0);
    EXPECT_LT(kept, 256);
    sink.setSampling(1.0, 0);
}

TEST(Trace, TailKeepOverridesAHeadDrop)
{
    obs::TraceSink &sink = obs::TraceSink::instance();
    obs::TraceContext dropped;
    dropped.traceHi = 1;
    dropped.traceLo = 1;
    sink.setSampling(0.0, 1000);
    EXPECT_FALSE(sink.headSampled(dropped));
    EXPECT_FALSE(sink.keep(dropped, 999)); // under the threshold
    EXPECT_TRUE(sink.keep(dropped, 1000)); // at the threshold
    EXPECT_TRUE(sink.keep(dropped, 5000));
    sink.setSampling(1.0, 0);
}

TEST(Trace, ChromeJsonByteFormat)
{
    std::vector<obs::TraceEvent> events(2);
    events[0].name = "a \"quoted\"";
    events[0].tid = 1;
    events[0].ts = 10;
    events[0].dur = 5;
    events[1].name = "b";
    events[1].cat = "cat";
    events[1].ts = 20;
    events[1].dur = 0;
    events[1].args = "{\"k\":1}";

    std::ostringstream os;
    obs::writeChromeTraceJson(os, events, {{"tool", "t"}}, "ns");
    EXPECT_EQ(os.str(),
              "{\"traceEvents\":[\n"
              "{\"name\":\"a \\\"quoted\\\"\",\"ph\":\"X\",\"pid\":0,"
              "\"tid\":1,\"ts\":10,\"dur\":5},\n"
              "{\"name\":\"b\",\"cat\":\"cat\",\"ph\":\"X\",\"pid\":0,"
              "\"tid\":0,\"ts\":20,\"dur\":0,\"args\":{\"k\":1}}\n"
              "],\n"
              "\"displayTimeUnit\":\"ns\",\n"
              "\"metadata\":{\"tool\":\"t\"}}\n");
}

TEST(Trace, DisabledSinkRecordsNothing)
{
    obs::TraceSink &sink = obs::TraceSink::instance();
    ASSERT_FALSE(sink.enabled());
    const std::size_t before = sink.eventCount();
    {
        obs::Span span("should-not-appear");
    }
    EXPECT_EQ(sink.eventCount(), before);
}

TEST(Trace, SpansFlushToAParseableChromeTrace)
{
    const std::string path = scratchPath("trace.json");
    obs::TraceSink &sink = obs::TraceSink::instance();
    sink.enable(path);
    {
        obs::Span outer("outer", "test", "{\"n\":1}");
        obs::Span inner("inner", "test");
    }
    std::thread([] { obs::Span t("from-thread"); }).join();
    EXPECT_EQ(sink.eventCount(), 3u);
    ASSERT_TRUE(sink.flush());
    EXPECT_FALSE(sink.enabled());
    EXPECT_EQ(sink.eventCount(), 0u);

    std::ifstream is(path);
    ASSERT_TRUE(bool(is));
    std::stringstream buf;
    buf << is.rdbuf();
    const auto doc = util::json::parse(buf.str());
    const auto &events = doc.asObject().at("traceEvents").asArray();
    ASSERT_EQ(events.size(), 3u);
    bool sawOuter = false;
    for (const auto &ev : events) {
        const auto &o = ev.asObject();
        EXPECT_EQ(o.at("ph").asString(), "X");
        if (o.at("name").asString() == "outer") {
            sawOuter = true;
            EXPECT_EQ(o.at("args").asObject().at("n").asUint64(), 1u);
        }
    }
    EXPECT_TRUE(sawOuter);
    fs::remove(path);
}

TEST(Probe, MetricsProbeTalliesPerArchCounters)
{
    auto &reg = obs::Registry::instance();
    obs::Counter &runs =
        reg.counter("ganacc_sim_runs_total{arch=\"ZFOST\"}");
    obs::Counter &cycles =
        reg.counter("ganacc_sim_cycles_total{arch=\"ZFOST\"}");
    const std::uint64_t runs0 = runs.value();
    const std::uint64_t cycles0 = cycles.value();

    obs::MetricsProbe probe;
    obs::setRunProbe(&probe);
    core::Zfost arch(sim::Unroll{.pOf = 2, .pOx = 3, .pOy = 3});
    const sim::RunStats st = arch.run(smallSpec());
    obs::setRunProbe(nullptr);

    EXPECT_EQ(runs.value(), runs0 + 1);
    EXPECT_EQ(cycles.value(), cycles0 + st.cycles);
}

TEST(Telemetry, ConfigFromEnvReadsAllThreeKnobs)
{
    ::setenv("GANACC_TRACE", "t.json", 1);
    ::setenv("GANACC_METRICS", "m.prom", 1);
    const obs::TelemetryConfig cfg = obs::configFromEnv();
    ::unsetenv("GANACC_TRACE");
    ::unsetenv("GANACC_METRICS");
    EXPECT_EQ(cfg.tracePath, "t.json");
    EXPECT_EQ(cfg.metricsPath, "m.prom");
    EXPECT_TRUE(cfg.any());
}

/** The sampling knobs take only what the ganacc-served flags take: a
 *  whole-string, finite, in-range value. Anything else warns and
 *  keeps the default (rate 1, tail keep off). */
TEST(Telemetry, ConfigFromEnvRejectsMalformedSamplingKnobs)
{
    const obs::TelemetryConfig defaults;
    for (const char *rate : {"nan", "inf", "-0.5", "5", "0.5abc", "x"}) {
        ::setenv("GANACC_TRACE_SAMPLE", rate, 1);
        EXPECT_EQ(obs::configFromEnv().traceSampleRate,
                  defaults.traceSampleRate)
            << "GANACC_TRACE_SAMPLE=" << rate;
    }
    ::setenv("GANACC_TRACE_SAMPLE", "0", 1);
    EXPECT_EQ(obs::configFromEnv().traceSampleRate, 0.0);
    ::setenv("GANACC_TRACE_SAMPLE", "1", 1);
    EXPECT_EQ(obs::configFromEnv().traceSampleRate, 1.0);
    ::unsetenv("GANACC_TRACE_SAMPLE");

    for (const char *tail : {"-5", "+5", " 5", "5us", "1.5", "nan",
                             "99999999999999999999999"}) {
        ::setenv("GANACC_TRACE_TAIL_US", tail, 1);
        EXPECT_EQ(obs::configFromEnv().traceTailUs,
                  defaults.traceTailUs)
            << "GANACC_TRACE_TAIL_US=" << tail;
    }
    ::setenv("GANACC_TRACE_TAIL_US", "0", 1);
    EXPECT_EQ(obs::configFromEnv().traceTailUs, 0u);
    ::setenv("GANACC_TRACE_TAIL_US", "250", 1);
    EXPECT_EQ(obs::configFromEnv().traceTailUs, 250u);
    ::unsetenv("GANACC_TRACE_TAIL_US");
}

TEST(Telemetry, RunStatsAreBitIdenticalWithTelemetryOn)
{
    const sim::ConvSpec spec = smallSpec();
    core::Zfost arch(sim::Unroll{.pOf = 2, .pOx = 3, .pOy = 3});

    ASSERT_FALSE(obs::telemetryEnabled());
    const std::string off = sim::toJson(arch.run(spec));

    obs::TelemetryConfig cfg;
    cfg.tracePath = scratchPath("parity-trace.json");
    cfg.metricsPath = scratchPath("parity-metrics.prom");
    obs::enableTelemetry(cfg);
    ASSERT_TRUE(obs::telemetryEnabled());
    ASSERT_NE(obs::runProbe(), nullptr);
    const std::string on = sim::toJson(arch.run(spec));
    obs::shutdownTelemetry();
    ASSERT_FALSE(obs::telemetryEnabled());

    // Observation must never feed back into the simulation.
    EXPECT_EQ(off, on);
    EXPECT_EQ(off, sim::toJson(arch.run(spec)));
    fs::remove(cfg.tracePath);
    fs::remove(cfg.metricsPath);
}

TEST(Telemetry, SweepFrontierIsIdenticalWithTelemetryOn)
{
    core::DseConstraints cons;
    cons.budget = core::vcu9pBudget();
    cons.maxWPof = 12;
    const gan::GanModel model = gan::makeMnistGan();

    const auto off = core::sweepFrontier(cons, model);

    obs::TelemetryConfig cfg;
    cfg.tracePath = scratchPath("sweep-trace.json");
    obs::enableTelemetry(cfg);
    const auto on = core::sweepFrontier(cons, model);
    obs::shutdownTelemetry();

    ASSERT_EQ(off.size(), on.size());
    for (std::size_t i = 0; i < off.size(); ++i) {
        EXPECT_EQ(off[i].wPof, on[i].wPof);
        EXPECT_EQ(off[i].stPof, on[i].stPof);
        EXPECT_EQ(off[i].iterationCycles, on[i].iterationCycles);
        EXPECT_EQ(off[i].samplesPerSecond, on[i].samplesPerSecond);
        EXPECT_EQ(off[i].feasible(), on[i].feasible());
    }
    fs::remove(cfg.tracePath);
}

TEST(Telemetry, ShutdownDumpsPrometheusMetrics)
{
    obs::Registry::instance()
        .counter("test_obs_dumped_total", "landed in the dump")
        .add(5);
    obs::TelemetryConfig cfg;
    cfg.metricsPath = scratchPath("metrics.prom");
    obs::enableTelemetry(cfg);
    obs::shutdownTelemetry();

    std::ifstream is(cfg.metricsPath);
    ASSERT_TRUE(bool(is));
    std::stringstream buf;
    buf << is.rdbuf();
    EXPECT_NE(buf.str().find("test_obs_dumped_total 5"),
              std::string::npos);
    EXPECT_NE(buf.str().find("# TYPE test_obs_dumped_total counter"),
              std::string::npos);
    fs::remove(cfg.metricsPath);
}

} // namespace
