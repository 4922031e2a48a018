/**
 * @file
 * Tests of the conformance harness itself (src/conform/): trace codec
 * round-trips, generator determinism, clean conformance on both
 * transports with fault injection armed, the malformed-frame table
 * pinned against the live decoder and a live pipe daemon, and the
 * harness self-test — a deliberately injected store bug must be
 * caught and delta-debug shrunk to a tiny replayable trace.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "conform/harness.hh"
#include "conform/ops.hh"
#include "conform/shrink.hh"
#include "serve/daemon.hh"
#include "serve/engine.hh"
#include "serve/protocol.hh"
#include "util/logging.hh"

using namespace ganacc;
namespace fs = std::filesystem;

namespace {

std::vector<conform::Op>
sampleSequence(std::uint64_t seed, std::size_t ops)
{
    conform::GenOptions opt;
    opt.ops = ops;
    return conform::generateSequence(seed, opt);
}

} // namespace

TEST(ConformOps, CodecRoundTripsEveryGeneratedOp)
{
    for (std::uint64_t seed : {1u, 7u, 42u}) {
        const auto seq = sampleSequence(seed, 300);
        for (const conform::Op &op : seq) {
            const std::string line = conform::encodeOp(op);
            const conform::Op back = conform::decodeOp(line);
            EXPECT_EQ(line, conform::encodeOp(back)) << line;
        }
        const std::string trace = conform::encodeTrace(seq);
        EXPECT_EQ(trace,
                  conform::encodeTrace(conform::decodeTrace(trace)));
    }
}

TEST(ConformOps, GeneratorIsDeterministicPerSeed)
{
    const auto a = sampleSequence(42, 400);
    const auto b = sampleSequence(42, 400);
    EXPECT_EQ(conform::encodeTrace(a), conform::encodeTrace(b));
    const auto c = sampleSequence(43, 400);
    EXPECT_NE(conform::encodeTrace(a), conform::encodeTrace(c));
}

TEST(ConformOps, GeneratorCoversTheGrammar)
{
    const auto seq = sampleSequence(9, 600);
    std::size_t kinds[16] = {};
    for (const conform::Op &op : seq)
        ++kinds[std::size_t(op.kind)];
    for (auto k :
         {conform::OpKind::SimRequest, conform::OpKind::NetRequest,
          conform::OpKind::DupBurst, conform::OpKind::Malformed,
          conform::OpKind::StatsProbe, conform::OpKind::EvictMemory,
          conform::OpKind::EvictEntry, conform::OpKind::CorruptEntry,
          conform::OpKind::PlantStale, conform::OpKind::FsFault,
          conform::OpKind::Restart})
        EXPECT_GT(kinds[std::size_t(k)], 0u)
            << conform::opKindName(k);
}

/** Satellite: the malformed-frame table's expected error strings are
 *  exactly what the live decoder produces. */
TEST(ConformMalformed, TableMatchesLiveDecoder)
{
    for (const conform::MalformedFrame &f :
         conform::malformedFrames()) {
        SCOPED_TRACE(f.name);
        try {
            (void)serve::decodeRequest(f.line);
            FAIL() << "decoded without error: " << f.line;
        } catch (const util::FatalError &e) {
            EXPECT_EQ(f.error, std::string(e.what()));
        }
    }
}

/** Satellite: every malformed frame yields exactly one ok:false
 *  response carrying the pinned error text, and the connection
 *  survives — a valid request after the whole table still answers. */
TEST(ConformMalformed, PipeDaemonSurvivesEveryFrame)
{
    const auto &table = conform::malformedFrames();
    std::ostringstream reqs;
    for (const conform::MalformedFrame &f : table)
        reqs << f.line << "\n";
    serve::Request valid;
    valid.id = 777;
    valid.statsProbe = true;
    reqs << serve::encodeRequest(valid) << "\n";

    serve::EngineOptions eo;
    eo.jobs = 1;
    eo.deterministic = true;
    serve::Engine engine(eo);
    std::istringstream in(reqs.str());
    std::ostringstream out;
    const serve::ServeTotals totals =
        serve::runPipeServer(in, out, engine);
    engine.drain();
    EXPECT_EQ(totals.lines, table.size() + 1);
    EXPECT_EQ(totals.responses, table.size() + 1);

    std::istringstream rsps(out.str());
    std::string line;
    for (const conform::MalformedFrame &f : table) {
        SCOPED_TRACE(f.name);
        ASSERT_TRUE(std::getline(rsps, line));
        const serve::Response rsp = serve::decodeResponse(line);
        EXPECT_FALSE(rsp.ok);
        EXPECT_EQ(f.error, rsp.error);
    }
    ASSERT_TRUE(std::getline(rsps, line));
    const serve::Response last = serve::decodeResponse(line);
    EXPECT_TRUE(last.ok);
    EXPECT_EQ(777u, last.id);
}

namespace {

conform::RunOptions
testRunOptions(conform::SutMode mode, const char *tag)
{
    conform::RunOptions opt;
    opt.mode = mode;
    opt.scratchDir =
        conform::defaultScratchDir() + "-t" + tag + "-" +
        conform::sutModeName(mode);
    return opt;
}

} // namespace

TEST(ConformHarness, UnixDaemonConformsWithFaultsArmed)
{
    const auto seq = sampleSequence(5, 250);
    const conform::Report rep = conform::runConformance(
        seq, testRunOptions(conform::SutMode::Unix, "clean"));
    EXPECT_TRUE(rep.clean()) << rep.text();
    EXPECT_EQ(seq.size(), rep.opsApplied);
}

TEST(ConformHarness, CleanRunRemovesItsScratchDirectory)
{
    const auto seq = sampleSequence(5, 40);
    const auto opt = testRunOptions(conform::SutMode::Pipe, "scratch");
    const conform::Report rep = conform::runConformance(seq, opt);
    EXPECT_TRUE(rep.clean()) << rep.text();
    EXPECT_FALSE(fs::exists(opt.scratchDir)) << opt.scratchDir;
}

TEST(ConformHarness, PipeDaemonConformsWithFaultsArmed)
{
    const auto seq = sampleSequence(5, 250);
    const conform::Report rep = conform::runConformance(
        seq, testRunOptions(conform::SutMode::Pipe, "clean"));
    EXPECT_TRUE(rep.clean()) << rep.text();
    EXPECT_EQ(seq.size(), rep.opsApplied);
}

TEST(ConformHarness, TcpDaemonConformsWithFaultsArmed)
{
    const auto seq = sampleSequence(5, 250);
    const conform::Report rep = conform::runConformance(
        seq, testRunOptions(conform::SutMode::Tcp, "clean"));
    EXPECT_TRUE(rep.clean()) << rep.text();
    EXPECT_EQ(seq.size(), rep.opsApplied);
}

/** A 2-shard TCP fleet behind fleet::Router must conform to the
 *  sharded reference model: ring placement, RF=2 replication and
 *  per-shard stores all predicted op for op. Filesystem-fault ops are
 *  process-global, so the fleet generator profile drops them. */
TEST(ConformHarness, TwoShardFleetConforms)
{
    conform::GenOptions gopt;
    gopt.ops = 250;
    gopt.fsFaults = false;
    const auto seq = conform::generateSequence(13, gopt);

    conform::RunOptions opt;
    opt.shards = 2;
    opt.scratchDir = conform::defaultScratchDir() + "-tfleet2";
    const conform::Report rep = conform::runConformance(seq, opt);
    EXPECT_TRUE(rep.clean()) << rep.text();
    EXPECT_EQ(seq.size(), rep.opsApplied);
}

/** The fleet harness self-test: the same injected store bug the
 *  single-daemon runs catch must also be caught through the router —
 *  sharding must not blunt the differential check. */
TEST(ConformHarness, FleetCatchesInjectedStaleVersionBug)
{
    conform::GenOptions gopt;
    gopt.ops = 500;
    gopt.fsFaults = false;
    const auto seq = conform::generateSequence(7, gopt);

    conform::RunOptions opt;
    opt.shards = 2;
    opt.scratchDir = conform::defaultScratchDir() + "-tfleetbug";
    opt.bug = serve::StoreBug::SkipStaleCheck;
    const conform::Report rep = conform::runConformance(seq, opt);
    ASSERT_FALSE(rep.clean())
        << "injected stale-version bug went undetected in the fleet";
}

TEST(ConformHarness, ReportsAreDeterministic)
{
    const auto seq = sampleSequence(11, 150);
    const auto opt = testRunOptions(conform::SutMode::Pipe, "det");
    const conform::Report a = conform::runConformance(seq, opt);
    const conform::Report b = conform::runConformance(seq, opt);
    EXPECT_EQ(a.text(), b.text());
    EXPECT_EQ(a.linesSent, b.linesSent);
}

/** The harness self-test: a store that skips stale-version
 *  invalidation must be caught, and the failing sequence must shrink
 *  to a handful of ops whose trace replays the failure — and passes
 *  once the bug is off. */
TEST(ConformHarness, CatchesAndShrinksInjectedStaleVersionBug)
{
    const auto seq = sampleSequence(7, 500);
    auto opt = testRunOptions(conform::SutMode::Unix, "bug");
    opt.bug = serve::StoreBug::SkipStaleCheck;

    const conform::Report rep = conform::runConformance(seq, opt);
    ASSERT_FALSE(rep.clean())
        << "injected stale-version bug went undetected";

    const conform::ShrinkResult sr =
        conform::shrinkSequence(seq, opt);
    EXPECT_LE(sr.ops.size(), 20u) << "shrink stalled at "
                                  << sr.ops.size() << " ops";
    EXPECT_FALSE(conform::runConformance(sr.ops, opt).clean());

    // The minimized trace is self-contained: decode it back and it
    // still reproduces; with the bug off the same trace is clean.
    const auto replayed =
        conform::decodeTrace(conform::encodeTrace(sr.ops));
    EXPECT_FALSE(conform::runConformance(replayed, opt).clean());
    opt.bug = serve::StoreBug::None;
    const conform::Report clean =
        conform::runConformance(replayed, opt);
    EXPECT_TRUE(clean.clean()) << clean.text();
}

TEST(ConformHarness, CatchesInjectedSkipQuarantineBug)
{
    const auto seq = sampleSequence(7, 500);
    auto opt = testRunOptions(conform::SutMode::Pipe, "qbug");
    opt.bug = serve::StoreBug::SkipQuarantine;
    const conform::Report rep = conform::runConformance(seq, opt);
    ASSERT_FALSE(rep.clean())
        << "injected skip-quarantine bug went undetected";
}
