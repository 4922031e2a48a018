/**
 * @file
 * Parallel sweep-engine tests: the PE-slot conservation invariant of
 * sim/stats.hh as a property over randomized jobs on all four
 * dataflows, and the engine's core promise — sweepFrontierParallel is
 * bit-identical to the serial sweepFrontier on the Table IV networks,
 * at any worker count, with the cycle cache warm or cold.
 */

#include <gtest/gtest.h>

#include "core/cycle_cache.hh"
#include "core/dse.hh"
#include "core/zfost.hh"
#include "core/zfwst.hh"
#include "gan/models.hh"
#include "sim/output_stationary.hh"
#include "sim/rst.hh"
#include "util/random.hh"

namespace {

using namespace ganacc;
using core::DseConstraints;
using core::DsePoint;
using sim::ConvSpec;
using sim::RunStats;
using sim::Unroll;

/** A random valid spec with optional zero structure on both operands. */
ConvSpec
randomSpec(util::Rng &rng)
{
    ConvSpec s;
    s.label = "prop";
    s.nif = rng.uniformInt(1, 3);
    s.nof = rng.uniformInt(1, 4);
    s.kh = s.kw = 2 * rng.uniformInt(0, 2) + 1; // 1, 3 or 5
    const bool in_stuffed = rng.bernoulli(0.4);
    const bool k_stuffed = rng.bernoulli(0.4);
    // The zero-free dataflows stream stuffed operands at stride 1
    // (zfost.cc/zfwst.cc precondition), as the GAN phases do.
    s.stride = (in_stuffed || k_stuffed) ? 1 : rng.uniformInt(1, 2);
    s.pad = rng.uniformInt(0, s.kh / 2);
    s.ih = s.iw = rng.uniformInt(s.kh, 14);
    s.oh = (s.ih - s.kh + 2 * s.pad) / s.stride + 1;
    s.ow = (s.iw - s.kw + 2 * s.pad) / s.stride + 1;
    if (in_stuffed) {
        s.inZeroStride = 2;
        s.inOrigH = (s.ih + 1) / 2;
        s.inOrigW = (s.iw + 1) / 2;
    }
    if (k_stuffed) {
        s.kZeroStride = 2;
        s.kOrigH = (s.kh + 1) / 2;
        s.kOrigW = (s.kw + 1) / 2;
    }
    s.validate();
    return s;
}

TEST(SweepParallel, PeSlotConservationHoldsOnAllDataflows)
{
    // effectiveMacs + ineffectualMacs + idlePeSlots == cycles * nPes:
    // every offered PE slot is exactly one of useful, wasted or idle.
    util::Rng rng(20260805);
    sim::Ost ost(Unroll{.pOf = 2, .pOx = 3, .pOy = 3});
    sim::Rst rst(Unroll{.pOf = 3, .pKy = 3, .pOy = 4});
    core::Zfost zfost(Unroll{.pOf = 2, .pOx = 3, .pOy = 3});
    core::Zfwst zfwst(Unroll{.pOf = 2, .pKx = 3, .pKy = 3});
    const sim::Architecture *archs[] = {&ost, &rst, &zfost, &zfwst};
    for (int i = 0; i < 60; ++i) {
        ConvSpec s = randomSpec(rng);
        for (const sim::Architecture *a : archs) {
            RunStats st = a->run(s);
            EXPECT_EQ(st.effectiveMacs + st.ineffectualMacs +
                          st.idlePeSlots,
                      st.totalSlots())
                << a->name() << " on " << s.describe();
            // Gating is a subset of ineffectual work, and only RST
            // gates.
            EXPECT_LE(st.gatedSlots, st.ineffectualMacs);
            if (a != &rst) {
                EXPECT_EQ(st.gatedSlots, 0u);
            }
        }
    }
}

TEST(SweepParallel, RunIsReentrantAndRepeatable)
{
    // No state may survive a run() on the architecture object: two
    // identical runs must produce identical counters (this is what
    // lets the sweep engine share one arch across threads).
    util::Rng rng(7);
    sim::Rst rst(Unroll{.pOf = 2, .pKy = 3, .pOy = 3});
    for (int i = 0; i < 10; ++i) {
        ConvSpec s = randomSpec(rng);
        RunStats a = rst.run(s);
        RunStats b = rst.run(s);
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.effectiveMacs, b.effectiveMacs);
        EXPECT_EQ(a.ineffectualMacs, b.ineffectualMacs);
        EXPECT_EQ(a.gatedSlots, b.gatedSlots);
        EXPECT_EQ(a.idlePeSlots, b.idlePeSlots);
    }
}

void
expectIdentical(const std::vector<DsePoint> &a,
                const std::vector<DsePoint> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].wPof, b[i].wPof);
        EXPECT_EQ(a[i].stPof, b[i].stPof);
        EXPECT_EQ(a[i].totalPes, b[i].totalPes);
        EXPECT_EQ(a[i].iterationCycles, b[i].iterationCycles);
        // Bit-identical, not approximately equal: the parallel engine
        // runs the same arithmetic in the same order per point.
        EXPECT_EQ(a[i].samplesPerSecond, b[i].samplesPerSecond);
        EXPECT_EQ(a[i].resources.luts, b[i].resources.luts);
        EXPECT_EQ(a[i].resources.flipFlops, b[i].resources.flipFlops);
        EXPECT_EQ(a[i].resources.bram36, b[i].resources.bram36);
        EXPECT_EQ(a[i].resources.dsp, b[i].resources.dsp);
        EXPECT_EQ(a[i].fitsDevice, b[i].fitsDevice);
        EXPECT_EQ(a[i].bandwidthFeasible, b[i].bandwidthFeasible);
    }
}

TEST(SweepParallel, BitIdenticalToSerialSweepOnAllNetworks)
{
    DseConstraints cons;
    cons.budget = core::vcu9pBudget();
    cons.maxWPof = 12; // enough points to exercise the pool
    for (const gan::GanModel &m : gan::allModels()) {
        auto serial = core::sweepFrontier(cons, m);
        for (int jobs : {1, 2, 4}) {
            auto parallel = core::sweepFrontierParallel(cons, m, jobs);
            expectIdentical(serial, parallel);
        }
    }
}

TEST(SweepParallel, ColdCacheMatchesWarmCache)
{
    DseConstraints cons;
    cons.budget = core::vcu9pBudget();
    cons.maxWPof = 6;
    gan::GanModel m = gan::makeMnistGan();
    auto warm = core::sweepFrontierParallel(cons, m, 2);
    core::CycleCache::instance().clear();
    auto cold = core::sweepFrontierParallel(cons, m, 2);
    expectIdentical(warm, cold);
    EXPECT_GT(core::CycleCache::instance().size(), 0u);
}

TEST(SweepParallel, CacheDistinguishesShapesNotLabels)
{
    auto &cache = core::CycleCache::instance();
    cache.clear();
    util::Rng rng(3);
    ConvSpec s = randomSpec(rng);
    Unroll u{.pOf = 2, .pOx = 2, .pOy = 2};
    RunStats first = cache.stats(core::ArchKind::ZFOST, u, s);
    ConvSpec renamed = s;
    renamed.label = "same shape, different name";
    RunStats second = cache.stats(core::ArchKind::ZFOST, u, renamed);
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_GE(cache.hits(), 1u);
    // A genuinely different shape misses.
    ConvSpec wider = s;
    wider.nof += 1;
    cache.stats(core::ArchKind::ZFOST, u, wider);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(SweepParallel, CacheStatsSnapshotTracksHitMissAccounting)
{
    auto &cache = core::CycleCache::instance();
    cache.clear();
    const core::CacheStats before = cache.cacheStats();
    EXPECT_EQ(before.entries, 0u);

    util::Rng rng(11);
    ConvSpec s = randomSpec(rng);
    Unroll u{.pOf = 2, .pOx = 2, .pOy = 2};
    cache.stats(core::ArchKind::ZFOST, u, s); // miss -> simulate
    cache.stats(core::ArchKind::ZFOST, u, s); // memory hit

    const core::CacheStats after = cache.cacheStats();
    EXPECT_EQ(after.entries, 1u);
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.misses, before.misses + 1);
    // No disk tier attached: every miss ran a cycle walk.
    EXPECT_EQ(after.diskHits, before.diskHits);
    EXPECT_EQ(after.simulated(), after.misses - after.diskHits);
}

} // namespace
