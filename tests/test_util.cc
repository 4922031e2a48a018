/**
 * @file
 * Unit tests for the util substrate: logging, RNG, fixed point, table.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/fixed_point.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace {

using namespace ganacc::util;

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config value ", 42), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("invariant broken"), PanicError);
}

TEST(Logging, MessagesCarryFormattedContent)
{
    try {
        fatal("expected ", 3, " got ", 4);
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: expected 3 got 4");
    }
}

TEST(Logging, AssertPassesOnTrue)
{
    EXPECT_NO_THROW(GANACC_ASSERT(1 + 1 == 2, "math"));
}

TEST(Logging, AssertPanicsOnFalse)
{
    EXPECT_THROW(GANACC_ASSERT(false, "should fire"), PanicError);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff |= a.uniform() != b.uniform();
    EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        int v = rng.uniformInt(-3, 5);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, GaussianMomentsRoughlyCorrect)
{
    Rng rng(99);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double v = rng.gaussian(2.0, 3.0);
        sum += v;
        sq += v * v;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.1);
    EXPECT_NEAR(var, 9.0, 0.5);
}

/** Each draw's first values, captured from the default build. A
 *  caller built with FP contraction (-march=x86-64-v3
 *  -ffp-contract=fast) must see the same bits: the uniform range and
 *  the normal's `x * stddev + mean` would each round once as an FMA. */
TEST(Rng, FirstDrawsArePinned)
{
    Rng rng(2);
    const double uniform[] = {0x1.643b7fc3519e8p+0, 0x1.3883712abcbd8p+0,
                              0x1.021b10cf7b10ap+0, 0x1.76050f8af5f3ep+0};
    for (const double want : uniform)
        EXPECT_EQ(rng.uniform(-1.5, 1.7), want);
    const double gaussian[] = {-0x1.4641b93a086afp+0, -0x1.56355460ff2ecp-2,
                               0x1.2c24ca61e9a13p+0, -0x1.09ed1fdae9864p-1};
    for (const double want : gaussian)
        EXPECT_EQ(rng.gaussian(0.5, 3.0), want);
    for (const int want : {195, 61, 999})
        EXPECT_EQ(rng.uniformInt(-7, 1000), want);
    unsigned heads = 0;
    for (int i = 0; i < 16; ++i)
        heads |= unsigned(rng.bernoulli(0.3)) << i;
    EXPECT_EQ(heads, 0x1418u);
}

TEST(Fixed16, RoundTripSmallValues)
{
    for (double v : {0.0, 1.0, -1.0, 0.5, -0.25, 3.125, -7.875}) {
        auto f = AccelFixed::fromDouble(v);
        EXPECT_DOUBLE_EQ(f.toDouble(), v) << "value " << v;
    }
}

TEST(Fixed16, QuantizationErrorBounded)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniform(-100.0, 100.0);
        auto f = AccelFixed::fromDouble(v);
        EXPECT_LE(std::fabs(f.toDouble() - v), AccelFixed::epsilon());
    }
}

TEST(Fixed16, SaturatesInsteadOfWrapping)
{
    auto big = AccelFixed::fromDouble(1e6);
    EXPECT_NEAR(big.toDouble(), 127.996, 0.01);
    auto neg = AccelFixed::fromDouble(-1e6);
    EXPECT_NEAR(neg.toDouble(), -128.0, 0.01);
    // Addition saturates too.
    auto sum = big + big;
    EXPECT_NEAR(sum.toDouble(), 127.996, 0.01);
}

TEST(Fixed16, MultiplicationMatchesDouble)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        double a = rng.uniform(-8.0, 8.0);
        double b = rng.uniform(-8.0, 8.0);
        auto fa = AccelFixed::fromDouble(a);
        auto fb = AccelFixed::fromDouble(b);
        double prod = (fa * fb).toDouble();
        // Error: operand quantization plus one rounding step.
        EXPECT_NEAR(prod, fa.toDouble() * fb.toDouble(),
                    AccelFixed::epsilon());
    }
}

TEST(Fixed16, RawAccessorsConsistent)
{
    auto f = AccelFixed::fromRaw(256);
    EXPECT_DOUBLE_EQ(f.toDouble(), 1.0);
    EXPECT_EQ(f.raw(), 256);
}

TEST(Fixed16, RoundingAtTheSaturationBoundary)
{
    // The largest representable value is (2^15 - 1) / 2^n. A double
    // just below it must round *to* it, and anything at or beyond it
    // must saturate — never wrap or invoke an out-of-range narrowing
    // cast (rounding must happen in a wide integer before clamping).
    const double top = 32767.0 / AccelFixed::scale;
    EXPECT_EQ(AccelFixed::fromDouble(top).raw(), 32767);
    // Just below the bound: rounds up to the bound, stays in range.
    EXPECT_EQ(AccelFixed::fromDouble(top - 0.4 / AccelFixed::scale)
                  .raw(),
              32767);
    // Just past the bound: round-to-nearest lands on 32768;
    // saturation must win.
    EXPECT_EQ(AccelFixed::fromDouble(top + 0.6 / AccelFixed::scale)
                  .raw(),
              32767);
    EXPECT_EQ(AccelFixed::fromDouble(top + 1.0).raw(), 32767);
    const double bottom = -32768.0 / AccelFixed::scale;
    EXPECT_EQ(AccelFixed::fromDouble(bottom).raw(), -32768);
    EXPECT_EQ(AccelFixed::fromDouble(bottom - 1.0).raw(), -32768);
}

TEST(Fixed16, NonFiniteInputsSaturateOrZero)
{
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(AccelFixed::fromDouble(inf).raw(), 32767);
    EXPECT_EQ(AccelFixed::fromDouble(-inf).raw(), -32768);
    EXPECT_EQ(AccelFixed::fromDouble(
                  std::numeric_limits<double>::quiet_NaN())
                  .raw(),
              0);
    // Finite but astronomically large values saturate too.
    EXPECT_EQ(AccelFixed::fromDouble(1e300).raw(), 32767);
    EXPECT_EQ(AccelFixed::fromDouble(-1e300).raw(), -32768);
}

TEST(EscapeJson, PassesCleanStringsThrough)
{
    EXPECT_EQ(escapeJson("G-fwd L0"), "G-fwd L0");
    EXPECT_EQ(escapeJson(""), "");
}

TEST(EscapeJson, EscapesQuotesBackslashesAndControls)
{
    EXPECT_EQ(escapeJson("a\"b"), "a\\\"b");
    EXPECT_EQ(escapeJson("a\\b"), "a\\\\b");
    EXPECT_EQ(escapeJson("a\nb\tc\rd\be\ff"),
              "a\\nb\\tc\\rd\\be\\ff");
    EXPECT_EQ(escapeJson(std::string("a\x01z", 3)), "a\\u0001z");
    EXPECT_EQ(escapeJson(std::string(1, '\x1f')), "\\u001f");
    // UTF-8 passes through untouched.
    EXPECT_EQ(escapeJson("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(4);
        EXPECT_EQ(pool.jobs(), 4);
        for (int i = 0; i < 100; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), 100);
    }
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 2);
}

TEST(ParallelMap, PreservesInputOrder)
{
    std::vector<int> items(257);
    for (std::size_t i = 0; i < items.size(); ++i)
        items[i] = int(i);
    for (int jobs : {1, 3, 8}) {
        auto out = parallelMap(
            items, [](int v) { return v * v; }, jobs);
        ASSERT_EQ(out.size(), items.size());
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], int(i) * int(i));
    }
}

TEST(ParallelMap, PropagatesTheFirstException)
{
    std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_THROW(parallelMap(
                     items,
                     [](int v) -> int {
                         if (v == 5)
                             throw std::runtime_error("boom");
                         return v;
                     },
                     4),
                 std::runtime_error);
}

TEST(ResolveJobs, ExplicitRequestWins)
{
    EXPECT_EQ(resolveJobs(3), 3);
    EXPECT_GE(resolveJobs(0), 1);
    EXPECT_GE(hardwareJobs(), 1);
}

TEST(ResolveJobs, EnvFallbackParsesGanaccJobs)
{
    ::setenv("GANACC_JOBS", "5", 1);
    EXPECT_EQ(resolveJobs(0), 5);
    EXPECT_EQ(resolveJobs(2), 2); // explicit still wins
    ::setenv("GANACC_JOBS", "garbage", 1);
    EXPECT_GE(resolveJobs(0), 1); // malformed env falls through
    ::unsetenv("GANACC_JOBS");
}

TEST(ResolveJobs, RejectsOutOfRangeEnv)
{
    // Values past INT_MAX used to wrap: 2^31 to INT_MIN, which a pool
    // cannot reserve, and 2^32 + 1 to one worker. Only resolveJobs
    // runs here; no pool is built from these values.
    std::ostringstream warned;
    std::ostream &prev = setWarnStream(warned);
    for (const char *bad : {"2147483648", "4294967297", "-3", "4x", ""}) {
        warned.str("");
        ::setenv("GANACC_JOBS", bad, 1);
        EXPECT_EQ(resolveJobs(0), hardwareJobs()) << "'" << bad << "'";
        // An empty value is the variable unset, so it draws no warning.
        EXPECT_EQ(warned.str().find("GANACC_JOBS") != std::string::npos,
                  *bad != '\0')
            << "'" << bad << "'";
    }
    ::setenv("GANACC_JOBS", "2147483647", 1);
    EXPECT_EQ(resolveJobs(0), 2147483647);
    ::unsetenv("GANACC_JOBS");
    setWarnStream(prev);
}

TEST(Table, AlignsColumns)
{
    Table t({"name", "value"});
    t.addRow("x", 1);
    t.addRow("longer", 23.5);
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_NE(s.find("23.5"), std::string::npos);
    // Header separator present.
    EXPECT_NE(s.find("---"), std::string::npos);
}

} // namespace
