/**
 * @file
 * The in-repo MT19937-64 and its float draws against the standard
 * library sequence they reproduce, and the block-drawn streamed
 * operands against their per-element definition. Every golden that
 * draws operands pins these bits.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "fault/fault_plan.hh"
#include "fuzz_specs.hh"
#include "gan/models.hh"
#include "sim/conv_spec.hh"
#include "sim/phase.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"

namespace {

using namespace ganacc;
using sim::ConvSpec;
using tensor::Shape4;
using tensor::Tensor;
using util::Rng;

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

TEST(Rng, EngineMatchesStdMt19937_64)
{
    const std::uint64_t seeds[] = {0,
                                   1,
                                   5489,
                                   0x5eed,
                                   kMax,
                                   fault::mix64(1),
                                   fault::mix64(0x5eed)};
    for (const std::uint64_t seed : seeds) {
        util::Mt19937_64 ours(seed);
        std::mt19937_64 want(seed);
        for (int i = 0; i < 4 * 312 + 7; ++i)
            ASSERT_EQ(ours(), want()) << "seed " << seed << " draw " << i;
    }
    static_assert(util::Mt19937_64::min() == std::mt19937_64::min());
    static_assert(util::Mt19937_64::max() == std::mt19937_64::max());
}

/** A URBG that returns one fixed word. */
struct FixedWord
{
    using result_type = std::uint64_t;
    std::uint64_t u;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return kMax; }
    result_type operator()() { return u; }
};

TEST(Rng, CanonicalMatchesLibstdcxx)
{
    const std::uint64_t top = std::uint64_t(1) << 63;
    const std::uint64_t words[] = {
        0,
        1,
        (1u << 24) - 1,
        (1u << 24) + 1,
        top - 1,
        top,
        top + 1,
        // Halving leaves an exact tie that the sticky bit breaks up.
        top + (std::uint64_t(1) << 39) + 1,
        0 - (std::uint64_t(1) << 39) - 1,
        // Rounds to 2^64, so it clamps.
        0 - (std::uint64_t(1) << 39),
        kMax};
    for (const std::uint64_t u : words) {
        FixedWord g{u};
        const float want = std::generate_canonical<float, 24>(g);
        EXPECT_EQ(std::bit_cast<std::uint32_t>(util::canonicalFloat(u)),
                  std::bit_cast<std::uint32_t>(want))
            << "u " << u;
    }
    EXPECT_EQ(util::canonicalFloat(0 - (std::uint64_t(1) << 39)),
              0x1.fffffep-1f);
    EXPECT_EQ(util::canonicalFloat(top + (std::uint64_t(1) << 39) + 1),
              0.5f + 0x1p-24f);
}

TEST(Rng, FillMatchesSingleDraws)
{
    const std::pair<float, float> ranges[] = {
        {-1.0f, 1.0f}, {0.0f, 1.0f}, {0.1f, 1.0f}, {-3.0f, 3.0f},
        {-2.5f, 0.75f}};
    const std::size_t sizes[] = {1, 7, 311, 312, 313, 1000, 0, 4096, 5};
    for (const std::uint64_t seed : {std::uint64_t(1), std::uint64_t(0x5eed)}) {
        Rng filled(seed), single(seed);
        // The standard engine and distributions Rng reproduces.
        std::mt19937_64 std_engine(seed);
        std::vector<float> got;
        for (int k = 0; k < 40; ++k) {
            const std::size_t n = sizes[std::size_t(k) % std::size(sizes)];
            const auto [lo, hi] = ranges[std::size_t(k) % std::size(ranges)];
            got.assign(n, 0.0f);
            filled.fillUniformf(got.data(), n, lo, hi);
            for (std::size_t i = 0; i < n; ++i) {
                const float one = single.uniformf(lo, hi);
                const float want =
                    std::uniform_real_distribution<float>(lo, hi)(std_engine);
                ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                          std::bit_cast<std::uint32_t>(one))
                    << "seed " << seed << " fill " << k << " draw " << i;
                ASSERT_EQ(std::bit_cast<std::uint32_t>(one),
                          std::bit_cast<std::uint32_t>(want))
                    << "seed " << seed << " fill " << k << " draw " << i;
            }
            const double g = std::normal_distribution<double>()(std_engine);
            EXPECT_EQ(filled.gaussian(), g);
            EXPECT_EQ(single.gaussian(), g);
            const int j = std::uniform_int_distribution<int>(-4, 99)(std_engine);
            EXPECT_EQ(filled.uniformInt(-4, 99), j);
            EXPECT_EQ(single.uniformInt(-4, 99), j);
        }
    }
}

/** The streamed input as one std::uniform_real_distribution<float> draw
 *  per slot that is not a structural zero, in row-major order. */
Tensor
oracleInput(const ConvSpec &spec, std::mt19937_64 &g)
{
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    Tensor in(Shape4(1, spec.nif, spec.ih, spec.iw), 0.0f);
    for (int c = 0; c < spec.nif; ++c)
        for (int y = 0; y < spec.ih; ++y)
            for (int x = 0; x < spec.iw; ++x)
                if (!spec.inputIsZero(y, x))
                    in.ref(0, c, y, x) = u(g);
    return in;
}

/** The streamed kernel, likewise. */
Tensor
oracleKernel(const ConvSpec &spec, std::mt19937_64 &g)
{
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    const int kif = spec.fourDimOutput ? 1 : spec.nif;
    Tensor w(Shape4(spec.nof, kif, spec.kh, spec.kw), 0.0f);
    for (int of = 0; of < spec.nof; ++of)
        for (int c = 0; c < kif; ++c)
            for (int ky = 0; ky < spec.kh; ++ky)
                for (int kx = 0; kx < spec.kw; ++kx)
                    if (!spec.kernelIsZero(ky, kx))
                        w.ref(of, c, ky, kx) = u(g);
    return w;
}

void
expectSameBits(const Tensor &got, const Tensor &want, const ConvSpec &s,
               const char *what)
{
    ASSERT_EQ(got.shape(), want.shape()) << what << " " << s.describe();
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.numel() * sizeof(float)),
              0)
        << what << " " << s.describe();
}

/** Input then kernel from one stream, as every campaign draws them. */
void
expectOperandsMatch(const ConvSpec &s, std::uint64_t seed)
{
    Rng rng(seed);
    std::mt19937_64 g(seed);
    const Tensor in = sim::makeStreamedInput(s, rng);
    const Tensor w = sim::makeStreamedKernel(s, rng);
    expectSameBits(in, oracleInput(s, g), s, "input");
    expectSameBits(w, oracleKernel(s, g), s, "kernel");
    // Both consumed the same number of draws.
    EXPECT_EQ(rng.engine()(), g()) << s.describe();
}

TEST(StreamedOperands, MatchPerElementOracle)
{
    Rng corpus(0x3AC715175ULL);
    for (int i = 0; i < 60; ++i)
        expectOperandsMatch(tests::randomSpec(corpus),
                            fault::mix64(std::uint64_t(i)));
    int jobs = 0;
    for (const gan::GanModel &model :
         {gan::makeMnistGan(), gan::makeCgan(), gan::makeDcgan()})
        for (const sim::PhaseFamily family :
             {sim::PhaseFamily::D, sim::PhaseFamily::G,
              sim::PhaseFamily::Dw, sim::PhaseFamily::Gw})
            for (const ConvSpec &s : sim::familyJobs(model, family)) {
                expectOperandsMatch(s, std::uint64_t(++jobs));
                if (testing::Test::HasFailure())
                    return;
            }
    EXPECT_GT(jobs, 16);
}

} // namespace
