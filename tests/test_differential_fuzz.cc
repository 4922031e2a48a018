/**
 * @file
 * Differential fuzzing of the five dataflows: ~200 random ConvSpecs —
 * screened for legality by the static verifier, spanning all three
 * GAN convolution patterns (dense strided, zero-stuffed, dilated
 * kernel) — run through NLR, WST, OST, ZFOST and ZFWST and compared
 * element-wise against the golden convolution. Every run must also
 * obey the PE-slot conservation invariant, report identical counters
 * in timing-only mode, and be bit-reproducible when repeated.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/zfost.hh"
#include "core/zfwst.hh"
#include "fuzz_specs.hh"
#include "sim/arch.hh"
#include "sim/closed_form.hh"
#include "sim/conv_spec.hh"
#include "sim/nlr.hh"
#include "sim/output_stationary.hh"
#include "sim/phase.hh"
#include "sim/wst.hh"
#include "stats_helpers.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"
#include "verify/diagnostics.hh"
#include "verify/legality.hh"

namespace {

using namespace ganacc;
using core::Zfost;
using core::Zfwst;
using sim::Architecture;
using sim::ConvSpec;
using sim::Nlr;
using sim::Ost;
using sim::RunStats;
using sim::Unroll;
using sim::Wst;
using tensor::approxEqual;
using tensor::maxAbsDiff;
using tensor::Tensor;
using tests::randomSpec;
using util::Rng;

std::vector<std::unique_ptr<Architecture>>
fuzzArchs(Rng &rng)
{
    // Random small unrollings: the dataflows must agree with the
    // golden model for *any* legal array shape, not just the defaults.
    std::vector<std::unique_ptr<Architecture>> v;
    v.push_back(std::make_unique<Nlr>(Unroll{
        .pIf = rng.uniformInt(1, 3), .pOf = rng.uniformInt(1, 4)}));
    v.push_back(std::make_unique<Wst>(Unroll{
        .pOf = rng.uniformInt(1, 3), .pKx = rng.uniformInt(2, 4),
        .pKy = rng.uniformInt(2, 4)}));
    v.push_back(std::make_unique<Ost>(Unroll{
        .pOf = rng.uniformInt(1, 3), .pOx = rng.uniformInt(2, 4),
        .pOy = rng.uniformInt(2, 4)}));
    v.push_back(std::make_unique<Zfost>(Unroll{
        .pOf = rng.uniformInt(1, 3), .pOx = rng.uniformInt(2, 4),
        .pOy = rng.uniformInt(2, 4)}));
    v.push_back(std::make_unique<Zfwst>(Unroll{
        .pOf = rng.uniformInt(1, 3), .pKx = rng.uniformInt(2, 4),
        .pKy = rng.uniformInt(2, 4)}));
    return v;
}

/** Ten random jobs per shard; 20 shards = 200 fuzzed specs. */
class DifferentialFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(DifferentialFuzz, AllDataflowsMatchGoldenModel)
{
    Rng rng(0xF0520000ULL + std::uint64_t(GetParam()));
    for (int i = 0; i < 10; ++i) {
        const ConvSpec s = randomSpec(rng);

        // Only legal specs are worth fuzzing; the generator is built
        // to produce them, and the verifier is the arbiter of "legal".
        verify::Report report;
        verify::checkConvSpec(s, report);
        ASSERT_TRUE(report.ok()) << s.describe();

        Tensor in = sim::makeStreamedInput(s, rng);
        Tensor w = sim::makeStreamedKernel(s, rng);
        const Tensor golden = sim::genericConvRef(s, in, w);

        for (const auto &arch : fuzzArchs(rng)) {
            Tensor out = sim::makeOutputTensor(s);
            const RunStats st = arch->run(s, &in, &w, &out);
            EXPECT_TRUE(approxEqual(golden, out, 1e-3f))
                << arch->name() << " diverges from the golden model on "
                << s.describe()
                << " maxdiff=" << maxAbsDiff(golden, out);
            tests::expectSlotConservation(st, arch->name());
            EXPECT_EQ(st.effectiveMacs, s.effectiveMacs())
                << arch->name() << " on " << s.describe();

            // Re-running the same job must be bit-identical, and the
            // timing-only walk must agree on every counter.
            Tensor out2 = sim::makeOutputTensor(s);
            const RunStats st2 = arch->run(s, &in, &w, &out2);
            EXPECT_EQ(0, std::memcmp(out.data(), out2.data(),
                                     out.numel() * sizeof(float)))
                << arch->name() << " is not deterministic on "
                << s.describe();
            tests::expectStatsEqual(st, st2, arch->name());
            tests::expectStatsEqual(st, arch->run(s),
                                    arch->name() + " timing-only");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DifferentialFuzz,
                         ::testing::Range(0, 20));

/**
 * Fast-vs-walk parity: the closed-form engine must be bit-identical
 * to the cycle walk on every RunStats counter. The corpus leans on
 * the cases most likely to diverge — zero-insert-heavy T-CONV
 * (z up to 4, wide kernels) and degenerate unrollings (factor equal
 * to its loop bound, factor 1) — and includes the ablation
 * configurations (NLR-vanilla, ZFOST-raster) the static-bounds
 * checker never covered.
 */

/** Like randomSpec, but biased toward zero-insert-heavy T-CONV, with
 *  one draw in four a job whose axes differ. */
ConvSpec
randomParitySpec(Rng &rng)
{
    const int kind = rng.uniformInt(0, 3);
    if (kind == 3)
        return tests::randomNonSquareSpec(rng);
    if (kind != 0) // 1/2 zero-insert-heavy T-CONV
    {
        ConvSpec s;
        s.label = "fuzz-heavy";
        s.nif = rng.uniformInt(1, 4);
        s.nof = rng.uniformInt(1, 4);
        const int dense = rng.uniformInt(2, 6);
        const int z = rng.uniformInt(3, 4); // heavier than the
                                            // functional corpus
        const int extra = rng.uniformInt(0, z - 1);
        s.inZeroStride = z;
        s.inOrigH = s.inOrigW = dense;
        s.ih = s.iw = (dense - 1) * z + 1 + extra;
        s.kh = s.kw = rng.uniformInt(3, 7);
        s.stride = 1;
        s.pad = rng.uniformInt(0, s.kh - 1);
        if (s.ih + 2 * s.pad < s.kh) // kernel overhangs padded input
            return randomParitySpec(rng);
        s.oh = tensor::convOutDim(s.ih, s.kh, 1, s.pad);
        s.ow = tensor::convOutDim(s.iw, s.kw, 1, s.pad);
        if (s.oh < 1 || s.ow < 1)
            return randomParitySpec(rng);
        return s;
    }
    return randomSpec(rng);
}

/** Architectures with degenerate and ablation configurations: every
 *  factor hits its loop bound or 1 somewhere in the rotation. */
std::vector<std::unique_ptr<Architecture>>
parityArchs(Rng &rng, const ConvSpec &s)
{
    std::vector<std::unique_ptr<Architecture>> v;
    // factor = bound: whole dimension unrolled, tile count 1.
    v.push_back(std::make_unique<Nlr>(
        Unroll{.pIf = s.nif, .pOf = s.nof}));
    v.push_back(std::make_unique<Wst>(
        Unroll{.pOf = 1, .pKx = s.kw, .pKy = s.kh}));
    v.push_back(std::make_unique<Ost>(
        Unroll{.pOf = rng.uniformInt(1, 3), .pOx = s.ow, .pOy = s.oh}));
    v.push_back(std::make_unique<Zfwst>(
        Unroll{.pOf = s.nof, .pKx = s.kw, .pKy = s.kh}));
    // factor = 1: fully serialized arrays.
    v.push_back(std::make_unique<Ost>(
        Unroll{.pOf = 1, .pOx = 1, .pOy = 1}));
    v.push_back(std::make_unique<Zfost>(
        Unroll{.pOf = 1, .pOx = 1, .pOy = 1}));
    v.push_back(std::make_unique<Zfwst>(
        Unroll{.pOf = 1, .pKx = 1, .pKy = 1}));
    // Ablations (no closed form existed before the fast path).
    v.push_back(std::make_unique<Nlr>(
        Unroll{.pIf = rng.uniformInt(1, 3),
               .pOf = rng.uniformInt(1, 4)},
        Nlr::ZeroPolicy::Execute));
    v.push_back(std::make_unique<Zfost>(
        Unroll{.pOf = rng.uniformInt(1, 3),
               .pOx = rng.uniformInt(2, 4),
               .pOy = rng.uniformInt(2, 4)},
        Zfost::WeightOrder::Raster));
    // Plus the random rotation the functional fuzz uses.
    for (auto &arch : fuzzArchs(rng))
        v.push_back(std::move(arch));
    return v;
}

/** Ten random jobs per shard; 20 shards = 200 fuzzed specs. */
class FastPathParity : public ::testing::TestWithParam<int>
{
};

TEST_P(FastPathParity, ClosedFormBitIdenticalToWalk)
{
    Rng rng(0xFA57000ULL + std::uint64_t(GetParam()));
    for (int i = 0; i < 10; ++i) {
        const ConvSpec s = randomParitySpec(rng);
        verify::Report report;
        verify::checkConvSpec(s, report);
        ASSERT_TRUE(report.ok()) << s.describe();

        for (const auto &arch : parityArchs(rng, s)) {
            RunStats walk, fast;
            {
                sim::ScopedSimEngine eng(sim::SimEngine::Walk);
                ASSERT_FALSE(sim::fastPathEnabled());
                walk = arch->run(s);
            }
            {
                sim::ScopedSimEngine eng(sim::SimEngine::Auto);
                ASSERT_TRUE(sim::fastPathEnabled());
                fast = arch->run(s);
            }
            tests::expectSlotConservation(walk, arch->name());
            tests::expectStatsEqual(
                walk, fast,
                arch->name() + " fast vs walk on " + s.describe());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FastPathParity,
                         ::testing::Range(0, 20));

} // namespace
