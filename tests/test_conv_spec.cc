/**
 * @file
 * Tests for the streamed convolution-job description, including
 * brute-force cross-checks of the closed-form occupancy counters that
 * the cycle-level models rely on, and a bitwise differential test of
 * the zero-skipping golden model against the dense loop.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "fuzz_specs.hh"
#include "gan/models.hh"
#include "sim/conv_spec.hh"
#include "sim/phase.hh"
#include "sim/stats.hh"
#include "tensor/tensor.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace {

using namespace ganacc;
using sim::ConvSpec;
using sim::countNonzeroCoords;
using tensor::Shape4;
using tensor::Tensor;
using util::Rng;

/** A stuffed T-CONV-style spec (stride-2 insertion, 4x4 dense core). */
ConvSpec
stuffedSpec()
{
    ConvSpec s;
    s.label = "stuffed";
    s.nif = 2;
    s.nof = 3;
    s.inZeroStride = 2;
    s.inOrigH = s.inOrigW = 4;
    s.ih = s.iw = 8; // (4-1)*2+1 = 7, +1 trailing (output padding)
    s.kh = s.kw = 5;
    s.stride = 1;
    s.pad = 2;
    s.oh = s.ow = 8;
    return s;
}

/** A dilated-kernel W-CONV-style spec. */
ConvSpec
dilatedKernelSpec()
{
    ConvSpec s;
    s.label = "dilated";
    s.nif = 2;
    s.nof = 2;
    s.ih = s.iw = 8;
    s.kZeroStride = 2;
    s.kOrigH = s.kOrigW = 4;
    s.kh = s.kw = 7; // (4-1)*2+1
    s.stride = 1;
    s.pad = 1;
    s.oh = s.ow = 3;
    s.fourDimOutput = true;
    return s;
}

TEST(ConvSpec, InputZeroPatternMatchesStuffing)
{
    ConvSpec s = stuffedSpec();
    // Non-zero exactly at even coordinates whose dense index < 4.
    EXPECT_FALSE(s.inputIsZero(0, 0));
    EXPECT_TRUE(s.inputIsZero(1, 0));
    EXPECT_TRUE(s.inputIsZero(0, 3));
    EXPECT_FALSE(s.inputIsZero(6, 6));
    // Trailing (output-padding) row: coordinate 8 would be dense index
    // 4 which is beyond the original extent... row 7 is odd -> zero.
    EXPECT_TRUE(s.inputIsZero(7, 0));
}

TEST(ConvSpec, TrailingRowsBeyondOrigAreZero)
{
    ConvSpec s = stuffedSpec();
    s.ih = s.iw = 9;
    s.inOrigH = s.inOrigW = 4;
    // Coordinate 8 = dense index 4 >= orig 4 -> structural zero.
    EXPECT_TRUE(s.inputIsZero(8, 0));
}

TEST(ConvSpec, KernelZeroPatternMatchesDilation)
{
    ConvSpec s = dilatedKernelSpec();
    EXPECT_FALSE(s.kernelIsZero(0, 0));
    EXPECT_TRUE(s.kernelIsZero(1, 0));
    EXPECT_TRUE(s.kernelIsZero(0, 5));
    EXPECT_FALSE(s.kernelIsZero(6, 6));
}

TEST(ConvSpec, DenseSpecHasNoStructuralZeros)
{
    ConvSpec s;
    s.nif = s.nof = 1;
    s.ih = s.iw = 6;
    s.kh = s.kw = 3;
    s.oh = s.ow = 4;
    for (int y = 0; y < 6; ++y)
        for (int x = 0; x < 6; ++x)
            EXPECT_FALSE(s.inputIsZero(y, x));
}

TEST(ConvSpec, MakeStreamedTensorsHonourZeroStructure)
{
    Rng rng(3);
    ConvSpec s = stuffedSpec();
    Tensor in = sim::makeStreamedInput(s, rng);
    EXPECT_EQ(in.shape(), Shape4(1, 2, 8, 8));
    for (int c = 0; c < 2; ++c)
        for (int y = 0; y < 8; ++y)
            for (int x = 0; x < 8; ++x)
                if (s.inputIsZero(y, x)) {
                    EXPECT_FLOAT_EQ(in.get(0, c, y, x), 0.0f);
                }

    ConvSpec d = dilatedKernelSpec();
    Tensor w = sim::makeStreamedKernel(d, rng);
    EXPECT_EQ(w.shape(), Shape4(2, 1, 7, 7)); // fourDim: one if plane
    for (int of = 0; of < 2; ++of)
        for (int ky = 0; ky < 7; ++ky)
            for (int kx = 0; kx < 7; ++kx)
                if (d.kernelIsZero(ky, kx)) {
                    EXPECT_FLOAT_EQ(w.get(of, 0, ky, kx), 0.0f);
                }
}

TEST(ConvSpec, CountNonzeroCoordsBruteForce)
{
    // Property check against explicit enumeration over random
    // parameter draws.
    Rng rng(11);
    for (int trial = 0; trial < 2000; ++trial) {
        int t0 = rng.uniformInt(0, 5);
        int len = rng.uniformInt(0, 8);
        int stride = rng.uniformInt(1, 4);
        int k = rng.uniformInt(-3, 6);
        int pad = rng.uniformInt(0, 3);
        int extent = rng.uniformInt(1, 16);
        int zs = rng.uniformInt(1, 3);
        int orig = rng.bernoulli(0.5) ? -1 : rng.uniformInt(1, 8);

        int expected = 0;
        for (int t = t0; t < t0 + len; ++t) {
            int c = t * stride + k - pad;
            if (c < 0 || c >= extent)
                continue;
            bool zero = false;
            if (zs > 1) {
                if (c % zs != 0)
                    zero = true;
                else if (orig >= 0 && c / zs >= orig)
                    zero = true;
            }
            if (!zero)
                ++expected;
        }
        EXPECT_EQ(countNonzeroCoords(t0, len, stride, k, pad, extent, zs,
                                     orig),
                  expected)
            << "t0=" << t0 << " len=" << len << " s=" << stride
            << " k=" << k << " p=" << pad << " e=" << extent
            << " zs=" << zs << " orig=" << orig;
    }
}

TEST(ConvSpec, EffectiveMacsBruteForce)
{
    // effectiveMacs() must equal counting every (output, kernel)
    // pair whose operands are structurally non-zero and in bounds.
    auto brute = [](const ConvSpec &s) {
        std::uint64_t n = 0;
        for (int oy = 0; oy < s.oh; ++oy)
            for (int ox = 0; ox < s.ow; ++ox)
                for (int ky = 0; ky < s.kh; ++ky)
                    for (int kx = 0; kx < s.kw; ++kx) {
                        if (s.kernelIsZero(ky, kx))
                            continue;
                        int iy = oy * s.stride + ky - s.pad;
                        int ix = ox * s.stride + kx - s.pad;
                        if (iy < 0 || iy >= s.ih || ix < 0 || ix >= s.iw)
                            continue;
                        if (s.inputIsZero(iy, ix))
                            continue;
                        ++n;
                    }
        return n * std::uint64_t(s.nof) * s.nif;
    };

    for (const ConvSpec &s : {stuffedSpec(), dilatedKernelSpec()})
        EXPECT_EQ(s.effectiveMacs(), brute(s)) << s.describe();

    // And a dense strided one.
    ConvSpec d;
    d.nif = 3;
    d.nof = 4;
    d.ih = d.iw = 9;
    d.kh = d.kw = 3;
    d.stride = 2;
    d.pad = 1;
    d.oh = d.ow = 5;
    EXPECT_EQ(d.effectiveMacs(), brute(d));
}

TEST(ConvSpec, GenericConvRefMatchesHandExample)
{
    // Stuffed 2x2 identity-ish check: stride-1 conv over a stuffed map
    // must only see the dense values.
    ConvSpec s;
    s.nif = 1;
    s.nof = 1;
    s.inZeroStride = 2;
    s.inOrigH = s.inOrigW = 2;
    s.ih = s.iw = 3;
    s.kh = s.kw = 2;
    s.stride = 1;
    s.pad = 0;
    s.oh = s.ow = 2;
    Tensor in(1, 1, 3, 3, 0.0f);
    in.at(0, 0, 0, 0) = 1;
    in.at(0, 0, 0, 2) = 2;
    in.at(0, 0, 2, 0) = 3;
    in.at(0, 0, 2, 2) = 4;
    Tensor w(1, 1, 2, 2, 1.0f);
    Tensor out = sim::genericConvRef(s, in, w);
    // Each 2x2 window over the stuffed map contains exactly one dense
    // value.
    EXPECT_FLOAT_EQ(out.get(0, 0, 0, 0), 1.0f);
    EXPECT_FLOAT_EQ(out.get(0, 0, 0, 1), 2.0f);
    EXPECT_FLOAT_EQ(out.get(0, 0, 1, 0), 3.0f);
    EXPECT_FLOAT_EQ(out.get(0, 0, 1, 1), 4.0f);
}

/**
 * The dense loop over every slot, padding included: the oracle the
 * zero-skipping genericConvRef must match bit for bit.
 */
Tensor
denseConvOracle(const ConvSpec &spec, const Tensor &in, const Tensor &w)
{
    Tensor out = sim::makeOutputTensor(spec);
    for (int of = 0; of < spec.nof; ++of) {
        for (int c = 0; c < spec.nif; ++c) {
            int wc = spec.fourDimOutput ? 0 : c;
            for (int oy = 0; oy < spec.oh; ++oy)
                for (int ox = 0; ox < spec.ow; ++ox) {
                    double acc = 0.0;
                    for (int ky = 0; ky < spec.kh; ++ky)
                        for (int kx = 0; kx < spec.kw; ++kx) {
                            int iy = oy * spec.stride + ky - spec.pad;
                            int ix = ox * spec.stride + kx - spec.pad;
                            acc += double(in.getPadded(0, c, iy, ix)) *
                                   w.get(of, wc, ky, kx);
                        }
                    if (spec.fourDimOutput)
                        out.ref(of, c, oy, ox) = float(acc);
                    else
                        out.ref(0, of, oy, ox) += float(acc);
                }
        }
    }
    return out;
}

/** Flat offsets of the input slots that are (or are not) structural
 *  zeros. */
std::vector<std::size_t>
inputSlots(const ConvSpec &s, const Tensor &in, bool structural)
{
    std::vector<std::size_t> v;
    for (int c = 0; c < s.nif; ++c)
        for (int y = 0; y < s.ih; ++y)
            for (int x = 0; x < s.iw; ++x)
                if (s.inputIsZero(y, x) == structural)
                    v.push_back(in.shape().offset(0, c, y, x));
    return v;
}

/** Flat offsets of the kernel slots that are (or are not) structural
 *  zeros. */
std::vector<std::size_t>
kernelSlots(const ConvSpec &s, const Tensor &w, bool structural)
{
    std::vector<std::size_t> v;
    for (int of = 0; of < w.shape().d0; ++of)
        for (int c = 0; c < w.shape().d1; ++c)
            for (int ky = 0; ky < s.kh; ++ky)
                for (int kx = 0; kx < s.kw; ++kx)
                    if (s.kernelIsZero(ky, kx) == structural)
                        v.push_back(w.shape().offset(of, c, ky, kx));
    return v;
}

/** A copy of `t` with `v` written at a uniformly drawn one of
 *  `slots`. */
Tensor
withValueAt(const Tensor &t, const std::vector<std::size_t> &slots,
            float v, Rng &rng)
{
    Tensor out = t;
    out.data()[slots[std::size_t(
        rng.uniformInt(0, int(slots.size()) - 1))]] = v;
    return out;
}

/**
 * genericConvRef against the dense oracle, compared as bit patterns:
 * on clean operands, with -0.0 in every structural slot (still exact
 * to skip), and with each perturbation that makes skipping inexact —
 * a NaN or an infinity in an effectual slot, or a nonzero in a
 * structural one — which must send the call down the dense fallback.
 * Also ties the tap lists to effectiveMacs().
 */
void
expectMatchesDenseOracle(const ConvSpec &s, Rng &rng)
{
    const sim::EffectualTaps taps = sim::effectualTaps(s);
    std::uint64_t rows = 0, cols = 0;
    for (const auto &r : taps.rows)
        rows += r.size();
    for (const auto &c : taps.cols)
        cols += c.size();
    EXPECT_EQ(std::uint64_t(s.nof) * std::uint64_t(s.nif) * rows * cols,
              s.effectiveMacs())
        << s.describe();

    const Tensor in = sim::makeStreamedInput(s, rng);
    const Tensor w = sim::makeStreamedKernel(s, rng);
    auto check = [&](const Tensor &i, const Tensor &k,
                     const std::string &what) {
        const Tensor got = sim::genericConvRef(s, i, k);
        const Tensor want = denseConvOracle(s, i, k);
        ASSERT_EQ(got.shape(), want.shape()) << s.describe();
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                 got.numel() * sizeof(float)))
            << what << " on " << s.describe();
    };
    check(in, w, "clean operands");

    const auto in_zero = inputSlots(s, in, true);
    const auto w_zero = kernelSlots(s, w, true);
    Tensor in_neg = in, w_neg = w;
    for (std::size_t i : in_zero)
        in_neg.data()[i] = -0.0f;
    for (std::size_t i : w_zero)
        w_neg.data()[i] = -0.0f;
    check(in_neg, w_neg, "-0.0 in structural slots");

    const auto in_eff = inputSlots(s, in, false);
    const auto w_eff = kernelSlots(s, w, false);
    const float inf = std::numeric_limits<float>::infinity();
    for (float v : {std::numeric_limits<float>::quiet_NaN(), inf, -inf}) {
        const std::string name = std::to_string(v);
        check(withValueAt(in, in_eff, v, rng), w,
              name + " in an effectual input slot");
        check(in, withValueAt(w, w_eff, v, rng),
              name + " in an effectual weight slot");
    }
    if (!in_zero.empty())
        check(withValueAt(in, in_zero, 0.75f, rng), w,
              "nonzero in a structural input slot");
    if (!w_zero.empty())
        check(in, withValueAt(w, w_zero, 0.75f, rng),
              "nonzero in a structural kernel slot");
}

TEST(ConvSpec, GenericConvRefBitIdenticalToDenseOnFuzzCorpus)
{
    Rng rng(0xC0417EFULL);
    for (int i = 0; i < 200; ++i)
        expectMatchesDenseOracle(tests::randomSpec(rng), rng);
}

/**
 * The fuzz corpus with wide output-map runs: nof in [5, 48], odd
 * counts included, so a run fills whole groups of sixteen maps and
 * ends in a partial group of up to sixteen, eight or two lanes whose
 * unused lanes are never stored. The draw covers 4-D, stuffed and
 * padded specs, and input maps that accumulate across c. One more
 * spec has 32x32 output planes, 4 KB apart, so sixteen of them share
 * an L1 set: the staged stores must still land in the right plane.
 */
TEST(ConvSpec, GenericConvRefBitIdenticalOnWideOutputMaps)
{
    Rng rng(0x0F5EEDULL);
    int four_dim = 0, stuffed = 0, padded = 0, odd = 0, tail = 0,
        multi_c = 0, full_then_partial = 0, partial_le8 = 0,
        partial_le2 = 0, exact_group = 0;
    auto count = [&](const ConvSpec &s) {
        const int last = s.nof % 16;
        four_dim += s.fourDimOutput;
        stuffed += s.inZeroStride == 2;
        padded += s.pad > 0;
        odd += s.nof % 2;
        tail += s.nof > 8 && s.nof % 8 != 0;
        multi_c += !s.fourDimOutput && s.nif > 1;
        full_then_partial += s.nof > 16 && last != 0;
        partial_le8 += last != 0 && last <= 8;
        partial_le2 += last != 0 && last <= 2;
        exact_group += s.nof == 16 || s.nof == 8;
    };
    for (int i = 0; i < 60; ++i) {
        ConvSpec s = tests::randomSpec(rng);
        s.nof = rng.uniformInt(5, 48);
        count(s);
        expectMatchesDenseOracle(s, rng);
    }

    ConvSpec wide;
    wide.label = "wide-planes";
    wide.nif = 2;
    wide.nof = 21;
    wide.ih = wide.iw = 32;
    wide.kh = wide.kw = 3;
    wide.stride = 1;
    wide.pad = 1;
    wide.oh = wide.ow = 32;
    count(wide);
    expectMatchesDenseOracle(wide, rng);

    EXPECT_GT(four_dim, 0);
    EXPECT_GT(stuffed, 0);
    EXPECT_GT(padded, 0);
    EXPECT_GT(odd, 0);
    EXPECT_GT(tail, 0);
    EXPECT_GT(multi_c, 0);
    EXPECT_GT(full_then_partial, 0);
    EXPECT_GT(partial_le8, 0);
    EXPECT_GT(partial_le2, 0);
    EXPECT_GT(exact_group, 0);
}

/** The 16 MNIST-GAN jobs of the four Table V families. */
std::vector<ConvSpec>
mnistGanJobs()
{
    std::vector<ConvSpec> jobs;
    for (sim::PhaseFamily f : {sim::PhaseFamily::D, sim::PhaseFamily::G,
                               sim::PhaseFamily::Dw, sim::PhaseFamily::Gw})
        for (const ConvSpec &s : sim::familyJobs(gan::makeMnistGan(), f))
            jobs.push_back(s);
    return jobs;
}

/** One MNIST-GAN job per test, so the largest ones run side by side. */
class GenericConvRefJob : public ::testing::TestWithParam<int>
{
};

TEST_P(GenericConvRefJob, BitIdenticalToDense)
{
    Rng rng(0xF4A1ULL + std::uint64_t(GetParam()));
    expectMatchesDenseOracle(mnistGanJobs().at(std::size_t(GetParam())),
                             rng);
}

INSTANTIATE_TEST_SUITE_P(MnistGan, GenericConvRefJob,
                         ::testing::Range(0, int(mnistGanJobs().size())));

TEST(ConvSpec, ValidateRejectsMalformedSpecs)
{
    ConvSpec s;
    s.nif = 0;
    EXPECT_THROW(s.validate(), util::PanicError);
    ConvSpec t;
    t.ih = t.iw = 4;
    t.oh = 50; // far beyond the input
    t.stride = 2;
    EXPECT_THROW(t.validate(), util::PanicError);
}

TEST(ConvSpec, DenseMacsFormula)
{
    ConvSpec s = stuffedSpec();
    EXPECT_EQ(s.denseMacs(),
              std::uint64_t(3) * 2 * 8 * 8 * 5 * 5);
}

TEST(ConvSpec, DescribeNamesTheZeroStructure)
{
    ConvSpec s = stuffedSpec();
    std::string d = s.describe();
    EXPECT_NE(d.find("(z2)"), std::string::npos);
    ConvSpec k = dilatedKernelSpec();
    std::string dk = k.describe();
    EXPECT_NE(dk.find("4D"), std::string::npos);
    EXPECT_NE(dk.find("k 7x7 (z2)"), std::string::npos);
}

TEST(ConvSpec, StatsStringContainsCounters)
{
    sim::RunStats st;
    st.cycles = 10;
    st.nPes = 4;
    st.effectiveMacs = 30;
    st.ineffectualMacs = 5;
    st.idlePeSlots = 5;
    std::string s = st.str();
    EXPECT_NE(s.find("cycles=10"), std::string::npos);
    EXPECT_NE(s.find("eff=30"), std::string::npos);
    EXPECT_NEAR(st.utilization(), 0.75, 1e-9);
}

} // namespace
