/**
 * @file
 * Microarchitecture validation: every architecture (NLR, WST, OST,
 * ZFOST, ZFWST) must compute exactly what the golden model computes on
 * every job family, while its counters obey the dataflow's published
 * properties — eq. (5) for WST, zero freedom for ZFOST/ZFWST, the
 * idle-adder-tree penalty of NLR on W-CONV.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/zfost.hh"
#include "core/zfwst.hh"
#include "sim/arch.hh"
#include "sim/cnv.hh"
#include "sim/conv_spec.hh"
#include "sim/nlr.hh"
#include "sim/output_stationary.hh"
#include "sim/phase.hh"
#include "sim/rst.hh"
#include "sim/wst.hh"
#include "tensor/tensor.hh"
#include "stats_helpers.hh"
#include "util/random.hh"

namespace {

using namespace ganacc;
using core::Zfost;
using core::Zfwst;
using sim::Architecture;
using sim::Cnv;
using sim::ConvSpec;
using sim::Nlr;
using sim::Ost;
using sim::Rst;
using sim::RunStats;
using sim::Unroll;
using sim::Wst;
using tensor::approxEqual;
using tensor::maxAbsDiff;
using tensor::Tensor;
using util::Rng;

/** All five architectures with small arrays for functional tests. */
std::vector<std::unique_ptr<Architecture>>
smallArchs()
{
    std::vector<std::unique_ptr<Architecture>> v;
    v.push_back(std::make_unique<Nlr>(Unroll{.pIf = 2, .pOf = 3}));
    v.push_back(std::make_unique<Wst>(Unroll{.pOf = 2, .pKx = 3,
                                             .pKy = 3}));
    v.push_back(std::make_unique<Ost>(Unroll{.pOf = 2, .pOx = 3,
                                             .pOy = 3}));
    v.push_back(std::make_unique<Zfost>(Unroll{.pOf = 2, .pOx = 3,
                                               .pOy = 3}));
    v.push_back(std::make_unique<Zfwst>(Unroll{.pOf = 2, .pKx = 3,
                                               .pKy = 3}));
    return v;
}

/** Representative job specs covering every GAN convolution pattern. */
std::vector<ConvSpec>
representativeSpecs()
{
    std::vector<ConvSpec> specs;

    // Dense strided S-CONV (D-fwd).
    ConvSpec s;
    s.label = "sconv";
    s.nif = 3;
    s.nof = 4;
    s.ih = s.iw = 12;
    s.kh = s.kw = 5;
    s.stride = 2;
    s.pad = 2;
    s.oh = s.ow = 6;
    specs.push_back(s);

    // Dense stride-1 conv (the critic head).
    ConvSpec h;
    h.label = "head";
    h.nif = 4;
    h.nof = 1;
    h.ih = h.iw = 4;
    h.kh = h.kw = 4;
    h.stride = 1;
    h.pad = 0;
    h.oh = h.ow = 1;
    specs.push_back(h);

    // Stuffed T-CONV (G-fwd) with trailing output-padding zeros.
    ConvSpec t;
    t.label = "tconv";
    t.nif = 2;
    t.nof = 3;
    t.inZeroStride = 2;
    t.inOrigH = t.inOrigW = 5;
    t.ih = t.iw = 10; // (5-1)*2+1 = 9, +1 extra
    t.kh = t.kw = 5;
    t.stride = 1;
    t.pad = 2;
    t.oh = t.ow = 10;
    specs.push_back(t);

    // W-CONV, discriminator form: dilated-error kernel, 4-D output.
    ConvSpec dw;
    dw.label = "wconv-D";
    dw.nif = 2;
    dw.nof = 3;
    dw.ih = dw.iw = 12;
    dw.kZeroStride = 2;
    dw.kOrigH = dw.kOrigW = 6;
    dw.kh = dw.kw = 11;
    dw.stride = 1;
    dw.pad = 2;
    dw.oh = dw.ow = 5;
    dw.fourDimOutput = true;
    specs.push_back(dw);

    // W-CONV, generator form: stuffed input, dense error kernel.
    ConvSpec gw;
    gw.label = "wconv-G";
    gw.nif = 2;
    gw.nof = 2;
    gw.inZeroStride = 2;
    gw.inOrigH = gw.inOrigW = 5;
    gw.ih = gw.iw = 10;
    gw.kh = gw.kw = 10;
    gw.stride = 1;
    gw.pad = 2;
    gw.oh = gw.ow = 5;
    gw.fourDimOutput = true;
    specs.push_back(gw);

    return specs;
}

// ---------------------------------------------------------------------
// Functional equivalence with the golden model
// ---------------------------------------------------------------------

TEST(ArchFunctional, AllArchsMatchGoldenOnAllPatterns)
{
    Rng rng(1234);
    for (const ConvSpec &spec : representativeSpecs()) {
        Tensor in = sim::makeStreamedInput(spec, rng);
        Tensor w = sim::makeStreamedKernel(spec, rng);
        Tensor golden = sim::genericConvRef(spec, in, w);
        for (const auto &arch : smallArchs()) {
            Tensor out = sim::makeOutputTensor(spec);
            arch->run(spec, &in, &w, &out);
            EXPECT_TRUE(approxEqual(golden, out, 1e-3f))
                << arch->name() << " on " << spec.describe()
                << " maxdiff=" << maxAbsDiff(golden, out);
        }
    }
}

/** Randomized property sweep: random small jobs, all archs. */
class ArchRandomSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(ArchRandomSweep, FunctionalAndConservation)
{
    Rng rng(1000 + GetParam());
    // Draw a random job, biased over the three pattern kinds.
    ConvSpec s;
    s.label = "random";
    s.nif = rng.uniformInt(1, 3);
    s.nof = rng.uniformInt(1, 4);
    int kind = rng.uniformInt(0, 2);
    if (kind == 0) { // dense strided
        s.ih = s.iw = rng.uniformInt(6, 14);
        s.kh = s.kw = rng.uniformInt(2, 5);
        s.stride = rng.uniformInt(1, 2);
        s.pad = rng.uniformInt(0, s.kh / 2);
        s.oh = tensor::convOutDim(s.ih, s.kh, s.stride, s.pad);
        s.ow = tensor::convOutDim(s.iw, s.kw, s.stride, s.pad);
    } else if (kind == 1) { // stuffed
        int dense = rng.uniformInt(3, 6);
        int z = 2;
        int extra = rng.uniformInt(0, 1);
        s.inZeroStride = z;
        s.inOrigH = s.inOrigW = dense;
        s.ih = s.iw = (dense - 1) * z + 1 + extra;
        s.kh = s.kw = rng.uniformInt(3, 5);
        s.stride = 1;
        s.pad = rng.uniformInt(0, s.kh - 1);
        s.oh = tensor::convOutDim(s.ih, s.kh, 1, s.pad);
        s.ow = tensor::convOutDim(s.iw, s.kw, 1, s.pad);
    } else { // dilated-kernel four-dim
        s.ih = s.iw = rng.uniformInt(8, 14);
        int err = rng.uniformInt(2, 5);
        s.kZeroStride = 2;
        s.kOrigH = s.kOrigW = err;
        s.kh = s.kw = (err - 1) * 2 + 1;
        s.stride = 1;
        s.pad = rng.uniformInt(0, 2);
        s.fourDimOutput = true;
        int natural = s.ih + 2 * s.pad - s.kh + 1;
        GANACC_ASSERT(natural >= 1, "bad random spec");
        s.oh = s.ow = std::min(natural, rng.uniformInt(2, 5));
    }

    Tensor in = sim::makeStreamedInput(s, rng);
    Tensor w = sim::makeStreamedKernel(s, rng);
    Tensor golden = sim::genericConvRef(s, in, w);
    for (const auto &arch : smallArchs()) {
        Tensor out = sim::makeOutputTensor(s);
        // run() itself asserts PE-slot conservation and the
        // effective-MAC upper bound.
        RunStats st = arch->run(s, &in, &w, &out);
        EXPECT_TRUE(approxEqual(golden, out, 1e-3f))
            << arch->name() << " on " << s.describe();
        EXPECT_GT(st.cycles, 0u);
        tests::expectSlotConservation(st, arch->name());
        // Timing-only mode must report identical counters.
        RunStats st2 = arch->run(s);
        tests::expectStatsEqual(st, st2, arch->name());
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ArchRandomSweep, ::testing::Range(0, 25));

// ---------------------------------------------------------------------
// Dataflow properties from the paper
// ---------------------------------------------------------------------

TEST(ArchProperties, WstUtilizationObeysEq5)
{
    // Eq. (5): Util = (Noy*Nox) / (Niy*Nix) for a fully-resident
    // kernel and a pad-free strided convolution.
    ConvSpec s;
    s.label = "eq5";
    s.nif = 2;
    s.nof = 4;
    s.ih = s.iw = 12;
    s.kh = s.kw = 4;
    s.stride = 2;
    s.pad = 0;
    s.oh = s.ow = 5;
    Wst wst(Unroll{.pOf = 2, .pKx = 4, .pKy = 4});
    RunStats st = wst.run(s);
    double expected = double(s.oh * s.ow) / double(s.ih * s.iw);
    EXPECT_NEAR(st.utilization(), expected, 1e-9);
}

TEST(ArchProperties, ZeroFreeArchsDoNoIneffectualWorkWithoutPadding)
{
    // On pad-free jobs with no trailing stuffing rows, ZFOST and
    // ZFWST must schedule exactly the effective MACs: zero ineffectual
    // slots, and cycles*activePEs bounded by effective + idle.
    ConvSpec t;
    t.label = "tconv-nopad";
    t.nif = 2;
    t.nof = 3;
    t.inZeroStride = 2;
    t.inOrigH = t.inOrigW = 6;
    t.ih = t.iw = 11;
    t.kh = t.kw = 3;
    t.stride = 1;
    t.pad = 0;
    t.oh = t.ow = 9;

    Zfost zfost(Unroll{.pOf = 3, .pOx = 3, .pOy = 3});
    RunStats a = zfost.run(t);
    EXPECT_EQ(a.ineffectualMacs, 0u) << a.str();
    EXPECT_EQ(a.effectiveMacs, t.effectiveMacs());

    Zfwst zfwst(Unroll{.pOf = 3, .pKx = 2, .pKy = 2});
    RunStats b = zfwst.run(t);
    EXPECT_EQ(b.ineffectualMacs, 0u) << b.str();
    EXPECT_EQ(b.effectiveMacs, t.effectiveMacs());
}

TEST(ArchProperties, OstCannotSkipInsertedZeros)
{
    // Fig. 7(c): OST burns ~3/4 of its MAC slots on a stuffed input.
    // Sized so the 3x3 output tiles divide each parity class exactly,
    // isolating the zero-skip factor from tile-rounding noise.
    ConvSpec t;
    t.label = "tconv";
    t.nif = 2;
    t.nof = 4;
    t.inZeroStride = 2;
    t.inOrigH = t.inOrigW = 9;
    t.ih = t.iw = 18;
    t.kh = t.kw = 5;
    t.stride = 1;
    t.pad = 2;
    t.oh = t.ow = 18;

    Ost ost(Unroll{.pOf = 4, .pOx = 3, .pOy = 3});
    Zfost zfost(Unroll{.pOf = 4, .pOx = 3, .pOy = 3});
    RunStats o = ost.run(t);
    RunStats z = zfost.run(t);
    // Same array, same job: the zero-free schedule needs ~4x fewer
    // cycles.
    double speedup = double(o.cycles) / double(z.cycles);
    EXPECT_GT(speedup, 3.0);
    EXPECT_LT(speedup, 5.0);
    // And OST wasted slots outnumber its useful ones.
    EXPECT_GT(o.ineffectualMacs, o.effectiveMacs);
}

TEST(ArchProperties, NlrAdderTreeIdlesOnFourDimOutput)
{
    // Section III-C1: NLR keeps only P_of of its P_if*P_of multipliers
    // busy on W-CONV.
    ConvSpec dw;
    dw.label = "wconv";
    dw.nif = 4;
    dw.nof = 4;
    dw.ih = dw.iw = 10;
    dw.kZeroStride = 2;
    dw.kOrigH = dw.kOrigW = 4;
    dw.kh = dw.kw = 7;
    dw.stride = 1;
    dw.pad = 0;
    dw.oh = dw.ow = 4;
    dw.fourDimOutput = true;

    Nlr nlr(Unroll{.pIf = 4, .pOf = 2});
    RunStats st = nlr.run(dw);
    // Utilization capped at 1/P_if.
    EXPECT_LE(st.utilization(), 1.0 / 4 + 1e-9);
    EXPECT_GT(st.idlePeSlots, 0u);
}

TEST(ArchProperties, ZfostReusesInputsWhereOstReloads)
{
    // Fig. 12(a): on S-CONV the reordered weight feed restores
    // register-array shifting, so ZFOST reads far fewer inputs from
    // the buffer than OST at identical cycle counts.
    ConvSpec s;
    s.label = "sconv";
    s.nif = 3;
    s.nof = 4;
    s.ih = s.iw = 16;
    s.kh = s.kw = 5;
    s.stride = 2;
    s.pad = 2;
    s.oh = s.ow = 8;

    Ost ost(Unroll{.pOf = 4, .pOx = 4, .pOy = 4});
    Zfost zfost(Unroll{.pOf = 4, .pOx = 4, .pOy = 4});
    RunStats o = ost.run(s);
    RunStats z = zfost.run(s);
    EXPECT_EQ(o.cycles, z.cycles); // no zeros to skip on S-CONV
    EXPECT_LT(z.inputLoads * 2, o.inputLoads);
}

TEST(ArchProperties, ZfwstBeatsWstOnDilatedKernels)
{
    // Dw: WST wastes resident PEs on inserted kernel zeros; ZFWST
    // allocates only the dense error values.
    ConvSpec dw;
    dw.label = "wconv-D";
    dw.nif = 2;
    dw.nof = 4;
    dw.ih = dw.iw = 14;
    dw.kZeroStride = 2;
    dw.kOrigH = dw.kOrigW = 6;
    dw.kh = dw.kw = 11;
    dw.stride = 1;
    dw.pad = 2;
    dw.oh = dw.ow = 5;
    dw.fourDimOutput = true;

    Wst wst(Unroll{.pOf = 2, .pKx = 4, .pKy = 4});
    Zfwst zfwst(Unroll{.pOf = 2, .pKx = 4, .pKy = 4});
    RunStats w = wst.run(dw);
    RunStats z = zfwst.run(dw);
    EXPECT_GT(w.cycles, 2 * z.cycles);
    EXPECT_GT(z.utilization(), 2 * w.utilization());
}

TEST(ArchProperties, EffectiveMacsIdenticalAcrossArchitectures)
{
    // Every architecture must perform the same useful arithmetic —
    // they only differ in how many slots they waste getting there.
    for (const ConvSpec &spec : representativeSpecs()) {
        std::uint64_t expected = spec.effectiveMacs();
        for (const auto &arch : smallArchs()) {
            RunStats st = arch->run(spec);
            EXPECT_EQ(st.effectiveMacs, expected)
                << arch->name() << " on " << spec.describe();
        }
    }
}

TEST(ArchProperties, MoreChannelsNeverSlowerPerJob)
{
    // Widening P_of must not increase cycles (work-conservation).
    ConvSpec s = representativeSpecs()[0];
    Zfost narrow(Unroll{.pOf = 1, .pOx = 3, .pOy = 3});
    Zfost wide(Unroll{.pOf = 4, .pOx = 3, .pOy = 3});
    EXPECT_GE(narrow.run(s).cycles, wide.run(s).cycles);
}

TEST(ArchBasics, RunRejectsMixedNullOperands)
{
    ConvSpec s = representativeSpecs()[0];
    Zfost z(Unroll{.pOf = 1, .pOx = 2, .pOy = 2});
    Rng rng(3);
    Tensor in = sim::makeStreamedInput(s, rng);
    EXPECT_THROW(z.run(s, &in, nullptr, nullptr), util::PanicError);
}

TEST(ArchBasics, PeCountIsTheTableIIProduct)
{
    // The PE count is read off the Fig. 4 descriptor, or passed by the
    // CNV and RST baselines; Table II states it per dataflow as the
    // product of the factors the array unrolls.
    for (int x : {1, 2, 3})
        for (int y : {1, 4})
            for (int of : {1, 5}) {
                // Distinct factors, so a factor read in the wrong place
                // or one the dataflow ignores changes the count.
                const Unroll u{.pIf = x + 2, .pOf = of, .pKx = x,
                               .pKy = y, .pOx = y + 1, .pOy = x + 1};
                const int nlr = u.pIf * of, kernel = u.pKx * u.pKy * of,
                          outputs = u.pOx * u.pOy * of;
                EXPECT_EQ(Nlr(u).numPes(), nlr) << u.str();
                EXPECT_EQ(Nlr(u, Nlr::ZeroPolicy::Execute).numPes(), nlr)
                    << u.str();
                EXPECT_EQ(Wst(u).numPes(), kernel) << u.str();
                EXPECT_EQ(Zfwst(u).numPes(), kernel) << u.str();
                EXPECT_EQ(Ost(u).numPes(), outputs) << u.str();
                EXPECT_EQ(Zfost(u).numPes(), outputs) << u.str();
                EXPECT_EQ(Zfost(u, Zfost::WeightOrder::Raster).numPes(),
                          outputs)
                    << u.str();
                EXPECT_EQ(Cnv(u).numPes(), nlr) << u.str();
                EXPECT_EQ(Rst(u).numPes(), u.pKy * u.pOy * of) << u.str();
            }
}

TEST(ArchBasics, OnlyTheBaselinesWithAWalkOfTheirOwnHaveNoDescriptor)
{
    const Unroll u{.pIf = 2, .pOf = 3, .pKx = 2, .pKy = 2, .pOx = 2,
                   .pOy = 2};
    std::vector<std::unique_ptr<Architecture>> descriptor;
    descriptor.push_back(std::make_unique<Nlr>(u));
    descriptor.push_back(
        std::make_unique<Nlr>(u, Nlr::ZeroPolicy::Execute));
    descriptor.push_back(std::make_unique<Wst>(u));
    descriptor.push_back(std::make_unique<Ost>(u));
    descriptor.push_back(std::make_unique<Zfost>(u));
    descriptor.push_back(
        std::make_unique<Zfost>(u, Zfost::WeightOrder::Raster));
    descriptor.push_back(std::make_unique<Zfwst>(u));
    for (const auto &arch : descriptor) {
        ASSERT_NE(arch->dataflow(), nullptr) << arch->name();
        EXPECT_EQ(arch->dataflow()->pes(), arch->numPes()) << arch->name();
    }
    EXPECT_EQ(Cnv(u).dataflow(), nullptr);
    EXPECT_EQ(Rst(u).dataflow(), nullptr);
}

} // namespace
