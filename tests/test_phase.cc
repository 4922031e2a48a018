/**
 * @file
 * Tests for the phase-to-job mapping: geometry consistency for all
 * three evaluation networks, the paper's ineffectual-multiplication
 * census (Section III-C3), and functional correctness of the streamed
 * jobs against the layer-level reference math.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gan/models.hh"
#include "nn/conv_ref.hh"
#include "nn/zero_insert.hh"
#include "sim/phase.hh"
#include "tensor/tensor.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace {

using namespace ganacc;
using gan::GanModel;
using sim::ConvSpec;
using sim::Phase;
using sim::PhaseFamily;
using tensor::approxEqual;
using tensor::Tensor;
using util::Rng;

TEST(Phase, NamesAndFamilies)
{
    EXPECT_EQ(sim::phaseName(Phase::DiscForward), "D-fwd");
    EXPECT_EQ(sim::phaseName(Phase::GenWeight), "Gw");
    EXPECT_EQ(sim::familyOf(Phase::DiscForward), PhaseFamily::D);
    EXPECT_EQ(sim::familyOf(Phase::GenBackward), PhaseFamily::D);
    EXPECT_EQ(sim::familyOf(Phase::GenForward), PhaseFamily::G);
    EXPECT_EQ(sim::familyOf(Phase::DiscBackward), PhaseFamily::G);
    EXPECT_EQ(sim::familyOf(Phase::DiscWeight), PhaseFamily::Dw);
    EXPECT_EQ(sim::familyOf(Phase::GenWeight), PhaseFamily::Gw);
    EXPECT_EQ(sim::allPhases().size(), 6u);
}

TEST(Phase, FamilyNamesRoundTrip)
{
    const std::vector<PhaseFamily> families = sim::allPhaseFamilies();
    ASSERT_EQ(families.size(), 4u);
    for (PhaseFamily f : families)
        EXPECT_EQ(sim::phaseFamilyFromName(sim::phaseFamilyName(f)), f);
    for (const char *bad : {"x", "d", "DW", "D "}) {
        try {
            sim::phaseFamilyFromName(bad);
            ADD_FAILURE() << "accepted " << bad;
        } catch (const util::FatalError &e) {
            EXPECT_EQ(std::string(e.what()),
                      std::string("fatal: unknown phase family \"") + bad +
                          "\" (D, G, Dw, Gw)");
        }
    }
}

TEST(Phase, JobCountsPerPhase)
{
    GanModel m = gan::makeDcgan();
    const std::size_t layers = m.disc.size();
    EXPECT_EQ(sim::phaseJobs(m, Phase::DiscForward).size(), layers);
    EXPECT_EQ(sim::phaseJobs(m, Phase::GenForward).size(), layers);
    // Backward error skips the first layer.
    EXPECT_EQ(sim::phaseJobs(m, Phase::DiscBackward).size(), layers - 1);
    EXPECT_EQ(sim::phaseJobs(m, Phase::GenBackward).size(), layers - 1);
    EXPECT_EQ(sim::phaseJobs(m, Phase::DiscWeight).size(), layers);
    EXPECT_EQ(sim::phaseJobs(m, Phase::GenWeight).size(), layers);
}

TEST(Phase, AllJobsOfAllModelsValidate)
{
    for (const GanModel &m : gan::allModels())
        for (Phase p : sim::allPhases())
            for (const ConvSpec &j : sim::phaseJobs(m, p))
                EXPECT_NO_THROW(j.validate()) << j.describe();
}

TEST(Phase, ForwardJobsMatchLayerMacCounts)
{
    // D-fwd jobs are dense: effective == dense == the layer's MACs.
    GanModel m = gan::makeCgan();
    auto jobs = sim::phaseJobs(m, Phase::DiscForward);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].inZeroStride, 1);
        EXPECT_EQ(jobs[i].kZeroStride, 1);
        // Dense MACs of the job equal the layer's arithmetic (padding
        // slots included in denseMacs, so compare effective <= dense).
        EXPECT_EQ(jobs[i].denseMacs(), m.disc[i].macs());
    }
}

TEST(Phase, GenForwardJobsAreStuffed)
{
    GanModel m = gan::makeDcgan();
    auto jobs = sim::phaseJobs(m, Phase::GenForward);
    // Every strided generator layer streams a zero-inserted input.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto &l = m.gen[i];
        if (l.geom.stride > 1) {
            EXPECT_EQ(jobs[i].inZeroStride, l.geom.stride);
            EXPECT_GT(jobs[i].ih, l.inH);
        }
        EXPECT_EQ(jobs[i].stride, 1);
        EXPECT_EQ(jobs[i].oh, l.outH());
    }
}

TEST(Phase, WeightJobsAreFourDimensional)
{
    GanModel m = gan::makeMnistGan();
    for (Phase p : {Phase::DiscWeight, Phase::GenWeight})
        for (const ConvSpec &j : sim::phaseJobs(m, p)) {
            EXPECT_TRUE(j.fourDimOutput) << j.describe();
            // Output patch is the layer kernel extent.
            EXPECT_LE(j.oh, 7);
        }
}

TEST(Phase, DiscWeightKernelIsDilatedError)
{
    GanModel m = gan::makeDcgan();
    auto jobs = sim::phaseJobs(m, Phase::DiscWeight);
    // First layer: error 32x32 dilated by 2 -> 63x63 streamed kernel.
    EXPECT_EQ(jobs[0].kh, 63);
    EXPECT_EQ(jobs[0].kZeroStride, 2);
    EXPECT_EQ(jobs[0].kOrigH, 32);
    EXPECT_EQ(jobs[0].oh, 5);
    EXPECT_EQ(jobs[0].nof, 64);
    EXPECT_EQ(jobs[0].nif, 3);
}

TEST(Phase, IneffectualCensusMatchesPaperClaims)
{
    // Section III-C3: "These ineffectual operations account for about
    // 64% and 75% of total multiplications in G/Gw and Dw
    // respectively." Measured across the evaluation networks the
    // zero-inserted phases must waste roughly this range.
    for (const GanModel &m : gan::allModels()) {
        for (PhaseFamily f :
             {PhaseFamily::G, PhaseFamily::Gw, PhaseFamily::Dw}) {
            auto jobs = sim::familyJobs(m, f);
            double dense = double(sim::totalDenseMacs(jobs));
            double eff = double(sim::totalEffectiveMacs(jobs));
            double wasted = 1.0 - eff / dense;
            EXPECT_GT(wasted, 0.55)
                << m.name << " " << sim::phaseFamilyName(f);
            // ~64%/75% from stuffing alone; padding pushes the
            // smallest network (MNIST-GAN, 7x7 maps) slightly higher.
            EXPECT_LT(wasted, 0.90)
                << m.name << " " << sim::phaseFamilyName(f);
        }
        // Dense phases waste only padding slots.
        auto d_jobs = sim::familyJobs(m, PhaseFamily::D);
        double wasted_d =
            1.0 - double(sim::totalEffectiveMacs(d_jobs)) /
                      double(sim::totalDenseMacs(d_jobs));
        EXPECT_LT(wasted_d, 0.25) << m.name;
    }
}

TEST(Phase, GenForwardJobComputesTheLayerForward)
{
    // Functional cross-check: streaming the stuffed input through the
    // generic reference with the layer's (flipped, axis-swapped)
    // kernel reproduces nn::tconvForward.
    GanModel m = gan::makeMnistGan();
    const auto &l = m.gen[1]; // a strided T-CONV layer
    auto jobs = sim::phaseJobs(m, Phase::GenForward);
    const ConvSpec &job = jobs[1];

    Rng rng(5);
    Tensor dense_in(1, l.inChannels, l.inH, l.inW);
    dense_in.fillUniform(rng);
    Tensor w(l.inChannels, l.outChannels, l.geom.kernel, l.geom.kernel);
    w.fillUniform(rng);

    nn::Conv2dGeom g = l.geom;
    Tensor expected = nn::tconvForward(dense_in, w, g);

    // Build the streamed operands the accelerator sees.
    Tensor stuffed = nn::zeroInsertSpatial(dense_in, g.stride, g.outPad);
    ASSERT_EQ(stuffed.shape().d2, job.ih);
    Tensor streamed_w =
        nn::flipKernelSpatial(nn::swapLeadingAxes(w));
    Tensor got = sim::genericConvRef(job, stuffed, streamed_w);
    EXPECT_TRUE(approxEqual(Tensor(expected), got, 1e-4f));
}

TEST(Phase, DiscWeightJobComputesTheWeightGradient)
{
    // The Dw job must reproduce sconvBackwardWeights for one sample.
    GanModel m = gan::makeMnistGan();
    const auto &l = m.disc[1];
    auto jobs = sim::phaseJobs(m, Phase::DiscWeight);
    const ConvSpec &job = jobs[1];

    Rng rng(6);
    Tensor d_in(1, l.inChannels, l.inH, l.inW);
    d_in.fillUniform(rng);
    Tensor derr(1, l.outChannels, l.outH(), l.outW());
    derr.fillUniform(rng);

    Tensor expected = nn::sconvBackwardWeights(
        d_in, derr, l.geom, l.geom.kernel, l.geom.kernel);

    // Streamed kernel = dilated error, one plane per output map.
    Tensor dil = nn::zeroInsertSpatial(derr, l.geom.stride);
    Tensor streamed_w(tensor::Shape4(l.outChannels, 1, job.kh, job.kw),
                      0.0f);
    for (int of = 0; of < l.outChannels; ++of)
        for (int y = 0; y < job.kh; ++y)
            for (int x = 0; x < job.kw; ++x)
                streamed_w.ref(of, 0, y, x) = dil.get(0, of, y, x);

    Tensor got = sim::genericConvRef(job, d_in, streamed_w);
    // got is (nof, nif, k, k); expected is (OF, IF, k, k).
    EXPECT_TRUE(approxEqual(expected, got, 1e-3f));
}

TEST(Phase, TotalsAreMonotone)
{
    GanModel m = gan::makeDcgan();
    auto jobs = sim::phaseJobs(m, Phase::GenForward);
    EXPECT_GT(sim::totalDenseMacs(jobs), sim::totalEffectiveMacs(jobs));
    EXPECT_GT(sim::totalEffectiveMacs(jobs), 0u);
}

} // namespace
