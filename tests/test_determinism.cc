/**
 * @file
 * Bit-level determinism guarantees:
 *
 *  - a gan::Trainer seeded identically produces bit-identical losses
 *    and weights across in-process repetitions, and is immune to the
 *    GANACC_JOBS environment variable (worker count must never leak
 *    into results);
 *  - the fault-injection campaign — the one subsystem that fans out
 *    over the thread pool — returns byte-identical cells for 1 worker
 *    and 8 workers, because all of its randomness is keyed on
 *    (seed, job, site), never on scheduling order;
 *  - a small campaign with every fault class armed reproduces a
 *    captured per-cell golden bit for bit, so a faster injector or
 *    campaign driver cannot silently change what it reports.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "fault/campaign.hh"
#include "fault/fault_plan.hh"
#include "gan/models.hh"
#include "gan/trainer.hh"
#include "nn/optimizer.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"

namespace {

using namespace ganacc;

/** A deliberately small GAN so whole-training runs cost milliseconds. */
gan::GanModel
tinyModel()
{
    gan::LayerSpec l0;
    l0.kind = nn::ConvKind::Strided;
    l0.act = nn::Activation::LeakyReLU;
    l0.inChannels = 1;
    l0.outChannels = 4;
    l0.inH = l0.inW = 8;
    l0.geom = nn::Conv2dGeom{4, 2, 1, 0};

    gan::LayerSpec head;
    head.kind = nn::ConvKind::Strided;
    head.act = nn::Activation::None;
    head.inChannels = 4;
    head.outChannels = 1;
    head.inH = head.inW = 4;
    head.geom = nn::Conv2dGeom{4, 1, 0, 0};

    return gan::makeModel("tiny", {l0, head}, 8);
}

/** Everything one training run determines, flattened for comparison. */
struct TrainingTrace
{
    std::vector<double> losses;  ///< disc, gen per iteration
    std::vector<float> weights;  ///< all parameters, stable order
};

TrainingTrace
runTraining(std::uint64_t seed, int iterations)
{
    const gan::GanModel model = tinyModel();
    gan::Trainer trainer(model, seed, gan::SyncMode::Deferred);
    nn::Sgd d_opt(0.01f), g_opt(0.01f);
    util::Rng rng(seed * 31 + 7);

    TrainingTrace trace;
    const tensor::Shape4 img = model.imageShape();
    for (int it = 0; it < iterations; ++it) {
        tensor::Tensor real(img.d0, img.d1, img.d2, img.d3);
        real.fillUniform(rng, -1.0f, 1.0f);
        const gan::IterationLosses losses =
            trainer.trainIteration(real, d_opt, g_opt, rng);
        trace.losses.push_back(losses.discLoss);
        trace.losses.push_back(losses.genLoss);
    }
    trainer.forEachParameterTensor([&](tensor::Tensor &t) {
        trace.weights.insert(trace.weights.end(), t.data(),
                             t.data() + t.numel());
    });
    return trace;
}

void
expectTracesBitIdentical(const TrainingTrace &a, const TrainingTrace &b,
                         const std::string &context)
{
    ASSERT_EQ(a.losses.size(), b.losses.size()) << context;
    ASSERT_EQ(a.weights.size(), b.weights.size()) << context;
    EXPECT_EQ(0, std::memcmp(a.losses.data(), b.losses.data(),
                             a.losses.size() * sizeof(double)))
        << context << ": loss trajectories diverge";
    EXPECT_EQ(0, std::memcmp(a.weights.data(), b.weights.data(),
                             a.weights.size() * sizeof(float)))
        << context << ": final weights diverge";
}

/** RAII override of GANACC_JOBS, restoring the previous value. */
class JobsEnv
{
  public:
    explicit JobsEnv(const char *value)
    {
        const char *old = std::getenv("GANACC_JOBS");
        hadOld_ = old != nullptr;
        if (hadOld_)
            old_ = old;
        setenv("GANACC_JOBS", value, 1);
    }

    ~JobsEnv()
    {
        if (hadOld_)
            setenv("GANACC_JOBS", old_.c_str(), 1);
        else
            unsetenv("GANACC_JOBS");
    }

  private:
    bool hadOld_ = false;
    std::string old_;
};

TEST(Determinism, TrainerBitIdenticalAcrossReps)
{
    const TrainingTrace first = runTraining(0xAB12, 4);
    const TrainingTrace second = runTraining(0xAB12, 4);
    expectTracesBitIdentical(first, second, "same-seed reps");

    // And a different seed must actually change something, or the
    // comparison above proves nothing.
    const TrainingTrace other = runTraining(0xAB13, 4);
    EXPECT_NE(0, std::memcmp(first.weights.data(), other.weights.data(),
                             first.weights.size() * sizeof(float)));
}

TEST(Determinism, TrainerImmuneToJobsEnv)
{
    TrainingTrace narrow, wide;
    {
        JobsEnv env("1");
        narrow = runTraining(0xCD34, 4);
    }
    {
        JobsEnv env("8");
        wide = runTraining(0xCD34, 4);
    }
    expectTracesBitIdentical(narrow, wide,
                             "GANACC_JOBS=1 vs GANACC_JOBS=8");
}

void
expectCampaignsBitIdentical(const fault::CampaignResult &a,
                            const fault::CampaignResult &b)
{
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        const fault::CellResult &x = a.cells[i];
        const fault::CellResult &y = b.cells[i];
        EXPECT_EQ(x.arch, y.arch);
        EXPECT_EQ(x.row, y.row);
        EXPECT_EQ(x.mac.armed, y.mac.armed) << x.row << " " << x.arch;
        EXPECT_EQ(x.mac.fired, y.mac.fired) << x.row << " " << x.arch;
        EXPECT_EQ(x.mac.macsObserved, y.mac.macsObserved);
        EXPECT_EQ(x.mac.peHits, y.mac.peHits);
        EXPECT_EQ(x.memFlips, y.memFlips) << x.row << " " << x.arch;
        // Bit-identical, not approximately equal: the campaign
        // promises byte-reproducibility under any worker count.
        EXPECT_EQ(x.outputRmse, y.outputRmse) << x.row << " " << x.arch;
        EXPECT_EQ(x.memRmse, y.memRmse) << x.row << " " << x.arch;
    }
}

TEST(Determinism, FaultCampaignIdenticalUnderAnyWorkerCount)
{
    const gan::GanModel model = tinyModel();
    fault::FaultPlan plan;
    plan.seed = 99;
    plan.transient.sitesPerJob = 64;
    plan.memory.flipProbPerAccess = 1e-4;

    fault::CampaignOptions serial;
    serial.jobs = 1;
    fault::CampaignOptions parallel = serial;
    parallel.jobs = 8;

    const fault::CampaignResult a =
        fault::runResilienceCampaign(model, plan, serial);
    const fault::CampaignResult b =
        fault::runResilienceCampaign(model, plan, parallel);
    expectCampaignsBitIdentical(a, b);

    // The matrix must actually have injected something, or the parity
    // holds vacuously.
    std::uint64_t armed = 0;
    for (const auto &cell : a.cells)
        armed += cell.mac.armed;
    EXPECT_GT(armed, 0u);
}

/** One campaign cell as captured from a reference run. */
struct GoldenCell
{
    const char *row;
    const char *arch;
    std::uint64_t armed, fired, macsObserved, peHits, memFlips;
    std::uint64_t outputRmseBits, memRmseBits; ///< IEEE-754 images
};

// The tiny campaign of FaultCampaignMatchesGolden, captured cell by
// cell. The arming draw (std::uniform_int_distribution) and the
// memory-flip seeds (std::hash) come from the standard library, so
// these values hold for libstdc++ builds.
constexpr GoldenCell kGoldenCampaign[] = {
    {"D/ST", "NLR", 144, 144, 2112, 512, 9,
     0x403f4bf1d0cde924ULL, 0x4026be3e38b84b88ULL},
    {"D/ST", "NLR-skip", 144, 144, 2112, 512, 9,
     0x403f4bf1d0cde924ULL, 0x402ec0fe8a33adfcULL},
    {"D/ST", "WST", 144, 116, 1632, 18, 5,
     0x40413c42732827f2ULL, 0x40268a2e8411c555ULL},
    {"D/ST", "OST", 144, 144, 2112, 32, 2,
     0x404214def7b7b8d9ULL, 0x3fff4048adf3a66eULL},
    {"D/ST", "ZFOST", 144, 144, 2112, 32, 1,
     0x404214def7b7b8d9ULL, 0x3fd68831214e1d2aULL},
    {"D/ST", "ZFWST", 144, 144, 2112, 32, 0,
     0x40428734465bc132ULL, 0x0000000000000000ULL},
    {"G/ST", "NLR", 144, 144, 13312, 512, 29,
     0x4044e21116e23b56ULL, 0x406344213cb21ca7ULL},
    {"G/ST", "NLR-skip", 144, 125, 11392, 512, 16,
     0x4043445ca6f13380ULL, 0x4063010945a827eeULL},
    {"G/ST", "WST", 144, 34, 3280, 9, 9,
     0x40362641a97c4191ULL, 0x4017f15b7e1447c6ULL},
    {"G/ST", "OST", 144, 144, 13312, 144, 4,
     0x4045e0910271488dULL, 0x40038b021355d100ULL},
    {"G/ST", "ZFOST", 144, 108, 10240, 144, 1,
     0x404269ffb755764aULL, 0x3f3db3202d8b76aaULL},
    {"G/ST", "ZFWST", 144, 108, 10240, 288, 4,
     0x4041fa4571911c02ULL, 0x4002a3e51ab0d4f0ULL},
    {"Dw/W", "NLR", 96, 96, 3200, 784, 11,
     0x403ee74d4377cfe6ULL, 0x402214f7f1195280ULL},
    {"Dw/W", "NLR-skip", 96, 66, 1088, 256, 6,
     0x403958e35baab98bULL, 0x4026ac02257fe2c4ULL},
    {"Dw/W", "WST", 96, 90, 2768, 49, 10,
     0x404274ec12aeed76ULL, 0x402bc044e13d07b1ULL},
    {"Dw/W", "OST", 96, 96, 3200, 49, 1,
     0x404373e4482ae24eULL, 0x3fd6a21672d7b636ULL},
    {"Dw/W", "ZFOST", 96, 66, 1088, 16, 0,
     0x40393c15a98c7514ULL, 0x0000000000000000ULL},
    {"Dw/W", "ZFWST", 96, 66, 1088, 16, 0,
     0x403ba0bccc23d0cbULL, 0x0000000000000000ULL},
    {"Gw/W", "NLR", 96, 96, 12288, 2048, 46,
     0x4035cfb6f321e132ULL, 0x40625aec04e1a95fULL},
    {"Gw/W", "NLR-skip", 96, 70, 10368, 2048, 33,
     0x4030115df85a6bf5ULL, 0x40453407fb0eaba0ULL},
    {"Gw/W", "WST", 96, 35, 3216, 8, 6,
     0x402b745e1b4eaaa2ULL, 0x40103c15f100e3caULL},
    {"Gw/W", "OST", 96, 96, 12288, 128, 4,
     0x40359d507de73e20ULL, 0x4027f461ed5a397aULL},
    {"Gw/W", "ZFOST", 96, 58, 9216, 512, 3,
     0x402b3feea8519251ULL, 0x400ec02fc21f3f49ULL},
    {"Gw/W", "ZFWST", 96, 58, 9216, 128, 1,
     0x402b0277960d49c3ULL, 0x3f754ed440000000ULL},
};

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

TEST(Determinism, FaultCampaignMatchesGolden)
{
    // Transient sites, one stuck lane and memory flips, so every
    // branch of the per-MAC hook and of the cell's flip path runs.
    fault::FaultPlan plan;
    plan.seed = 0x60d;
    plan.transient.sitesPerJob = 48;
    plan.transient.bits = 2;
    fault::PeFault pe;
    pe.lane = 1;
    pe.kind = fault::PeFault::Kind::StuckAtValue;
    pe.value = 0.5f;
    plan.peFaults.push_back(pe);
    plan.memory.flipProbPerAccess = 1e-3;

    fault::CampaignOptions opt;
    opt.jobs = 4;
    const fault::CampaignResult res =
        fault::runResilienceCampaign(tinyModel(), plan, opt);

    ASSERT_EQ(res.cells.size(), std::size(kGoldenCampaign));
    for (std::size_t i = 0; i < res.cells.size(); ++i) {
        const fault::CellResult &got = res.cells[i];
        const GoldenCell &want = kGoldenCampaign[i];
        const std::string at = got.row + " " + got.arch;
        EXPECT_EQ(got.row, want.row) << i;
        EXPECT_EQ(got.arch, want.arch) << i;
        EXPECT_EQ(got.mac.armed, want.armed) << at;
        EXPECT_EQ(got.mac.fired, want.fired) << at;
        EXPECT_EQ(got.mac.macsObserved, want.macsObserved) << at;
        EXPECT_EQ(got.mac.peHits, want.peHits) << at;
        EXPECT_EQ(got.memFlips, want.memFlips) << at;
        EXPECT_EQ(doubleBits(got.outputRmse), want.outputRmseBits) << at;
        EXPECT_EQ(doubleBits(got.memRmse), want.memRmseBits) << at;
    }
}

} // namespace
