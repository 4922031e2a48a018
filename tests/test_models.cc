/**
 * @file
 * Tests for the GAN topologies (Fig. 1 / Table IV) and the memory
 * analysis of Section III-A.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "gan/memory_analysis.hh"
#include "gan/models.hh"
#include "nn/layers.hh"
#include "util/logging.hh"

namespace {

using namespace ganacc;
using gan::GanModel;
using nn::ConvKind;

TEST(Models, ModelByNameTakesTheCanonicalSpellings)
{
    const std::pair<const char *, const char *> names[] = {
        {"dcgan", "DCGAN"},
        {"mnist-gan", "MNIST-GAN"},
        {"cgan", "cGAN"},
        {"context-encoder", "ContextEncoder"}};
    for (const auto &[spelling, display] : names)
        EXPECT_EQ(gan::modelByName(spelling).name, display) << spelling;
    for (const char *bad : {"x", "mnist", "MNIST-GAN", "contextencoder"}) {
        try {
            gan::modelByName(bad);
            ADD_FAILURE() << "accepted " << bad;
        } catch (const util::FatalError &e) {
            EXPECT_EQ(std::string(e.what()),
                      std::string("fatal: unknown model \"") + bad +
                          "\" (dcgan, mnist-gan, cgan, context-encoder)");
        }
    }
}

TEST(Models, DcganMatchesFig1)
{
    GanModel m = gan::makeDcgan();
    ASSERT_EQ(m.disc.size(), 5u);
    // Table-IV-style progression: 3x64x64 -> 64x32x32 -> 128x16x16
    // -> 256x8x8 -> 512x4x4 -> 1x1x1.
    const int chans[] = {3, 64, 128, 256, 512, 1};
    const int sizes[] = {64, 32, 16, 8, 4, 1};
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(m.disc[i].inChannels, chans[i]) << "layer " << i;
        EXPECT_EQ(m.disc[i].outChannels, chans[i + 1]);
        EXPECT_EQ(m.disc[i].inH, sizes[i]);
        EXPECT_EQ(m.disc[i].outH(), sizes[i + 1]);
        EXPECT_EQ(m.disc[i].kind, ConvKind::Strided);
    }
}

TEST(Models, MnistGanMatchesTable4)
{
    GanModel m = gan::makeMnistGan();
    // Table IV: 1x28x28 -k5s2-> 64x14x14 -k5s2-> 128x7x7.
    ASSERT_GE(m.disc.size(), 2u);
    EXPECT_EQ(m.disc[0].inChannels, 1);
    EXPECT_EQ(m.disc[0].inH, 28);
    EXPECT_EQ(m.disc[0].outChannels, 64);
    EXPECT_EQ(m.disc[0].outH(), 14);
    EXPECT_EQ(m.disc[0].geom.kernel, 5);
    EXPECT_EQ(m.disc[0].geom.stride, 2);
    EXPECT_EQ(m.disc[1].outChannels, 128);
    EXPECT_EQ(m.disc[1].outH(), 7);
}

TEST(Models, CganMatchesTable4)
{
    GanModel m = gan::makeCgan();
    // Table IV: 3x64x64 -k4s2-> 64x32x32 -> 128x16x16 -> 256x8x8
    // -> 512x4x4.
    ASSERT_GE(m.disc.size(), 4u);
    const int chans[] = {3, 64, 128, 256, 512};
    const int sizes[] = {64, 32, 16, 8, 4};
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(m.disc[i].inChannels, chans[i]);
        EXPECT_EQ(m.disc[i].outChannels, chans[i + 1]);
        EXPECT_EQ(m.disc[i].inH, sizes[i]);
        EXPECT_EQ(m.disc[i].outH(), sizes[i + 1]);
        EXPECT_EQ(m.disc[i].geom.kernel, 4);
    }
}

TEST(Models, GeneratorIsInverseOfDiscriminator)
{
    for (const GanModel &m : gan::allModels()) {
        ASSERT_EQ(m.gen.size(), m.disc.size()) << m.name;
        const std::size_t n = m.disc.size();
        for (std::size_t i = 0; i < n; ++i) {
            const auto &g = m.gen[i];
            const auto &d = m.disc[n - 1 - i];
            EXPECT_EQ(g.kind, ConvKind::Transposed) << m.name;
            EXPECT_EQ(g.outChannels, d.inChannels) << m.name;
            EXPECT_EQ(g.inH, d.outH()) << m.name;
            EXPECT_EQ(g.outH(), d.inH) << m.name << " gen layer " << i;
            if (i > 0)
                EXPECT_EQ(g.inChannels, d.outChannels);
            else
                EXPECT_EQ(g.inChannels, m.latentDim);
        }
        // The generator emits the image the discriminator consumes.
        EXPECT_EQ(m.gen.back().outChannels, m.disc.front().inChannels);
        EXPECT_EQ(m.gen.back().outH(), m.disc.front().inH);
    }
}

TEST(Models, LayersChainThroughBothNetworks)
{
    for (const GanModel &m : gan::allModels()) {
        for (std::size_t i = 1; i < m.gen.size(); ++i) {
            EXPECT_EQ(m.gen[i].inChannels, m.gen[i - 1].outChannels)
                << m.name << " gen " << i;
            EXPECT_EQ(m.gen[i].inH, m.gen[i - 1].outH());
        }
    }
}

TEST(Models, MacCountsArePositiveAndLargestInMiddleLayers)
{
    GanModel m = gan::makeDcgan();
    // Layers 2-4 all have ~52M MACs; the head is tiny.
    EXPECT_GT(m.disc[1].macs(), 40'000'000u);
    EXPECT_LT(m.disc[4].macs(), 10'000'000u);
}

TEST(Models, InstantiateLayerProducesMatchingKind)
{
    GanModel m = gan::makeDcgan();
    auto s = gan::instantiateLayer(m.disc[0]);
    EXPECT_EQ(s->kind(), ConvKind::Strided);
    auto t = gan::instantiateLayer(m.gen[0]);
    EXPECT_EQ(t->kind(), ConvKind::Transposed);
    EXPECT_EQ(t->inChannels(), m.latentDim);
}

TEST(MemoryAnalysis, DcganMatchesPaper126MbClaim)
{
    // Section III-A: "DCGAN needs a ~126M-byte buffer when the batch
    // size is 256" (16-bit data, 2m buffered intermediate sets).
    GanModel m = gan::makeDcgan();
    auto f = gan::analyzeMemory(m, 256, 2);
    EXPECT_NEAR(double(f.syncDiscUpdateBytes), 126e6, 6e6);
}

TEST(MemoryAnalysis, DeferredShrinksToPerSampleFootprint)
{
    GanModel m = gan::makeDcgan();
    auto f = gan::analyzeMemory(m, 256, 2);
    // Deferred sync is independent of batch size and ~2 samples big.
    EXPECT_EQ(f.deferredDiscUpdateBytes, 2 * f.perSampleDiscBytes);
    EXPECT_GT(f.syncDiscUpdateBytes / f.deferredDiscUpdateBytes, 200u);
    auto f2 = gan::analyzeMemory(m, 1024, 2);
    EXPECT_EQ(f.deferredDiscUpdateBytes, f2.deferredDiscUpdateBytes);
    EXPECT_EQ(f2.syncDiscUpdateBytes, 4 * f.syncDiscUpdateBytes);
}

TEST(MemoryAnalysis, GenUpdateCountsBothNetworks)
{
    GanModel m = gan::makeMnistGan();
    auto f = gan::analyzeMemory(m, 64, 2);
    EXPECT_EQ(f.syncGenUpdateBytes,
              64 * (f.perSampleGenBytes + f.perSampleDiscBytes));
}

TEST(MemoryAnalysis, OnChipFeasibility)
{
    // The deferred-sync footprint must fit the VCU9P's ~9.5 MB of
    // BRAM (75.9 Mb) for every evaluated model — the property that
    // makes the design implementable at all.
    for (const GanModel &m : gan::allModels()) {
        auto f = gan::analyzeMemory(m, 256, 2);
        EXPECT_LT(f.deferredDiscUpdateBytes + f.deferredGenUpdateBytes,
                  9'500'000u)
            << m.name;
    }
}

} // namespace
