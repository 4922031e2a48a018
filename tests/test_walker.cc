/**
 * @file
 * The walker's derived cycle projections. The fault path settles a
 * whole cycle by one key (sim::cycleProjection), which is exact only
 * if every MAC the cycle schedules projects to that key. On the
 * MNIST-GAN campaign's own shapes, in all six columns, a hook that is
 * shown every scheduled MAC checks that the MACs between two onCycle
 * events share one key.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "gan/models.hh"
#include "sim/phase.hh"
#include "sim/walker.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"

#include "campaign_matrix.hh"

namespace {

using namespace ganacc;

/** An unfiltered hook that visits ineffectual slots and a recorder in
 *  one: keys each presented MAC and counts the cycles whose MACs do
 *  not share a key. */
class KeyCheck final : public sim::MacFaultHook,
                       public sim::ScheduleRecorder
{
  public:
    explicit KeyCheck(const sim::CycleProjection &proj) : proj_(proj) {}

    float
    onMac(const sim::MacContext &ctx, float a, float b) override
    {
        const std::uint64_t key =
            proj_.key(ctx.c, ctx.oy, ctx.ox, ctx.ky, ctx.kx);
        if (!keyed_) {
            key_ = key;
            keyed_ = true;
        } else if (key != key_) {
            ++splitMacs;
        }
        ++macs;
        return a * b;
    }

    bool visitIneffectual() const override { return true; }

    void onJobBegin(int, const sim::ConvSpec &) override {}
    void
    onCycle() override
    {
        keyed_ = false;
        ++cycles;
    }
    void onLanes(int, int) override {}
    void onPort(sim::SchedPort, std::uint64_t) override {}
    void onWindowBegin(std::uint64_t, sim::WindowKind) override {}
    void onCellWrite(std::uint64_t, std::uint64_t) override {}
    void onCellRead(std::uint64_t, std::uint64_t) override {}
    void onDrain(std::uint64_t, std::uint64_t) override {}
    void onWindowEnd() override {}
    void onJobEnd() override {}

    std::uint64_t macs = 0;      ///< MACs presented
    std::uint64_t splitMacs = 0; ///< MACs off their cycle's first key
    std::uint64_t cycles = 0;

  private:
    sim::CycleProjection proj_;
    bool keyed_ = false;
    std::uint64_t key_ = 0;
};

TEST(WalkerProjection, EveryCycleKeysOnceOnCampaignShapes)
{
    const gan::GanModel model = gan::makeMnistGan();
    util::Rng rng(0x5E77ULL);
    for (const tests::CampaignRow &row : tests::kCampaignRows) {
        const auto columns = tests::campaignRowColumns(row);
        for (const sim::ConvSpec &spec :
             sim::familyJobs(model, row.family)) {
            const tensor::Tensor in = sim::makeStreamedInput(spec, rng);
            const tensor::Tensor w = sim::makeStreamedKernel(spec, rng);
            for (const auto &arch : columns) {
                const sim::Dataflow *d = arch->dataflow();
                ASSERT_NE(d, nullptr) << arch->name();
                KeyCheck check(sim::cycleProjection(*d, spec));
                arch->setFaultHook(&check);
                arch->setScheduleRecorder(&check);
                tensor::Tensor out = sim::makeOutputTensor(spec);
                const sim::RunStats st = arch->run(spec, &in, &w, &out);
                arch->setFaultHook(nullptr);
                arch->setScheduleRecorder(nullptr);

                const std::string where = std::string(row.name) + " " +
                                          arch->name() + " on " +
                                          spec.describe();
                EXPECT_EQ(check.splitMacs, 0u) << where;
                // The hook is shown every scheduled MAC, in cycles the
                // recorder saw.
                EXPECT_EQ(check.macs, st.effectiveMacs + st.ineffectualMacs)
                    << where;
                EXPECT_EQ(check.cycles, st.cycles) << where;
            }
        }
    }
}

} // namespace
