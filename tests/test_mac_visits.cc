/**
 * @file
 * MAC-visit golden: which lattice points each dataflow walk presents
 * to the fault hook, and in what order.
 *
 * The RunStats goldens pin how many slots a schedule books; they say
 * nothing about *which* (lane, of, c, oy, ox, ky, kx) points a walk
 * multiplies through Architecture::macProduct, nor with which
 * operands. That set is the fault campaigns' attack surface: a point
 * the walk stops visiting silently becomes masked. This suite runs a
 * fixed fuzz corpus through all seven dataflow configurations with a
 * recording hook and compares an FNV-1a hash of the ordered
 * (MacContext, a, b) stream — plus its length — against pinned
 * values, once with visitIneffectual() off (effective products only)
 * and once with it on (every scheduled slot).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iomanip>
#include <memory>
#include <sstream>
#include <vector>

#include "core/unrolling.hh"
#include "core/zfost.hh"
#include "fuzz_specs.hh"
#include "sim/arch.hh"
#include "sim/conv_spec.hh"
#include "sim/nlr.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"

namespace {

using namespace ganacc;
using core::ArchKind;
using sim::Architecture;
using sim::ConvSpec;
using sim::Unroll;

/** Hashes the ordered stream of scheduled MACs; products stay exact. */
class RecordingHook final : public sim::MacFaultHook
{
  public:
    explicit RecordingHook(bool ineffectual) : ineffectual_(ineffectual) {}

    float
    onMac(const sim::MacContext &ctx, float a, float b) override
    {
        for (int v : {ctx.lane, ctx.of, ctx.c, ctx.oy, ctx.ox, ctx.ky,
                      ctx.kx})
            mix(std::uint32_t(v));
        mix(bits(a));
        mix(bits(b));
        ++count_;
        return a * b;
    }

    bool visitIneffectual() const override { return ineffectual_; }

    std::uint64_t count() const { return count_; }
    std::uint64_t hash() const { return hash_; }

  private:
    static std::uint32_t
    bits(float f)
    {
        std::uint32_t u;
        std::memcpy(&u, &f, sizeof u);
        return u;
    }

    void
    mix(std::uint32_t word)
    {
        for (int i = 0; i < 4; ++i) {
            hash_ ^= (word >> (8 * i)) & 0xffu;
            hash_ *= 0x100000001b3ULL;
        }
    }

    bool ineffectual_;
    std::uint64_t count_ = 0;
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct Config
{
    const char *name;
    std::function<std::unique_ptr<Architecture>(const Unroll &)> make;
};

const std::array<Config, 7> kConfigs = {{
    {"NLR-skip",
     [](const Unroll &u) { return core::makeArch(ArchKind::NLR, u); }},
    {"NLR-execute",
     [](const Unroll &u) -> std::unique_ptr<Architecture> {
         return std::make_unique<sim::Nlr>(u,
                                           sim::Nlr::ZeroPolicy::Execute);
     }},
    {"WST", [](const Unroll &u) { return core::makeArch(ArchKind::WST, u); }},
    {"OST", [](const Unroll &u) { return core::makeArch(ArchKind::OST, u); }},
    {"ZFOST-reordered",
     [](const Unroll &u) { return core::makeArch(ArchKind::ZFOST, u); }},
    {"ZFOST-raster",
     [](const Unroll &u) -> std::unique_ptr<Architecture> {
         return std::make_unique<core::Zfost>(
             u, core::Zfost::WeightOrder::Raster);
     }},
    {"ZFWST",
     [](const Unroll &u) { return core::makeArch(ArchKind::ZFWST, u); }},
}};

struct Visits
{
    std::uint64_t count;
    std::uint64_t hash;
};

/** Pinned streams: {count, hash} with visitIneffectual off, then on,
 *  per configuration. To regenerate after an intended schedule change,
 *  paste the "actual streams" table a failing run prints. */
const std::array<std::array<Visits, 2>, 7> kGolden = {{
    {{{89920, 0x0d9afb70b5194332ULL},
      {131853, 0x9fd79fb7de5c963eULL}}}, // NLR-skip
    {{{89920, 0x0d9afb70b5194332ULL},
      {312603, 0x14b1937adedce854ULL}}}, // NLR-execute
    {{{89920, 0x85a45b81780f4c9eULL},
      {261727, 0x2476ec4dc1bf4ab1ULL}}}, // WST
    {{{171092, 0xe56db2f740b80180ULL},
      {312603, 0xe435bd5ec3cee004ULL}}}, // OST
    {{{89920, 0xcb9b09aee3242605ULL},
      {106894, 0x5ef1c247e586aaa5ULL}}}, // ZFOST-reordered
    {{{89920, 0xcb9b09aee3242605ULL},
      {106894, 0x5ef1c247e586aaa5ULL}}}, // ZFOST-raster
    {{{89920, 0xf383d58037fe1224ULL},
      {106894, 0xf4e97e477e23c5dcULL}}}, // ZFWST
}};

constexpr int kCorpusSize = 60;

TEST(MacVisits, OrderedHookStreamMatchesGolden)
{
    // Two hooks per configuration: visitIneffectual off, then on.
    std::vector<RecordingHook> hooks;
    for (std::size_t c = 0; c < kConfigs.size(); ++c) {
        hooks.emplace_back(false);
        hooks.emplace_back(true);
    }

    util::Rng rng(0x3AC715175ULL);
    for (int i = 0; i < kCorpusSize; ++i) {
        const ConvSpec s = tests::randomSpec(rng);
        const tensor::Tensor in = sim::makeStreamedInput(s, rng);
        const tensor::Tensor w = sim::makeStreamedKernel(s, rng);
        // One unrolling per job; each dataflow reads its own factors.
        const Unroll u{.pIf = rng.uniformInt(1, 3),
                       .pOf = rng.uniformInt(1, 3),
                       .pKx = rng.uniformInt(1, 3),
                       .pKy = rng.uniformInt(1, 3),
                       .pOx = rng.uniformInt(1, 4),
                       .pOy = rng.uniformInt(1, 4)};
        for (std::size_t c = 0; c < kConfigs.size(); ++c) {
            const auto arch = kConfigs[c].make(u);
            for (std::size_t m = 0; m < 2; ++m) {
                arch->setFaultHook(&hooks[2 * c + m]);
                tensor::Tensor out = sim::makeOutputTensor(s);
                arch->run(s, &in, &w, &out);
                arch->setFaultHook(nullptr);
            }
        }
    }

    std::ostringstream actual;
    for (std::size_t c = 0; c < kConfigs.size(); ++c) {
        actual << "    {{";
        for (std::size_t m = 0; m < 2; ++m) {
            const RecordingHook &h = hooks[2 * c + m];
            actual << (m ? ",\n      " : "") << "{" << std::dec << h.count()
                   << ", 0x" << std::hex << std::setw(16)
                   << std::setfill('0') << h.hash() << "ULL}";
            EXPECT_EQ(h.count(), kGolden[c][m].count)
                << kConfigs[c].name << " visitIneffectual=" << m;
            EXPECT_EQ(h.hash(), kGolden[c][m].hash)
                << kConfigs[c].name << " visitIneffectual=" << m;
        }
        actual << "}}, // " << kConfigs[c].name << "\n";
    }
    if (::testing::Test::HasFailure())
        ADD_FAILURE() << "actual streams:\n" << actual.str();
}

} // namespace
