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
 *
 * A second golden pins what the walks compute rather than what they
 * show the hook: the output bits of the same configurations on
 * operands that break the zero structure, unhooked and under a seeded
 * FaultInjector, whose settled steps run like the unhooked walk.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iomanip>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "core/unrolling.hh"
#include "core/zfost.hh"
#include "fault/injector.hh"
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

/** FNV-1a over 32-bit words, a byte at a time. */
void
fnvMix(std::uint64_t &hash, std::uint32_t word)
{
    for (int i = 0; i < 4; ++i) {
        hash ^= (word >> (8 * i)) & 0xffu;
        hash *= 0x100000001b3ULL;
    }
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint32_t
bits(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof u);
    return u;
}

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
            fnvMix(hash_, std::uint32_t(v));
        fnvMix(hash_, bits(a));
        fnvMix(hash_, bits(b));
        ++count_;
        return a * b;
    }

    bool visitIneffectual() const override { return ineffectual_; }

    std::uint64_t count() const { return count_; }
    std::uint64_t hash() const { return hash_; }

  private:
    bool ineffectual_;
    std::uint64_t count_ = 0;
    std::uint64_t hash_ = kFnvBasis;
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

/**
 * The corpus job's operands with the zero structure broken: every
 * structural-zero input and kernel slot holds -0.0, 0.5 or NaN, and one
 * effectual kernel slot holds +Inf. A walk that multiplies a row it
 * should skip, or skips one it should multiply, moves the outputs.
 */
void
perturb(const ConvSpec &s, tensor::Tensor &in, tensor::Tensor &w,
        util::Rng &rng)
{
    const float plants[3] = {-0.0f, 0.5f,
                             std::numeric_limits<float>::quiet_NaN()};
    for (int c = 0; c < s.nif; ++c)
        for (int y = 0; y < s.ih; ++y)
            for (int x = 0; x < s.iw; ++x)
                if (s.inputIsZero(y, x))
                    in.ref(0, c, y, x) = plants[rng.uniformInt(0, 2)];
    const tensor::Shape4 &ks = w.shape();
    std::vector<float *> effectual;
    for (int of = 0; of < ks.d0; ++of)
        for (int c = 0; c < ks.d1; ++c)
            for (int ky = 0; ky < s.kh; ++ky)
                for (int kx = 0; kx < s.kw; ++kx) {
                    float &k = w.ref(of, c, ky, kx);
                    if (s.kernelIsZero(ky, kx))
                        k = plants[rng.uniformInt(0, 2)];
                    else
                        effectual.push_back(&k);
                }
    *effectual[std::size_t(
        rng.uniformInt(0, int(effectual.size()) - 1))] =
        std::numeric_limits<float>::infinity();
}

/** Folds an output's bits into `hash`. Every NaN folds as one pattern:
 *  which NaN an operation returns is left open by IEEE 754. */
void
hashOutput(std::uint64_t &hash, const tensor::Tensor &out)
{
    const float *p = out.data();
    for (std::size_t i = 0; i < out.numel(); ++i)
        fnvMix(hash, p[i] != p[i] ? 0x7fc00000u : bits(p[i]));
}

/** Pinned output hashes: unhooked, then under the injector, per
 *  configuration. To regenerate after an intended change of what the
 *  walks compute, paste the "actual outputs" table a failing run
 *  prints. */
const std::array<std::array<std::uint64_t, 2>, 7> kOutputGolden = {{
    {{0x493582e2fd36bea1ULL, 0xf7964c4ac7b60718ULL}}, // NLR-skip
    {{0x493582e2fd36bea1ULL, 0xfcb510b1bd740515ULL}}, // NLR-execute
    {{0xe5fa8482bb281137ULL, 0x7090c9771e53685eULL}}, // WST
    {{0xfda1ab2a70887781ULL, 0xdb0f9b51b4fd3a47ULL}}, // OST
    {{0x80c2459021becd13ULL, 0xf4d95bb30e2f9c35ULL}}, // ZFOST-reordered
    {{0x80c2459021becd13ULL, 0xf4d95bb30e2f9c35ULL}}, // ZFOST-raster
    {{0xe40a4a667b810b46ULL, 0x9d4f1ef350399cebULL}}, // ZFWST
}};

TEST(WalkOutputs, PerturbedOperandsMatchGolden)
{
    fault::FaultPlan plan;
    plan.seed = 23;
    plan.transient.sitesPerJob = 64;

    std::array<std::array<std::uint64_t, 2>, 7> hashes;
    for (auto &h : hashes)
        h = {kFnvBasis, kFnvBasis};

    util::Rng rng(0x0B5E55EDULL);
    for (int i = 0; i < kCorpusSize; ++i) {
        const ConvSpec s = tests::randomSpec(rng);
        tensor::Tensor in = sim::makeStreamedInput(s, rng);
        tensor::Tensor w = sim::makeStreamedKernel(s, rng);
        perturb(s, in, w, rng);
        const Unroll u{.pIf = rng.uniformInt(1, 3),
                       .pOf = rng.uniformInt(1, 3),
                       .pKx = rng.uniformInt(1, 3),
                       .pKy = rng.uniformInt(1, 3),
                       .pOx = rng.uniformInt(1, 4),
                       .pOy = rng.uniformInt(1, 4)};
        for (std::size_t c = 0; c < kConfigs.size(); ++c) {
            const auto arch = kConfigs[c].make(u);
            tensor::Tensor plain = sim::makeOutputTensor(s);
            arch->run(s, &in, &w, &plain);
            hashOutput(hashes[c][0], plain);

            fault::FaultInjector injector(plan);
            injector.beginJob(s, std::uint64_t(i));
            arch->setFaultHook(&injector);
            tensor::Tensor hooked = sim::makeOutputTensor(s);
            arch->run(s, &in, &w, &hooked);
            arch->setFaultHook(nullptr);
            hashOutput(hashes[c][1], hooked);
        }
    }

    std::ostringstream actual;
    for (std::size_t c = 0; c < kConfigs.size(); ++c) {
        actual << "    {{" << std::hex << std::setfill('0');
        for (std::size_t m = 0; m < 2; ++m) {
            actual << (m ? ", " : "") << "0x" << std::setw(16)
                   << hashes[c][m] << "ULL";
            EXPECT_EQ(hashes[c][m], kOutputGolden[c][m])
                << kConfigs[c].name << (m ? " injected" : " unhooked");
        }
        actual << "}}, // " << kConfigs[c].name << "\n";
    }
    if (::testing::Test::HasFailure())
        ADD_FAILURE() << "actual outputs:\n" << actual.str();
}

} // namespace
