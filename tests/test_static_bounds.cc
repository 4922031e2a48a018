/**
 * @file
 * The static-vs-simulated bounds equivalence property: over randomized
 * legal streamed jobs and randomized unrollings, the closed-form
 * staticRunStats() must match the cycle-level walk *bit for bit* on
 * every counter, for all five dataflows. A divergence is a bug in
 * either the closed form or the simulator — both derive from the same
 * schedule, so there is no tolerance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

#include "core/unrolling.hh"
#include "gan/models.hh"
#include "sim/closed_form.hh"
#include "sim/phase.hh"
#include "verify/legality.hh"
#include "verify/static_bounds.hh"

namespace {

using namespace ganacc;

int
pick(std::mt19937 &rng, int lo, int hi)
{
    return lo + int(rng() % unsigned(hi - lo + 1));
}

/**
 * A random legal job drawn from the four streamed-operand shapes the
 * GAN phase mapping produces: dense S-CONV, zero-stuffed T-CONV input,
 * dilated W-CONV kernel, and stuffed four-dimensional W-CONV.
 */
sim::ConvSpec
randomSpec(std::mt19937 &rng)
{
    sim::ConvSpec s;
    s.label = "random job";
    s.nif = pick(rng, 1, 3);
    s.nof = pick(rng, 1, 4);

    const int mode = pick(rng, 0, 3);
    if (mode == 0) {
        // Dense, stride 1 or 2, occasionally four-dimensional (the
        // stride-1 W-CONV case dilates by 1, i.e. stays dense).
        s.stride = pick(rng, 1, 2);
        s.ih = pick(rng, 4, 9);
        s.iw = pick(rng, 4, 9);
        s.kh = pick(rng, 1, 3);
        s.kw = pick(rng, 1, 3);
        s.fourDimOutput = pick(rng, 0, 3) == 0;
    } else if (mode == 2) {
        // Dilated kernel (discriminator weight gradients).
        s.stride = 1;
        const int z = pick(rng, 2, 3);
        s.kZeroStride = z;
        s.kOrigH = pick(rng, 1, 2);
        s.kOrigW = pick(rng, 1, 2);
        s.kh = (s.kOrigH - 1) * z + 1;
        s.kw = (s.kOrigW - 1) * z + 1;
        s.ih = s.kh + pick(rng, 0, 4);
        s.iw = s.kw + pick(rng, 0, 4);
        s.fourDimOutput = pick(rng, 0, 1) == 1;
    } else {
        // Zero-stuffed input, stride 1 (T-CONV forward/backward when
        // mode 1, generator weight gradients when mode 3).
        s.stride = 1;
        const int z = pick(rng, 2, 3);
        s.inZeroStride = z;
        s.inOrigH = pick(rng, 2, 4);
        s.inOrigW = pick(rng, 2, 4);
        s.ih = (s.inOrigH - 1) * z + 1 + pick(rng, 0, z - 1);
        s.iw = (s.inOrigW - 1) * z + 1 + pick(rng, 0, z - 1);
        if (pick(rng, 0, 3) == 0)
            s.inOrigH = s.inOrigW = -1; // whole-grid stuffing pattern
        s.kh = pick(rng, 1, std::min(3, s.ih));
        s.kw = pick(rng, 1, std::min(3, s.iw));
        s.fourDimOutput = mode == 3;
    }

    s.pad = pick(rng, 0, std::min(s.kh, s.kw) - 1);
    s.oh = (s.ih - s.kh + s.pad) / s.stride + 1;
    s.ow = (s.iw - s.kw + s.pad) / s.stride + 1;
    return s;
}

sim::Unroll
randomUnroll(std::mt19937 &rng)
{
    sim::Unroll u;
    u.pIf = pick(rng, 1, 3);
    u.pOf = pick(rng, 1, 3);
    u.pKx = pick(rng, 1, 3);
    u.pKy = pick(rng, 1, 3);
    u.pOx = pick(rng, 1, 3);
    u.pOy = pick(rng, 1, 3);
    return u;
}

/** Assert closed form == cycle walk on every counter of one job. */
void
expectBoundsMatch(core::ArchKind kind, const sim::Unroll &u,
                  const sim::ConvSpec &spec)
{
    // Force the walk: under the default engine run() answers from the
    // same model staticRunStats() reads, and the check would be vacuous.
    sim::ScopedSimEngine walk(sim::SimEngine::Walk);
    auto arch = core::makeArch(kind, u);
    const sim::RunStats walked = arch->run(spec);
    const sim::RunStats derived = verify::staticRunStats(kind, u, spec);

    verify::Report r;
    const bool same =
        verify::checkBoundsAgainstSim(kind, u, spec, walked, r);
    std::ostringstream os;
    r.renderText(os);
    EXPECT_TRUE(same) << core::archKindName(kind) << " with "
                      << u.str() << " on " << spec.describe() << "\n"
                      << os.str();

    // The closed form must satisfy the same conservation law the
    // simulator asserts: every offered PE slot is accounted for.
    EXPECT_EQ(derived.effectiveMacs + derived.ineffectualMacs +
                  derived.idlePeSlots,
              derived.totalSlots())
        << core::archKindName(kind) << " on " << spec.describe();
    EXPECT_EQ(derived.nPes, walked.nPes);
}

/** The property test: randomized specs, randomized unrollings. */
TEST(StaticBounds, MatchesCycleWalkOnRandomizedSpecs)
{
    std::mt19937 rng(0xC0FFEE);
    for (core::ArchKind kind : core::allArchKinds()) {
        for (int iter = 0; iter < 50; ++iter) {
            const sim::ConvSpec spec = randomSpec(rng);

            // The generator must only emit verifier-legal jobs —
            // otherwise the property is vacuous.
            verify::Report legal;
            verify::checkConvSpec(spec, legal);
            ASSERT_TRUE(legal.ok()) << spec.describe();

            expectBoundsMatch(kind, randomUnroll(rng), spec);
        }
    }
}

/** Same property on the real phase jobs under the paper unrollings. */
TEST(StaticBounds, MatchesCycleWalkOnPaperSchedules)
{
    const gan::GanModel mnist = gan::makeMnistGan();
    for (core::ArchKind kind : core::allArchKinds()) {
        for (sim::PhaseFamily family :
             {sim::PhaseFamily::D, sim::PhaseFamily::G,
              sim::PhaseFamily::Dw, sim::PhaseFamily::Gw}) {
            const bool weight_family = family == sim::PhaseFamily::Dw ||
                                       family == sim::PhaseFamily::Gw;
            const sim::Unroll u = core::paperUnroll(
                kind,
                weight_family ? core::BankRole::W : core::BankRole::ST,
                family, weight_family ? 480 : 1200);
            const bool zero_free = kind == core::ArchKind::ZFOST ||
                                   kind == core::ArchKind::ZFWST;
            for (const sim::ConvSpec &job :
                 sim::familyJobs(mnist, family)) {
                // The zero-free schedules are undefined on stuffed
                // inputs streamed with stride > 1 (GA-SPEC-ZI-STRIDE).
                if (zero_free && job.inZeroStride > 1 && job.stride != 1)
                    continue;
                expectBoundsMatch(kind, u, job);
            }
        }
    }
}

} // namespace
