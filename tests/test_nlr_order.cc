/**
 * @file
 * An order oracle for the NLR walk, independent of its register block
 * and staged weights: each output is the float sum of its products
 * in.getPadded(0, c, iy, ix) * w(of, c|0, ky, kx) over (ky, kx, c), in
 * that order, from +0 — one sum per input-map plane on 4-D outputs.
 * The sum keeps every product, zero ones included; a zero product
 * adds ±0, which never changes an accumulator that starts at +0, so
 * the walk must match it bit for bit under both zero policies.
 *
 * This file is compiled with -ffp-contract=off (tests/CMakeLists.txt),
 * so the oracle rounds every product and every sum on its own, as the
 * library does, whatever the build's CMAKE_CXX_FLAGS.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "fuzz_specs.hh"
#include "gan/models.hh"
#include "sim/conv_spec.hh"
#include "sim/nlr.hh"
#include "sim/phase.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"

namespace {

using namespace ganacc;
using sim::ConvSpec;
using sim::Nlr;
using sim::Unroll;
using tensor::Tensor;
using util::Rng;

/** The ordered sums of the job, in a fresh output tensor. */
Tensor
orderedSums(const ConvSpec &s, const Tensor &in, const Tensor &w)
{
    Tensor out = sim::makeOutputTensor(s);
    const int planes = s.fourDimOutput ? s.nif : 1;
    for (int of = 0; of < s.nof; ++of)
        for (int p = 0; p < planes; ++p)
            for (int oy = 0; oy < s.oh; ++oy)
                for (int ox = 0; ox < s.ow; ++ox) {
                    float acc = 0.0f;
                    for (int ky = 0; ky < s.kh; ++ky)
                        for (int kx = 0; kx < s.kw; ++kx) {
                            const int iy = oy * s.stride + ky - s.pad;
                            const int ix = ox * s.stride + kx - s.pad;
                            if (s.fourDimOutput) {
                                acc += in.getPadded(0, p, iy, ix) *
                                       w.get(of, 0, ky, kx);
                                continue;
                            }
                            for (int c = 0; c < s.nif; ++c)
                                acc += in.getPadded(0, c, iy, ix) *
                                       w.get(of, c, ky, kx);
                        }
                    if (s.fourDimOutput)
                        out.ref(of, p, oy, ox) = acc;
                    else
                        out.ref(0, of, oy, ox) = acc;
                }
    return out;
}

/** Both NLR zero policies at `u` must reproduce `want` bit for bit. */
void
expectBothPoliciesMatch(const ConvSpec &s, const Tensor &in,
                        const Tensor &w, const Tensor &want,
                        const Unroll &u)
{
    for (const Nlr::ZeroPolicy policy :
         {Nlr::ZeroPolicy::Execute, Nlr::ZeroPolicy::Skip}) {
        const Nlr nlr(u, policy);
        Tensor got = sim::makeOutputTensor(s);
        nlr.run(s, &in, &w, &got);
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                 got.numel() * sizeof(float)))
            << nlr.name() << " (" << u.str() << ") on " << s.describe();
    }
}

TEST(NlrOrderOracle, CampaignJobsAtThreeUnrolls)
{
    // The ST and W bank unrolls of the campaign, and a small one whose
    // tiles leave remainders on every axis.
    const Unroll unrolls[] = {
        {.pIf = 16, .pOf = 75}, {.pIf = 16, .pOf = 30}, {.pIf = 3, .pOf = 9}};
    const gan::GanModel model = gan::makeMnistGan();
    Rng rng(0x0D3E2ULL);
    int jobs = 0;
    for (const sim::PhaseFamily family :
         {sim::PhaseFamily::D, sim::PhaseFamily::G, sim::PhaseFamily::Dw,
          sim::PhaseFamily::Gw})
        for (const ConvSpec &s : sim::familyJobs(model, family)) {
            const Tensor in = sim::makeStreamedInput(s, rng);
            const Tensor w = sim::makeStreamedKernel(s, rng);
            const Tensor want = orderedSums(s, in, w);
            for (const Unroll &u : unrolls)
                expectBothPoliciesMatch(s, in, w, want, u);
            ++jobs;
        }
    EXPECT_EQ(jobs, 16);
}

TEST(NlrOrderOracle, FuzzCorpus)
{
    Rng rng(0x0D3E2F022ULL);
    for (int i = 0; i < 200; ++i) {
        const ConvSpec s = tests::randomSpec(rng);
        const Tensor in = sim::makeStreamedInput(s, rng);
        const Tensor w = sim::makeStreamedKernel(s, rng);
        const Unroll u{.pIf = rng.uniformInt(1, 5),
                       .pOf = rng.uniformInt(1, 20)};
        expectBothPoliciesMatch(s, in, w, orderedSums(s, in, w), u);
    }
}

} // namespace
