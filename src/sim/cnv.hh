/**
 * @file
 * CNV — a Cnvlutin-style dynamically zero-skipping architecture
 * (Section VII: "Instead of powering off the zero neuron
 * computations, Cnvlutin directly skips over the zero inputs").
 *
 * Like NLR, P_if input lanes feed per-filter adder trees across P_of
 * output channels — but each lane consumes an *encoded* stream of its
 * non-zero activations, so zeros cost nothing. Skipping is by value
 * inspection, which (a) also harvests dynamic ReLU sparsity that the
 * structural designs cannot see, but (b) suffers lane imbalance: all
 * lanes of a window resynchronize at output boundaries, so the
 * slowest lane paces the rest. And, like every P_if-parallel design,
 * the adder tree is dead weight on four-dimension W-CONV outputs.
 *
 * Because skipping is data-dependent, this model is functional-only:
 * run() requires real operands.
 */

#ifndef GANACC_SIM_CNV_HH
#define GANACC_SIM_CNV_HH

#include "sim/arch.hh"

namespace ganacc {
namespace sim {

/** Dynamically zero-skipping (value-inspecting) array. */
class Cnv : public Architecture
{
  public:
    explicit Cnv(Unroll unroll)
        : Architecture("CNV", unroll, unroll.pIf * unroll.pOf) {}

  protected:
    RunStats doRun(const ConvSpec &spec, const tensor::Tensor *in,
                   const tensor::Tensor *w,
                   tensor::Tensor *out) const override;
};

} // namespace sim
} // namespace ganacc

#endif // GANACC_SIM_CNV_HH
