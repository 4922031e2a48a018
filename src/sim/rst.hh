/**
 * @file
 * RST — an Eyeriss-style Row-Stationary architecture, added as an
 * extension baseline beyond the paper's three (Section VII discusses
 * Eyeriss qualitatively: it "can gate zero input neuron computations
 * to further save power" but "could not handle the zero-inserting in
 * the kernel for W-CONV").
 *
 * A P_ky x P_oy grid of PEs per channel: PE(ky, oy) runs the 1-D
 * convolution of kernel row ky against the input row feeding output
 * row oy; partial sums accumulate down each column, input rows are
 * reused along the diagonals. Zero operands are *clock-gated* — the
 * energy is saved (no buffer access) but the cycle is still spent,
 * so zero-inserted maps do not get faster, only cooler. That is the
 * contrast with ZFOST/ZFWST's address-generation skipping.
 */

#ifndef GANACC_SIM_RST_HH
#define GANACC_SIM_RST_HH

#include "sim/arch.hh"

namespace ganacc {
namespace sim {

/** Row-stationary (Eyeriss-style) array with zero gating. */
class Rst : public Architecture
{
  public:
    explicit Rst(Unroll unroll)
        : Architecture("RST", unroll, unroll.pKy * unroll.pOy * unroll.pOf)
    {}

  protected:
    /** Gated slots (energy saved while the cycle elapsed) are
     *  reported in RunStats::gatedSlots; run() stays reentrant — no
     *  state survives on the architecture object. */
    RunStats doRun(const ConvSpec &spec, const tensor::Tensor *in,
                   const tensor::Tensor *w,
                   tensor::Tensor *out) const override;
};

} // namespace sim
} // namespace ganacc

#endif // GANACC_SIM_RST_HH
