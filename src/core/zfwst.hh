/**
 * @file
 * ZFWST — Zero-Free Weight-STationary microarchitecture (Fig. 13),
 * the paper's design for W-ARCH (phases Dw, Gw).
 *
 * Unrolls Loop-3: a P_ky x P_kx tile of *structurally non-zero*
 * kernel elements stays resident in the PEs (for W-CONV the "kernel"
 * is the back-propagated error map — dilated for Dw, dense for Gw),
 * and each cycle the adder tree folds all resident products into one
 * output neuron per channel. The input register array shifts as the
 * output neuron advances, giving the same temporal input reuse as
 * ZFOST ("ZFWST and ZFOST are somehow asymmetric in terms of kernel
 * weights and output neurons").
 *
 * Zero freedom: only non-zero kernel elements are allocated to PEs
 * (Dw), and outputs are processed per parity class so zero-inserted
 * input operands are never fetched (Gw, and T-CONV when ZFWST runs ST
 * phases in the Fig. 15 comparison). When the effective element count
 * exceeds P_ky*P_kx, multiple resident passes accumulate partial
 * results through the ping-pong gradient buffer (Section V-B3).
 */

#ifndef GANACC_CORE_ZFWST_HH
#define GANACC_CORE_ZFWST_HH

#include "sim/arch.hh"

namespace ganacc {
namespace core {

/** The paper's zero-free weight-stationary array. */
class Zfwst : public sim::Architecture
{
  public:
    // Per parity class, its effective taps resident in runs of
    // pKy * pKx; each cycle one output neuron per channel through the
    // adder tree, with a column shift of the register window, into the
    // ping-pong partial-result buffer.
    explicit Zfwst(sim::Unroll unroll)
        : sim::Architecture(
              "ZFWST", unroll,
              sim::Dataflow{.pOf = unroll.pOf,
                            .tiled = sim::Space::Taps,
                            .tileY = unroll.pKy,
                            .tileX = unroll.pKx,
                            .flat = true,
                            .walked = sim::Space::Outputs,
                            .zeroFree = true,
                            .weights = sim::WeightReuse::Resident,
                            .inputs = sim::InputReuse::Shift,
                            .psums = sim::WindowKind::AccumBuffer}) {}
};

} // namespace core
} // namespace ganacc

#endif // GANACC_CORE_ZFWST_HH
