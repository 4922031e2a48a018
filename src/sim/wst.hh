/**
 * @file
 * WST — the traditional Weight-STationary architecture (Fig. 5(b),
 * NeuFlow-style).
 *
 * A P_ky x P_kx tile of kernel weights is pinned to the PE array
 * (replicated across P_of channels); every input neuron of the layer
 * is broadcast to all PEs, one per cycle, and each PE accumulates
 * into whichever output neuron its (input, weight) pair feeds.
 *
 * Weaknesses on GAN (Section III-C2): with down-sampling convolutions
 * (S-CONV, and the huge dilated kernels of W-CONV) most streamed
 * inputs align with few or no resident weights, so PE utilization
 * collapses to Noy*Nox / Niy*Nix (eq. 5); streamed zero inputs and
 * resident zero weights still burn full cycles.
 */

#ifndef GANACC_SIM_WST_HH
#define GANACC_SIM_WST_HH

#include "sim/arch.hh"

namespace ganacc {
namespace sim {

/** Traditional weight-stationary array. */
class Wst : public Architecture
{
  public:
    // A pKy x pKx tile of kernel taps stays resident per pass; every
    // input is broadcast once per input map, and each resident tap it
    // reaches read-modify-writes its own partial sum in the buffer.
    explicit Wst(Unroll unroll)
        : Architecture("WST", unroll,
                       Dataflow{.pOf = unroll.pOf,
                                .tiled = Space::Taps,
                                .tileY = unroll.pKy,
                                .tileX = unroll.pKx,
                                .walked = Space::Inputs,
                                .weights = WeightReuse::Resident,
                                .inputs = InputReuse::Broadcast,
                                .psums = WindowKind::WriteThrough}) {}
};

} // namespace sim
} // namespace ganacc

#endif // GANACC_SIM_WST_HH
