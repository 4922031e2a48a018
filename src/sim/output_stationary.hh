/**
 * @file
 * The output-stationary family: OST (Fig. 5(c), ShiDianNao-style) and
 * the paper's ZFOST (Fig. 11) on one cycle walk.
 *
 * A P_oy x P_ox tile of output neurons is pinned to the PE array and
 * P_of output feature maps run in parallel channels. Each cycle one
 * kernel weight per channel is broadcast and every PE accumulates into
 * its private output register, fed from a shared input register array.
 *
 * ZFOST is OST plus two schedule changes, each a construction knob:
 *
 *  1. *Zero-free scheduling* (Fig. 12(b)): outputs are processed per
 *     parity class of the zero-stuffed input, and each class streams
 *     only the kernel taps whose input operands can be non-zero; the
 *     zero taps of a dilated kernel (W-CONV of the discriminator) are
 *     never streamed either. Skipping happens entirely in address
 *     generation. Without it (OST), the inserted zeros of T-CONV
 *     inputs are multiplied like any operand and ~3/4 of the MACs are
 *     ineffectual (Section III-C3).
 *  2. *Reordered weight feed* (Fig. 12(a)): kernel weights enter
 *     grouped by coordinate parity class, which keeps the register
 *     array shifting on strided convolutions. In plain raster order
 *     (OST) adjacent cycles of a stride-2 S-CONV need disjoint inputs,
 *     so the whole tile reloads every cycle.
 */

#ifndef GANACC_SIM_OUTPUT_STATIONARY_HH
#define GANACC_SIM_OUTPUT_STATIONARY_HH

#include "sim/arch.hh"

namespace ganacc {
namespace sim {

/**
 * The output-stationary descriptor: a pOy x pOx output tile per pass,
 * its partial sums held in the register array; each cycle broadcasts
 * one tap's weights to it, multiplied only on a non-zero input.
 * `zero_free` is knob 1 above; `inputs` is Shift for the reordered
 * feed, RasterShift for a raster one, which keeps the register
 * array's shift alignment on stride-1 jobs only.
 */
inline Dataflow
outputStationary(const Unroll &u, bool zero_free, InputReuse inputs)
{
    return Dataflow{.pOf = u.pOf,
                    .tiled = Space::Outputs,
                    .tileY = u.pOy,
                    .tileX = u.pOx,
                    .walked = Space::Taps,
                    .zeroFree = zero_free,
                    .gateZeroValues = true,
                    .weights = WeightReuse::PerCycle,
                    .inputs = inputs,
                    .psums = WindowKind::RegisterTile};
}

/** Traditional output-stationary array: raster feed, no skipping. */
class Ost : public Architecture
{
  public:
    explicit Ost(Unroll unroll)
        : Architecture("OST", unroll,
                       outputStationary(unroll, /*zero_free=*/false,
                                        InputReuse::RasterShift)) {}
};

} // namespace sim
} // namespace ganacc

#endif // GANACC_SIM_OUTPUT_STATIONARY_HH
