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

#include <string>

#include "sim/arch.hh"

namespace ganacc {
namespace sim {

/** An output-stationary array; the knobs are fixed by the subclass. */
class OutputStationary : public Architecture
{
  public:
    bool dataflow(Dataflow &d) const override;

  protected:
    OutputStationary(std::string name, Unroll unroll, bool zero_free,
                     bool reordered_feed)
        : Architecture(std::move(name), unroll), zero_free_(zero_free),
          reordered_feed_(reordered_feed) {}

  private:
    bool zero_free_;
    bool reordered_feed_;
};

/** Traditional output-stationary array: raster feed, no skipping. */
class Ost : public OutputStationary
{
  public:
    explicit Ost(Unroll unroll)
        : OutputStationary("OST", unroll, /*zero_free=*/false,
                           /*reordered_feed=*/false) {}
};

} // namespace sim
} // namespace ganacc

#endif // GANACC_SIM_OUTPUT_STATIONARY_HH
