/**
 * @file
 * The output-stationary cycle-level model (OST and ZFOST).
 */

#include "sim/output_stationary.hh"

#include "sim/walker.hh"

namespace ganacc {
namespace sim {

bool
OutputStationary::dataflow(Dataflow &d) const
{
    // A pOy x pOx output tile per pass, its partial sums held in the
    // register array; each cycle broadcasts one tap's weights to it.
    // A raster feed keeps the register array's shift alignment on
    // stride-1 jobs only (InputReuse::RasterShift).
    d = Dataflow{.pOf = unroll_.pOf,
                 .tiled = Space::Outputs,
                 .tileY = unroll_.pOy,
                 .tileX = unroll_.pOx,
                 .walked = Space::Taps,
                 .zeroFree = zero_free_,
                 .gateZeroValues = true,
                 .weights = WeightReuse::PerCycle,
                 .inputs = reordered_feed_ ? InputReuse::Shift
                                           : InputReuse::RasterShift,
                 .psums = WindowKind::RegisterTile};
    return true;
}

} // namespace sim
} // namespace ganacc
