/**
 * @file
 * The output-stationary cycle-level model (OST and ZFOST).
 */

#include "sim/output_stationary.hh"

#include "sim/closed_form.hh"
#include "sim/walker.hh"

namespace ganacc {
namespace sim {

bool
OutputStationary::dataflow(const ConvSpec &spec, Dataflow &d) const
{
    // A pOy x pOx output tile per pass, its partial sums held in the
    // register array; each cycle broadcasts one tap's weights to it.
    // A raster feed on a strided job loses the register array's shift
    // alignment and reloads the whole tile every cycle (Fig. 7(b)).
    const bool shifts = reordered_feed_ || spec.stride == 1;
    d = Dataflow{.pOf = unroll_.pOf,
                 .tiled = Space::Outputs,
                 .tileY = unroll_.pOy,
                 .tileX = unroll_.pOx,
                 .walked = Space::Taps,
                 .zeroFree = zero_free_,
                 .gateZeroValues = true,
                 .weights = WeightReuse::PerCycle,
                 .inputs = shifts ? InputReuse::Shift
                                  : InputReuse::Reload,
                 .psums = WindowKind::RegisterTile};
    return true;
}

bool
OutputStationary::scheduleModel(const ConvSpec &spec,
                                ScheduleModel &model) const
{
    model = outputStationaryModel(unroll_, spec, zero_free_, reordered_feed_);
    return true;
}

} // namespace sim
} // namespace ganacc
