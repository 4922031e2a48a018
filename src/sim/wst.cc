/**
 * @file
 * WST cycle-level model.
 */

#include "sim/wst.hh"

#include "sim/closed_form.hh"
#include "sim/walker.hh"

namespace ganacc {
namespace sim {

bool
Wst::dataflow(const ConvSpec &, Dataflow &d) const
{
    // A pKy x pKx tile of kernel taps stays resident per pass; every
    // input is broadcast once per input map, and each resident tap it
    // reaches read-modify-writes its own partial sum in the buffer.
    d = Dataflow{.pOf = unroll_.pOf,
                 .tiled = Space::Taps,
                 .tileY = unroll_.pKy,
                 .tileX = unroll_.pKx,
                 .walked = Space::Inputs,
                 .weights = WeightReuse::Resident,
                 .inputs = InputReuse::Broadcast,
                 .psums = WindowKind::WriteThrough};
    return true;
}

bool
Wst::scheduleModel(const ConvSpec &spec, ScheduleModel &model) const
{
    model = wstModel(unroll_, spec);
    return true;
}

} // namespace sim
} // namespace ganacc
