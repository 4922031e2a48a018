/**
 * @file
 * ZFWST cycle-level model.
 */

#include "core/zfwst.hh"

#include "sim/closed_form.hh"
#include "sim/walker.hh"

namespace ganacc {
namespace core {

bool
Zfwst::dataflow(const sim::ConvSpec &, sim::Dataflow &d) const
{
    // Per parity class, its effective taps resident in runs of
    // pKy * pKx; each cycle one output neuron per channel through the
    // adder tree, with a column shift of the register window, into the
    // ping-pong partial-result buffer.
    d = sim::Dataflow{.pOf = unroll_.pOf,
                      .tiled = sim::Space::Taps,
                      .tileY = unroll_.pKy,
                      .tileX = unroll_.pKx,
                      .flat = true,
                      .walked = sim::Space::Outputs,
                      .zeroFree = true,
                      .weights = sim::WeightReuse::Resident,
                      .inputs = sim::InputReuse::Shift,
                      .psums = sim::WindowKind::AccumBuffer};
    return true;
}

bool
Zfwst::scheduleModel(const sim::ConvSpec &spec,
                     sim::ScheduleModel &model) const
{
    model = sim::zfwstModel(unroll_, spec);
    return true;
}

} // namespace core
} // namespace ganacc
