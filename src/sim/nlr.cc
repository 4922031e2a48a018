/**
 * @file
 * Improved-NLR cycle-level model.
 */

#include "sim/nlr.hh"

#include "sim/closed_form.hh"
#include "sim/walker.hh"

namespace ganacc {
namespace sim {

bool
Nlr::dataflow(const ConvSpec &, Dataflow &d) const
{
    // P_if x P_of lanes: each output position and tap in turn, its
    // input maps pIf a cycle through the adder tree, weights and
    // inputs read every cycle, partial sums read-modify-written in the
    // buffer. Address-generation zero skipping never schedules a
    // structural-zero tap (improved NLR); the vanilla dataflow burns
    // its cycles.
    d = Dataflow{.pOf = unroll_.pOf,
                 .tiled = Space::Outputs,
                 .tileOnLanes = false,
                 .cLanes = unroll_.pIf,
                 .walked = Space::Taps,
                 .skipZeros = policy_ == ZeroPolicy::Skip,
                 .weights = WeightReuse::PerCycle,
                 .inputs = InputReuse::Broadcast,
                 .psums = WindowKind::WriteThrough};
    return true;
}

bool
Nlr::scheduleModel(const ConvSpec &spec, ScheduleModel &model) const
{
    model = nlrModel(unroll_, spec, policy_ == ZeroPolicy::Skip);
    return true;
}

} // namespace sim
} // namespace ganacc
