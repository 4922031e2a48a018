/**
 * @file
 * Closed-form performance bounds — the checker face of the schedule
 * models in sim/closed_form: the one architecture-to-model dispatch
 * and the GA-BOUNDS-DIVERGE counter-by-counter cross-check.
 */

#include "verify/static_bounds.hh"

#include <sstream>

#include "util/logging.hh"

namespace ganacc {
namespace verify {

using core::ArchKind;
using sim::ConvSpec;
using sim::RunStats;
using sim::Unroll;

sim::ScheduleModel
staticModel(const sim::Architecture &arch, const ConvSpec &spec)
{
    spec.validate();
    sim::ScheduleModel model;
    const bool modeled = arch.scheduleModel(spec, model);
    GANACC_ASSERT(modeled, arch.name(), " has no symbolic schedule model");
    return model;
}

RunStats
staticRunStats(ArchKind kind, const Unroll &unroll, const ConvSpec &spec)
{
    return staticModel(*core::makeArch(kind, unroll), spec).stats;
}

bool
checkBoundsAgainstSim(ArchKind kind, const Unroll &unroll,
                      const ConvSpec &spec, const RunStats &simulated,
                      Report &report)
{
    RunStats expect = staticRunStats(kind, unroll, spec);
    const std::string where =
        core::archKindName(kind) + " " + spec.label;
    bool agree = true;
    auto check = [&](const char *name, std::uint64_t stat,
                     std::uint64_t simv) {
        if (stat == simv)
            return;
        agree = false;
        std::ostringstream os;
        os << name << ": closed form says " << stat
           << " but the cycle walk counted " << simv
           << " (one of the two derivations is buggy)";
        report.error(codes::kBoundsDiverge, where, os.str());
    };
    check("cycles", expect.cycles, simulated.cycles);
    check("nPes", expect.nPes, simulated.nPes);
    check("effectiveMacs", expect.effectiveMacs, simulated.effectiveMacs);
    check("ineffectualMacs", expect.ineffectualMacs,
          simulated.ineffectualMacs);
    check("idlePeSlots", expect.idlePeSlots, simulated.idlePeSlots);
    check("weightLoads", expect.weightLoads, simulated.weightLoads);
    check("inputLoads", expect.inputLoads, simulated.inputLoads);
    check("outputReads", expect.outputReads, simulated.outputReads);
    check("outputWrites", expect.outputWrites, simulated.outputWrites);
    return agree;
}

} // namespace verify
} // namespace ganacc
