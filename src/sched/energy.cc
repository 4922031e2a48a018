/**
 * @file
 * Energy accounting implementation.
 */

#include "sched/energy.hh"

#include <utility>
#include <vector>

#include "core/unrolling.hh"
#include "sim/phase.hh"
#include "util/logging.hh"

namespace ganacc {
namespace sched {

using core::BankRole;
using gan::GanModel;
using sim::Phase;

EnergyBreakdown &
EnergyBreakdown::operator+=(const EnergyBreakdown &o)
{
    computePj += o.computePj;
    onChipPj += o.onChipPj;
    dramPj += o.dramPj;
    idlePj += o.idlePj;
    return *this;
}

EnergyBreakdown
runEnergy(const sim::RunStats &stats, const EnergyCoefficients &c,
          std::uint64_t gated_slots)
{
    GANACC_ASSERT(gated_slots <= stats.ineffectualMacs,
                  "more gated slots than ineffectual slots");
    EnergyBreakdown e;
    const std::uint64_t executed =
        stats.effectiveMacs + stats.ineffectualMacs - gated_slots;
    e.computePj = double(executed) * (c.macPj + c.registerPj);
    e.onChipPj = double(stats.totalAccesses()) * c.sramPj;
    e.idlePj =
        double(stats.idlePeSlots + gated_slots) * c.idlePj;
    return e;
}

namespace {

/** On-chip stats of one phase pass on its bank (Table V unrolling). */
sim::RunStats
bankPhaseStats(const Design &design, const GanModel &model, Phase p)
{
    auto fam = sim::familyOf(p);
    BankRole role = core::bankOf(fam);
    core::ArchKind kind =
        role == BankRole::W ? design.wKind() : design.stKind();
    int pes = role == BankRole::W ? design.wPes() : design.stPes();
    auto arch =
        core::makeArch(kind, core::paperUnroll(kind, role, fam, pes));
    sim::RunStats total;
    for (const auto &job : sim::phaseJobs(model, p))
        total += arch->run(job);
    return total;
}

/** Off-chip 16-bit words moved by one pass of a phase. */
std::uint64_t
phaseDramWords(const GanModel &model, Phase p)
{
    auto weights_of = [](const std::vector<gan::LayerSpec> &layers) {
        std::uint64_t w = 0;
        for (const auto &l : layers)
            w += l.numWeights();
        return w;
    };
    switch (p) {
      case Phase::GenForward:
      case Phase::GenBackward:
        return weights_of(model.gen); // single fetch per pass
      case Phase::DiscForward:
      case Phase::DiscBackward:
        return weights_of(model.disc);
      case Phase::DiscWeight:
        return 2 * weights_of(model.disc); // ∇W read + write stream
      case Phase::GenWeight:
        return 2 * weights_of(model.gen);
    }
    util::panic("unknown phase");
}

} // namespace

EnergyBreakdown
iterationEnergy(const Design &design, const GanModel &model,
                const EnergyCoefficients &c)
{
    // Phase multiplicities of one iteration (Fig. 8: D update then G
    // update).
    const std::pair<Phase, int> passes[] = {
        {Phase::GenForward, 2},  {Phase::DiscForward, 3},
        {Phase::DiscBackward, 3}, {Phase::GenBackward, 1},
        {Phase::DiscWeight, 2},  {Phase::GenWeight, 1},
    };
    EnergyBreakdown total;
    for (auto [phase, count] : passes) {
        sim::RunStats st = bankPhaseStats(design, model, phase);
        EnergyBreakdown e = runEnergy(st, c);
        e.dramPj = double(phaseDramWords(model, phase)) * c.dramPj;
        for (int i = 0; i < count; ++i)
            total += e;
    }
    return total;
}

double
impliedWatts(const EnergyBreakdown &e, double iterations_per_sec)
{
    GANACC_ASSERT(iterations_per_sec > 0, "need a positive rate");
    return e.totalPj() * 1e-12 * iterations_per_sec;
}

} // namespace sched
} // namespace ganacc
