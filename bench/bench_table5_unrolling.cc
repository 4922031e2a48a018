/**
 * @file
 * Table V reproduction: the unrolling strategy of every architecture
 * on both PE banks. Prints the paper's published entries next to the
 * choices of the exhaustive solver (which minimizes simulated cycles
 * over the evaluation networks' jobs), confirming the published
 * configurations are (near-)optimal under the model.
 */

#include <iostream>
#include <utility>
#include <vector>

#include "bench/bench_common.hh"
#include "core/unrolling.hh"
#include "gan/models.hh"
#include "sim/phase.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace {

using namespace ganacc;

std::string
unrollStr(core::ArchKind kind, const sim::Unroll &u)
{
    switch (kind) {
      case core::ArchKind::NLR:
        return "Pif=" + std::to_string(u.pIf) +
               ",Pof=" + std::to_string(u.pOf);
      case core::ArchKind::WST:
      case core::ArchKind::ZFWST:
        return "Pk=" + std::to_string(u.pKy) + "x" +
               std::to_string(u.pKx) + ",Pof=" + std::to_string(u.pOf);
      case core::ArchKind::OST:
      case core::ArchKind::ZFOST:
        return "Po=" + std::to_string(u.pOy) + "x" +
               std::to_string(u.pOx) + ",Pof=" + std::to_string(u.pOf);
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
try {
    using namespace ganacc;
    util::ArgParser args(argc, argv);
    const int jobs = args.getJobs();
    if (args.helpRequested()) {
        args.usage(std::cout);
        return 0;
    }
    args.finish();

    bench::banner("Table V — unrolling strategy",
                  "ST-ARCH (1200 PEs) e.g. OST Po=4x4 Pof=75; "
                  "W-ARCH (480 PEs) e.g. ZFWST Pk=4x4 Pof=30");

    // Probe jobs: the DCGAN families (the network Table V was sized
    // for; 5x5 kernels).
    gan::GanModel dcgan = gan::makeDcgan();

    // One work item per (bank row, architecture): the exhaustive
    // solver dominates the runtime, so the parallel map spreads the
    // 20 searches across the workers; results land by index and print
    // in the original deterministic order.
    struct Cell
    {
        std::string paperUnroll, solverUnroll;
        std::uint64_t paperCycles = 0, solverCycles = 0;
        int solverPes = 0;
    };
    const auto families = sim::allPhaseFamilies();
    const auto kinds = core::allArchKinds();
    std::vector<std::pair<sim::PhaseFamily, core::ArchKind>> work;
    for (sim::PhaseFamily family : families)
        for (core::ArchKind kind : kinds)
            work.emplace_back(family, kind);

    auto cells = util::parallelMap(
        work,
        [&](const std::pair<sim::PhaseFamily, core::ArchKind> &w) {
            const auto [family, kind] = w;
            const core::BankRole role = core::bankOf(family);
            const int pes = core::paperPes(role);
            auto probe = sim::familyJobs(dcgan, family);
            auto paper = core::paperUnroll(kind, role, family, pes);
            auto paper_arch = core::makeArch(kind, paper);
            Cell c;
            for (const auto &j : probe)
                c.paperCycles += paper_arch->run(j).cycles;
            auto solved = core::solveUnrolling(kind, pes, probe, 8);
            c.paperUnroll = unrollStr(kind, paper);
            c.solverUnroll = unrollStr(kind, solved.unroll);
            c.solverCycles = solved.cycles;
            c.solverPes = solved.pes;
            return c;
        },
        jobs);

    std::size_t idx = 0;
    for (sim::PhaseFamily family : families) {
        const core::BankRole role = core::bankOf(family);
        std::cout << "\nPhase family " << sim::phaseFamilyName(family)
                  << " on the " << core::bankRoleName(role) << " bank ("
                  << core::paperPes(role) << " PEs):\n";
        util::Table t({"arch", "paper unrolling", "paper cycles",
                       "solver unrolling", "solver cycles", "solver PEs"});
        for (core::ArchKind kind : kinds) {
            const Cell &c = cells[idx++];
            t.addRow(core::archKindName(kind), c.paperUnroll,
                     c.paperCycles, c.solverUnroll, c.solverCycles,
                     c.solverPes);
        }
        t.print(std::cout);
    }
    std::cout << "\n(Solver may shave cycles with workload-specific "
                 "shapes; the published entries must be within a few "
                 "percent.)\n";
    return 0;
} catch (const ganacc::util::FatalError &e) {
    std::cerr << "bench_table5_unrolling: " << e.what() << "\n";
    return 2;
}
