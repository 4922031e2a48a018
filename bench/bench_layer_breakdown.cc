/**
 * @file
 * Per-layer anatomy of the accelerator's work: for each network,
 * every (phase, layer) job's cycles, utilization and access counts on
 * the bank that owns it — the table an architect reads to find which
 * layer binds and why. Shows the characteristic GAN shape: the first
 * discriminator layer is access-heavy but MAC-light, the middle
 * layers dominate cycles, the tiny head underutilizes everything.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "core/unrolling.hh"
#include "gan/models.hh"
#include "sim/phase.hh"
#include "util/table.hh"

int
main()
{
    using namespace ganacc;
    bench::banner("Per-layer breakdown on the ZFOST-ZFWST design",
                  "middle layers dominate cycles; the scalar head "
                  "underutilizes the array; W-CONV layers ride the "
                  "ZFWST bank");

    for (const auto &m : gan::allModels()) {
        std::cout << "\n===== " << m.name << " =====\n";
        for (sim::Phase p : sim::allPhases()) {
            auto fam = sim::familyOf(p);
            const core::BankRole role = core::bankOf(fam);
            core::ArchKind kind = role == core::BankRole::W
                                      ? core::ArchKind::ZFWST
                                      : core::ArchKind::ZFOST;
            const int pes = core::paperPes(role);
            auto arch = core::makeArch(
                kind, core::paperUnroll(kind, role, fam, pes));
            auto jobs = sim::phaseJobs(m, p);

            std::cout << "\n" << sim::phaseName(p) << " on "
                      << core::archKindName(kind) << " (" << pes
                      << " PEs):\n";
            util::Table t({"job", "cycles", "util %", "eff MMACs",
                           "accesses (k)", "cyc share %"});
            std::uint64_t total = 0;
            std::vector<sim::RunStats> stats;
            for (const auto &j : jobs) {
                stats.push_back(arch->run(j));
                total += stats.back().cycles;
            }
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                const auto &st = stats[i];
                t.addRow(jobs[i].label, st.cycles,
                         100.0 * st.utilization(),
                         double(st.effectiveMacs) / 1e6,
                         double(st.totalAccesses()) / 1e3,
                         100.0 * double(st.cycles) / double(total));
            }
            t.print(std::cout);
        }
    }
    return 0;
}
