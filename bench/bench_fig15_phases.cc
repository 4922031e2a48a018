/**
 * @file
 * Fig. 15 reproduction: processing-throughput comparison of NLR, WST,
 * OST, ZFOST and ZFWST on the four computing-phase families
 * (D: D→/G←, G: G→/D←, Dw, Gw) for all three networks, normalized to
 * the improved (zero-skipping) NLR exactly as the paper plots it.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "core/cycle_cache.hh"
#include "core/unrolling.hh"
#include "gan/models.hh"
#include "sim/phase.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
try {
    using namespace ganacc;
    util::ArgParser args(argc, argv);
    bench::CacheScope cache(args);
    if (args.helpRequested()) {
        args.usage(std::cout);
        return 0;
    }
    args.finish();
    bench::banner(
        "Fig. 15 — performance on the four computing phases",
        "ZFOST/ZFWST yield the optimal performance among all phases; "
        "OST loses ~4x on zero-inserted phases; WST obeys eq. (5)");

    for (const auto &m : gan::allModels()) {
        std::cout << "\n" << m.name
                  << " (speedup normalized to improved NLR; ST phases "
                     "on 1200 PEs, W phases on 480)\n";
        util::Table t({"phase", "NLR", "WST", "OST", "ZFOST", "ZFWST",
                       "best"});
        for (sim::PhaseFamily f : sim::allPhaseFamilies()) {
            const core::BankRole role = core::bankOf(f);
            const int pes = core::paperPes(role);
            auto jobs = sim::familyJobs(m, f);

            std::uint64_t nlr_cycles = 0;
            std::vector<double> speedups;
            std::string best_name;
            double best = 0.0;
            for (core::ArchKind kind : core::allArchKinds()) {
                const sim::Unroll u =
                    core::paperUnroll(kind, role, f, pes);
                std::uint64_t cycles = 0;
                for (const auto &j : jobs)
                    cycles += core::cachedRun(kind, u, j).cycles;
                if (kind == core::ArchKind::NLR)
                    nlr_cycles = cycles;
                double speedup = double(nlr_cycles) / double(cycles);
                speedups.push_back(speedup);
                if (speedup > best) {
                    best = speedup;
                    best_name = core::archKindName(kind);
                }
            }
            t.addRow(sim::phaseFamilyName(f), speedups[0], speedups[1],
                     speedups[2], speedups[3], speedups[4], best_name);
        }
        t.print(std::cout);
    }
    std::cout << "\nExpected shape: D — NLR/OST/ZFOST comparable, WST "
                 "~0.2-0.3; G — ZFOST >= NLR >> OST (~4x); Dw/Gw — "
                 "ZFOST/ZFWST far ahead, NLR crippled by its idle "
                 "adder tree.\n";
    return 0;
} catch (const ganacc::util::FatalError &e) {
    std::cerr << "bench_fig15_phases: " << e.what() << "\n";
    return 2;
}
