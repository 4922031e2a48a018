/**
 * @file
 * Fig. 16 reproduction: on-chip data-access breakdown (kernel-weight
 * loads, input-neuron loads, output-neuron reads/writes) for DCGAN on
 * every architecture and phase family. The paper uses this to break
 * the NLR-vs-ZFOST tie on the G phases: equal throughput, but ZFOST's
 * register-array reuse needs far fewer buffer accesses.
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
    bench::banner("Fig. 16 — on-chip data accesses (DCGAN)",
                  "ZFOST/ZFWST have the lowest access counts; NLR "
                  "streams every operand every cycle");

    gan::GanModel m = gan::makeDcgan();
    for (sim::PhaseFamily f : sim::allPhaseFamilies()) {
        const core::BankRole role = core::bankOf(f);
        const int pes = core::paperPes(role);
        auto jobs = sim::familyJobs(m, f);
        std::cout << "\nPhase family " << sim::phaseFamilyName(f)
                  << " (accesses in millions):\n";
        util::Table t({"arch", "weights", "inputs", "out reads",
                       "out writes", "total", "vs NLR"});
        double nlr_total = 0.0;
        for (core::ArchKind kind : core::allArchKinds()) {
            const sim::Unroll u = core::paperUnroll(kind, role, f, pes);
            sim::RunStats sum;
            for (const auto &j : jobs)
                sum += core::cachedRun(kind, u, j);
            double total = double(sum.totalAccesses());
            if (kind == core::ArchKind::NLR)
                nlr_total = total;
            auto mm = [](std::uint64_t v) { return double(v) / 1e6; };
            t.addRow(core::archKindName(kind), mm(sum.weightLoads),
                     mm(sum.inputLoads), mm(sum.outputReads),
                     mm(sum.outputWrites), total / 1e6,
                     total / nlr_total);
        }
        t.print(std::cout);
    }
    return 0;
} catch (const ganacc::util::FatalError &e) {
    std::cerr << "bench_fig16_accesses: " << e.what() << "\n";
    return 2;
}
