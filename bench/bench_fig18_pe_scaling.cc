/**
 * @file
 * Fig. 18 reproduction: performance of the top three designs
 * (NLR-OST, unique ZFOST, ZFOST-ZFWST) as the PE count sweeps, under
 * deferred synchronization. The paper's headline: ZFOST-ZFWST with
 * 512 PEs roughly matches the other two with 1024 PEs.
 */

#include <iostream>
#include <vector>

#include "bench/bench_common.hh"
#include "core/unrolling.hh"
#include "gan/models.hh"
#include "sched/design.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

int
main(int argc, char **argv)
try {
    using namespace ganacc;
    using core::ArchKind;
    using sched::Design;
    using sched::SyncPolicy;

    util::ArgParser args(argc, argv);
    const int jobs = args.getJobs();
    bench::CacheScope cache(args);
    if (args.helpRequested()) {
        args.usage(std::cout);
        return 0;
    }
    args.finish();

    bench::banner("Fig. 18 — performance vs PE count",
                  "ZFOST-ZFWST best at every size; with 512 PEs it "
                  "matches NLR-OST and ZFOST at 1024 PEs");

    const std::vector<int> pe_counts = {256, 512, 1024, 1680, 2048};

    for (const auto &m : gan::allModels()) {
        std::cout << "\n" << m.name
                  << " (iterations/sec at 200 MHz, deferred sync)\n";
        util::Table t({"PEs", "NLR-OST", "ZFOST", "ZFOST-ZFWST",
                       "ZF advantage"});
        // Each PE count is an independent three-design evaluation:
        // sweep them on the worker pool, print rows in size order.
        struct Rates
        {
            double nlrOst = 0, zfost = 0, zz = 0;
        };
        auto rows = util::parallelMap(
            pe_counts,
            [&](int pes) {
                auto rate = [&](const Design &d) {
                    return 200e6 /
                           double(sched::iterationCycles(
                               d, m, SyncPolicy::Deferred));
                };
                Rates r;
                r.nlrOst = rate(
                    Design::combo(ArchKind::NLR, ArchKind::OST, pes));
                r.zfost = rate(Design::unique(ArchKind::ZFOST, pes));
                r.zz = rate(Design::combo(ArchKind::ZFOST,
                                          ArchKind::ZFWST, pes));
                return r;
            },
            jobs);
        for (std::size_t i = 0; i < pe_counts.size(); ++i)
            t.addRow(pe_counts[i], rows[i].nlrOst, rows[i].zfost,
                     rows[i].zz,
                     rows[i].zz /
                         std::max(rows[i].nlrOst, rows[i].zfost));
        t.print(std::cout);
    }

    // The crossover claim, spelled out.
    gan::GanModel dcgan = gan::makeDcgan();
    auto cycles = [&](const Design &d) {
        return sched::iterationCycles(d, dcgan, SyncPolicy::Deferred);
    };
    std::cout << "\nCrossover check (DCGAN iteration cycles): "
              << "ZFOST-ZFWST@512 = "
              << cycles(Design::combo(ArchKind::ZFOST, ArchKind::ZFWST,
                                      512))
              << ", NLR-OST@1024 = "
              << cycles(Design::combo(ArchKind::NLR, ArchKind::OST,
                                      1024))
              << ", ZFOST@1024 = "
              << cycles(Design::unique(ArchKind::ZFOST, 1024)) << "\n";
    return 0;
} catch (const ganacc::util::FatalError &e) {
    std::cerr << "bench_fig18_pe_scaling: " << e.what() << "\n";
    return 2;
}
