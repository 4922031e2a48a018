/**
 * @file
 * Fig. 17 reproduction: overall performance of the five design points
 * (unique OST / ZFWST / ZFOST and the NLR-OST / ZFOST-ZFWST
 * combinations, all with 1680 PEs) on discriminator and generator
 * updates, with and without deferred synchronization. Also prints the
 * Fig. 9-vs-10 pipeline-utilization ablation.
 */

#include <iostream>
#include <vector>

#include "bench/bench_common.hh"
#include "core/unrolling.hh"
#include "gan/models.hh"
#include "sched/design.hh"
#include "sched/pipeline.hh"
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

    bench::banner(
        "Fig. 17 — overall performance (1680 PEs)",
        "sync: unique ZFOST beats the combos; deferred sync makes "
        "ZFOST-ZFWST best (average ~4.3x over the traditional "
        "baseline)");

    const Design designs[] = {
        Design::unique(ArchKind::OST, 1680),
        Design::unique(ArchKind::ZFWST, 1680),
        Design::unique(ArchKind::ZFOST, 1680),
        Design::combo(ArchKind::NLR, ArchKind::OST, 1680),
        Design::combo(ArchKind::ZFOST, ArchKind::ZFWST, 1680),
    };

    double total_speedup = 0.0;
    for (const auto &m : gan::allModels()) {
        std::cout << "\n" << m.name
                  << " (speedup normalized to NLR-OST under the "
                     "original synchronized algorithm)\n";
        double base = double(sched::iterationCycles(
            designs[3], m, SyncPolicy::Synchronized));
        double base_d = double(
            sched::discriminatorUpdateTiming(designs[3], m)
                .syncCycles);
        double base_g = double(
            sched::generatorUpdateTiming(designs[3], m).syncCycles);
        util::Table t({"design", "D-upd sync", "D-upd deferred",
                       "G-upd sync", "G-upd deferred", "iter sync",
                       "iter deferred"});
        // The five design evaluations are independent; map them in
        // parallel and print rows in design order.
        std::vector<const Design *> items;
        for (const Design &d : designs)
            items.push_back(&d);
        struct Timings
        {
            sched::UpdateTiming du, gu;
        };
        auto timings = util::parallelMap(
            items,
            [&](const Design *d) {
                return Timings{
                    sched::discriminatorUpdateTiming(*d, m),
                    sched::generatorUpdateTiming(*d, m)};
            },
            jobs);
        for (std::size_t i = 0; i < items.size(); ++i) {
            const Design &d = *items[i];
            const auto &du = timings[i].du;
            const auto &gu = timings[i].gu;
            double iter_sync = base / double(du.syncCycles +
                                             gu.syncCycles);
            double iter_def = base / double(du.deferredCycles +
                                            gu.deferredCycles);
            t.addRow(d.name(), base_d / double(du.syncCycles),
                     base_d / double(du.deferredCycles),
                     base_g / double(gu.syncCycles),
                     base_g / double(gu.deferredCycles), iter_sync,
                     iter_def);
            if (d.name() == "ZFOST-ZFWST")
                total_speedup += iter_def;
        }
        t.print(std::cout);
    }
    std::cout << "\nZFOST-ZFWST (deferred) average speedup over "
                 "NLR-OST (sync): "
              << total_speedup / 3.0 << "x  (paper: ~4.3x)\n";

    std::cout << "\nAblation — per-phase pipeline (Fig. 9) vs "
                 "time-multiplexed (Fig. 10) utilization:\n";
    util::Table p({"update", "organization", "T/ST-ARCH", "S-ARCH",
                   "W-ARCH"});
    for (auto k : {sched::UpdateKind::Discriminator,
                   sched::UpdateKind::Generator}) {
        auto pipe = sched::perPhasePipeline(k);
        p.addRow(sched::updateKindName(k), "per-phase pipeline",
                 pipe.utilizationOf("T-ARCH"),
                 pipe.utilizationOf("S-ARCH"),
                 pipe.utilizationOf("W-ARCH"));
        auto mux = sched::timeMultiplexed(k, 0.4);
        p.addRow(sched::updateKindName(k), "time-multiplexed",
                 mux.utilizationOf("ST-ARCH"), std::string("(merged)"),
                 mux.utilizationOf("W-ARCH"));
    }
    p.print(std::cout);
    return 0;
} catch (const ganacc::util::FatalError &e) {
    std::cerr << "bench_fig17_overall: " << e.what() << "\n";
    return 2;
}
