/**
 * @file
 * Design-space exploration with the public API: sweep off-chip
 * bandwidth and PE budget, derive each point's unrolling (eqs. 7-8 or
 * the exhaustive solver), check it against the FPGA's resources, and
 * report the throughput/resource frontier — the workflow an architect
 * would actually use this library for. Every sweep below runs on the
 * parallel sweep engine (--jobs N, or the GANACC_JOBS environment
 * variable) with results in deterministic point order.
 */

#include <iostream>
#include <vector>

#include "core/accelerator.hh"
#include "core/cycle_cache.hh"
#include "core/dse.hh"
#include "core/resource_model.hh"
#include "core/unrolling.hh"
#include "gan/models.hh"
#include "sched/design.hh"
#include "serve/result_store.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

int
main(int argc, char **argv)
try {
    using namespace ganacc;
    util::ArgParser args(argc, argv);
    const int jobs = args.getJobs();
    const bool no_verify = args.getFlag(
        "no-verify",
        "skip the static verifier pre-filter on frontier sweeps");
    // A warm --cache-dir/GANACC_CACHE_DIR result store turns repeat
    // explorations into disk reads; the summary at the end shows
    // which tier served this run.
    serve::ScopedDiskCache disk_cache(args.getCacheDir());
    if (args.helpRequested()) {
        args.usage(std::cout);
        return 0;
    }
    args.finish();
    gan::GanModel dcgan = gan::makeDcgan();

    // 1. Bandwidth sweep: eq. (7) couples DRAM bandwidth to the
    //    sustainable W-bank width, which sizes the whole design.
    std::cout << "Bandwidth-driven sizing (DCGAN, 200 MHz, " << jobs
              << " jobs):\n";
    util::Table bw({"DRAM Gbps", "W_Pof", "ST_Pof", "PEs", "GOPS",
                    "samples/s", "fits VCU9P"});
    const std::vector<double> gbps_points = {48.0, 96.0, 192.0, 384.0};
    struct BwRow
    {
        int wPof = 0, stPof = 0, pes = 0;
        core::AcceleratorReport rep;
    };
    auto bw_rows = util::parallelMap(
        gbps_points,
        [&](double gbps) {
            core::AcceleratorConfig cfg;
            cfg.offchip.bandwidthBitsPerSec = gbps * 1e9;
            core::GanAccelerator acc(cfg);
            return BwRow{acc.wPof(), acc.stPof(), acc.totalPes(),
                         acc.evaluate(dcgan)};
        },
        jobs);
    for (std::size_t i = 0; i < gbps_points.size(); ++i)
        bw.addRow(gbps_points[i], bw_rows[i].wPof, bw_rows[i].stPof,
                  bw_rows[i].pes, bw_rows[i].rep.gopsDeferred,
                  bw_rows[i].rep.samplesPerSecond,
                  bw_rows[i].rep.fitsDevice ? "yes" : "no");
    bw.print(std::cout);

    // 2. PE sweep at fixed bandwidth: where does the design stop
    //    scaling?
    std::cout << "\nPE scaling (ZFOST-ZFWST, deferred sync):\n";
    util::Table pe({"PEs", "iter cycles", "samples/s", "DSP", "LUTs",
                    "fits"});
    auto plan = mem::planBuffers(dcgan, 30, 2);
    const std::vector<int> pe_points = {256, 512, 1024, 1680, 2048,
                                        4096};
    struct PeRow
    {
        std::uint64_t cycles = 0;
        core::FpgaResources res;
    };
    auto pe_rows = util::parallelMap(
        pe_points,
        [&](int pes) {
            auto d = sched::Design::combo(core::ArchKind::ZFOST,
                                          core::ArchKind::ZFWST, pes);
            return PeRow{sched::iterationCycles(
                             d, dcgan, sched::SyncPolicy::Deferred),
                         core::estimateResources(pes, plan)};
        },
        jobs);
    for (std::size_t i = 0; i < pe_points.size(); ++i)
        pe.addRow(pe_points[i], pe_rows[i].cycles,
                  200e6 / double(pe_rows[i].cycles), pe_rows[i].res.dsp,
                  pe_rows[i].res.luts,
                  core::fits(pe_rows[i].res, core::vcu9pBudget())
                      ? "yes"
                      : "no");
    pe.print(std::cout);

    // 3. The full (W_Pof, ST_Pof) frontier through the parallel sweep
    //    engine — the optimizer's own view of the space.
    std::cout << "\nFrontier sweep (sweepFrontierParallel, "
              << jobs << " jobs):\n";
    core::DseConstraints cons;
    cons.budget = core::vcu9pBudget();
    cons.maxWPof = 45;
    cons.verify = !no_verify;
    auto pts = core::sweepFrontierParallel(cons, dcgan, jobs);
    auto best = core::bestFeasible(pts);
    if (best)
        std::cout << "  " << pts.size() << " points evaluated ("
                  << core::verifierRejectedCount(pts)
                  << " rejected by the verifier, "
                  << core::scheduleRejectedCount(pts)
                  << " of those by the schedule analyzer"
                  << (cons.verify ? "" : ", pre-filter off")
                  << "); best feasible: W_Pof=" << best->wPof
                  << ", ST_Pof=" << best->stPof << " (" << best->totalPes
                  << " PEs, " << best->samplesPerSecond
                  << " samples/s)\n";

    // 4. Let the solver re-derive the ST-bank unrolling for each
    //    network — Table V, but computed rather than copied.
    std::cout << "\nSolver-derived ZFOST unrollings (1200 PEs, "
                 "T-CONV family):\n";
    util::Table sv({"network", "Po", "Pof", "cycles"});
    const auto models = gan::allModels();
    auto choices = util::parallelMap(
        models,
        [&](const gan::GanModel &m) {
            auto probe = sim::familyJobs(m, sim::PhaseFamily::G);
            return core::solveUnrolling(core::ArchKind::ZFOST, 1200,
                                        probe, 8);
        },
        jobs);
    for (std::size_t i = 0; i < models.size(); ++i)
        sv.addRow(models[i].name,
                  std::to_string(choices[i].unroll.pOy) + "x" +
                      std::to_string(choices[i].unroll.pOx),
                  choices[i].unroll.pOf, choices[i].cycles);
    sv.print(std::cout);

    std::cout << "\n[" << core::CycleCache::instance().summary();
    if (disk_cache.attached())
        std::cout << "; " << disk_cache.store()->summary();
    std::cout << "]\n";
    return 0;
} catch (const ganacc::util::FatalError &e) {
    std::cerr << "design_space: " << e.what() << "\n";
    return 2;
}
