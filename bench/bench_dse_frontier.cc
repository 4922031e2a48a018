/**
 * @file
 * Design-space frontier: throughput vs W-bank width under the VCU9P's
 * resource budget and the DDR4 bandwidth law — the sweep whose
 * feasible optimum is the paper's configuration (30 ZFWST + 75 ZFOST
 * channels). Demonstrates which constraint binds where: DRAM cuts the
 * frontier at eq. (7)'s W_Pof = 30; the DSP/LUT budget would not bind
 * until far later.
 *
 * Also exercises the parallel sweep engine: the frontier is evaluated
 * serially and on --jobs workers from a cold cycle cache, the results
 * are checked bit-identical, and the wall-clock speedup is printed.
 */

#include <chrono>
#include <iostream>

#include "bench/bench_common.hh"
#include "core/cycle_cache.hh"
#include "core/dse.hh"
#include "gan/models.hh"
#include "sim/closed_form.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace {

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

bool
identical(const std::vector<ganacc::core::DsePoint> &a,
          const std::vector<ganacc::core::DsePoint> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].wPof != b[i].wPof || a[i].stPof != b[i].stPof ||
            a[i].totalPes != b[i].totalPes ||
            a[i].iterationCycles != b[i].iterationCycles ||
            a[i].samplesPerSecond != b[i].samplesPerSecond ||
            a[i].fitsDevice != b[i].fitsDevice ||
            a[i].bandwidthFeasible != b[i].bandwidthFeasible ||
            a[i].verifierRejected != b[i].verifierRejected ||
            a[i].scheduleRejected != b[i].scheduleRejected ||
            a[i].verifierCode != b[i].verifierCode)
            return false;
    return true;
}

} // namespace

int
main(int argc, char **argv)
try {
    using namespace ganacc;
    util::ArgParser args(argc, argv);
    const int jobs = args.getJobs();
    const int max_wpof = args.getInt(
        "max-wpof", 60, "widest W bank (channels) to sweep");
    const bool no_verify = args.getFlag(
        "no-verify", "skip the static verifier pre-filter");
    const std::string engine_name = args.getString(
        "engine", "auto",
        "sim engine for the sweeps: walk or auto (also GANACC_ENGINE)");
    bench::CacheScope cache_scope(args);
    if (args.helpRequested()) {
        args.usage(std::cout);
        return 0;
    }
    args.finish();
    if (auto engine = sim::simEngineFromName(engine_name))
        sim::setSimEngine(*engine);
    else
        util::fatal("--engine expects walk or auto, got '",
                    engine_name, "'");

    bench::banner("Design-space frontier (ZFOST-ZFWST on the VCU9P)",
                  "the feasible optimum is the paper's 30+75-channel "
                  "point; DRAM bandwidth is the binding constraint");

    core::DseConstraints cons;
    cons.budget = core::vcu9pBudget();
    cons.maxWPof = max_wpof;
    cons.verify = !no_verify;
    gan::GanModel dcgan = gan::makeDcgan();

    // Cold-cache timing of both sweep paths, then the parity check
    // the parallel engine promises.
    auto &cache = core::CycleCache::instance();
    cache.clear();
    auto t0 = std::chrono::steady_clock::now();
    auto serial_pts = core::sweepFrontier(cons, dcgan);
    auto t1 = std::chrono::steady_clock::now();
    cache.clear();
    auto t2 = std::chrono::steady_clock::now();
    auto pts = core::sweepFrontierParallel(cons, dcgan, jobs);
    auto t3 = std::chrono::steady_clock::now();
    const double serial_s = seconds(t0, t1);
    const double parallel_s = seconds(t2, t3);
    std::cout << "sweep timing: serial " << serial_s << " s, parallel "
              << parallel_s << " s on " << jobs << " jobs ("
              << serial_s / parallel_s << "x), results "
              << (identical(serial_pts, pts) ? "bit-identical"
                                             : "DIVERGED (bug!)")
              << ", cycle cache " << cache.size() << " entries, "
              << core::verifierRejectedCount(pts)
              << " points verifier-rejected ("
              << core::scheduleRejectedCount(pts)
              << " by the schedule analyzer)"
              << (cons.verify ? "" : " (pre-filter off)") << "\n\n";

    util::Table t({"W_Pof", "ST_Pof", "PEs", "samples/s", "DSP",
                   "BRAM", "fits", "bandwidth ok"});
    for (const auto &p : pts) {
        if (p.wPof % 5 != 0 && p.wPof != 1 && p.wPof != 29 &&
            p.wPof != 31)
            continue; // print a readable subset
        t.addRow(p.wPof, p.stPof, p.totalPes, p.samplesPerSecond,
                 p.resources.dsp, p.resources.bram36,
                 p.fitsDevice ? "yes" : "NO",
                 p.bandwidthFeasible ? "yes" : "NO");
    }
    t.print(std::cout);

    auto best = core::bestFeasible(pts);
    if (best)
        std::cout << "\nOptimizer's pick: W_Pof=" << best->wPof
                  << ", ST_Pof=" << best->stPof << " ("
                  << best->totalPes << " PEs, "
                  << best->samplesPerSecond
                  << " DCGAN samples/s) — the paper's design point.\n";

    // Fast-path speedup row: the identical cold-cache serial sweep
    // under both engines, parity-checked (docs/fast_path.md).
    {
        cache.clear();
        auto w0 = std::chrono::steady_clock::now();
        std::vector<core::DsePoint> walk_pts;
        {
            sim::ScopedSimEngine eng(sim::SimEngine::Walk);
            walk_pts = core::sweepFrontier(cons, dcgan);
        }
        auto w1 = std::chrono::steady_clock::now();
        cache.clear();
        auto f0 = std::chrono::steady_clock::now();
        std::vector<core::DsePoint> fast_pts;
        {
            sim::ScopedSimEngine eng(sim::SimEngine::Auto);
            fast_pts = core::sweepFrontier(cons, dcgan);
        }
        auto f1 = std::chrono::steady_clock::now();
        const double walk_s = seconds(w0, w1);
        const double fast_s = seconds(f0, f1);
        std::cout << "\nengine timing (serial, cold cache): walk "
                  << walk_s << " s, fast " << fast_s << " s ("
                  << walk_s / fast_s << "x), results "
                  << (identical(walk_pts, fast_pts)
                          ? "bit-identical"
                          : "DIVERGED (bug!)")
                  << "\n";
    }

    // What a bigger memory system would buy.
    std::cout << "\nIf the DRAM doubled (384 Gbps):\n";
    cons.offchip.bandwidthBitsPerSec = 384e9;
    auto pts2 = core::sweepFrontierParallel(cons, dcgan, jobs);
    auto best2 = core::bestFeasible(pts2);
    if (best2)
        std::cout << "  optimum moves to W_Pof=" << best2->wPof
                  << " (" << best2->totalPes << " PEs, "
                  << best2->samplesPerSecond << " samples/s, "
                  << best2->samplesPerSecond /
                         (best ? best->samplesPerSecond : 1.0)
                  << "x)\n";
    return 0;
} catch (const ganacc::util::FatalError &e) {
    std::cerr << "bench_dse_frontier: " << e.what() << "\n";
    return 2;
}
