/**
 * @file
 * The command-line front door: evaluate any of the paper's networks
 * on an arbitrary accelerator configuration and print the full report
 * — sizing, per-phase timing, resources, event-driven steady state
 * and an ASCII Gantt of the two banks and the DRAM gradient channel.
 *
 *   ganacc_report --model dcgan --gbps 192 --samples 8 --gantt
 */

#include <fstream>
#include <iostream>

#include "core/accelerator.hh"
#include "core/unrolling.hh"
#include "gan/models.hh"
#include "sched/design.hh"
#include "sched/event_sim.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
try {
    using namespace ganacc;
    util::ArgParser args(argc, argv);
    std::string model_name = args.getString(
        "model", "dcgan",
        "network: dcgan | mnist-gan | cgan | context-encoder");
    double gbps = args.getDouble("gbps", 192.0,
                                 "off-chip bandwidth in Gbit/s");
    double mhz = args.getDouble("mhz", 200.0, "PE clock in MHz");
    int samples = args.getInt(
        "samples", 8, "samples in flight for the event simulation");
    bool gantt = args.getFlag("gantt", "print the ASCII schedule");
    std::string trace_path = args.getString(
        "trace", "",
        "write a chrome://tracing JSON of the D-update schedule here");
    if (args.helpRequested()) {
        args.usage(std::cout);
        return 0;
    }
    args.finish();

    const gan::GanModel model = gan::modelByName(model_name);

    core::AcceleratorConfig cfg;
    cfg.offchip.bandwidthBitsPerSec = gbps * 1e9;
    cfg.offchip.frequencyHz = mhz * 1e6;
    core::GanAccelerator acc(cfg);

    std::cout << "=== " << model.name << " on " << acc.stPof()
              << "xZFOST + " << acc.wPof() << "xZFWST ("
              << acc.totalPes() << " PEs, " << gbps << " Gbps, " << mhz
              << " MHz) ===\n\n";

    auto rep = acc.evaluate(model);
    util::Table t({"metric", "value"});
    t.addRow("iteration cycles (deferred)",
             rep.iterationCyclesDeferred);
    t.addRow("iteration cycles (synchronized)",
             rep.iterationCyclesSync);
    t.addRow("samples/second", rep.samplesPerSecond);
    t.addRow("effective GOPS", rep.gopsDeferred);
    t.addRow("ST-bank utilization",
             rep.discUpdate.stStats.utilization());
    t.addRow("W-bank utilization",
             rep.discUpdate.wStats.utilization());
    t.addRow("LUTs", rep.resources.luts);
    t.addRow("BRAM36", rep.resources.bram36);
    t.addRow("DSP", rep.resources.dsp);
    t.addRow("fits XCVU9P", rep.fitsDevice ? "yes" : "NO");
    t.print(std::cout);

    // Event-driven refinement.
    auto design = acc.design();
    for (auto kind : {sched::UpdateKind::Discriminator,
                      sched::UpdateKind::Generator}) {
        auto dag = sched::buildUpdateDag(design, model, kind);
        auto trace =
            sched::simulateEvents(dag, samples, cfg.offchip);
        std::cout << "\n" << sched::updateKindName(kind)
                  << " (event-driven, " << samples
                  << " samples): " << trace.makespan / samples
                  << " cycles/sample steady-state; ST "
                  << int(100 * trace.stBusyFraction) << "% / W "
                  << int(100 * trace.wBusyFraction) << "% / DRAM "
                  << int(100 * trace.dramBusyFraction) << "% busy\n";
        if (gantt)
            std::cout << sched::renderGantt(dag, trace, samples)
                      << "\n";
        if (!trace_path.empty() &&
            kind == sched::UpdateKind::Discriminator) {
            std::ofstream os(trace_path);
            if (!os)
                util::fatal("cannot write '", trace_path, "'");
            sched::writeChromeTrace(dag, trace, samples, os);
            std::cout << "wrote " << trace_path
                      << " (open in chrome://tracing)\n";
        }
    }
    return 0;
} catch (const ganacc::util::FatalError &e) {
    std::cerr << "ganacc_report: " << e.what() << "\n";
    return 2;
}
