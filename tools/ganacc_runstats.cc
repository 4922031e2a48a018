/**
 * @file
 * ganacc-runstats — deterministic RunStats dump for every Table V
 * (architecture, unrolling) entry.
 *
 * For each phase-family row of Table V (D and G on the 1200-PE ST
 * bank, Dw and Gw on the 480-PE W bank) and each of the five
 * architectures, the tool instantiates the published unrolling, runs
 * every DCGAN job of the family timing-only, and emits the complete
 * per-job RunStats as one JSON object per line.
 *
 * The output is a pure function of the cycle walks: no RNG, no
 * threads, no floating point in the counters. tests/ byte-compares it
 * against tests/golden/runstats_table5.json so any silent drift in
 * cycle or access accounting — including from code that is supposed
 * to be inert, like the fault-injection hook with an empty plan —
 * fails CI.
 */

#include <iostream>
#include <string>

#include "core/unrolling.hh"
#include "gan/models.hh"
#include "sim/json.hh"
#include "sim/phase.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/strings.hh"

using namespace ganacc;

int
main(int argc, char **argv)
try {
    util::ArgParser args(argc, argv);
    const std::string model_name = args.getString(
        "model", "dcgan", "network whose jobs are simulated");
    if (args.helpRequested()) {
        args.usage(std::cout);
        return 0;
    }
    args.finish();

    const gan::GanModel model = gan::modelByName(model_name);
    for (sim::PhaseFamily family : sim::allPhaseFamilies()) {
        const core::BankRole role = core::bankOf(family);
        const auto jobs = sim::familyJobs(model, family);
        for (core::ArchKind kind : core::allArchKinds()) {
            sim::Unroll u = core::paperUnroll(kind, role, family,
                                              core::paperPes(role));
            auto arch = core::makeArch(kind, u);
            for (std::size_t j = 0; j < jobs.size(); ++j) {
                sim::RunStats st = arch->run(jobs[j]);
                std::cout << "{\"bank\":\"" << core::bankRoleName(role)
                          << "\",\"family\":\""
                          << sim::phaseFamilyName(family)
                          << "\",\"arch\":\"" << core::archKindName(kind)
                          << "\",\"unroll\":\""
                          << util::escapeJson(u.str()) << "\",\"job\":\""
                          << util::escapeJson(jobs[j].label)
                          << "\",\"stats\":" << sim::toJson(st)
                          << "}\n";
            }
        }
    }
    return 0;
} catch (const util::FatalError &e) {
    std::cerr << "ganacc-runstats: " << e.what() << "\n";
    return 2;
}
