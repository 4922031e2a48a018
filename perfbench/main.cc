/**
 * @file
 * ganacc_perfbench: one run of one benchmark workload.
 *
 *   ganacc_perfbench --workload fault-campaign|serve-warm|serve-mixed
 *                    --seed N --seconds S --trace 0|1 --scratch DIR
 *
 * Prints, as the last line of stdout,
 * {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. Exits 1
 * when any output check failed, 2 on a usage error. perfbench/run.py
 * builds this binary and is the command to use.
 */

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hh"

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "ganacc_perfbench: " << why
              << "\nusage: ganacc_perfbench --workload "
                 "fault-campaign|serve-warm|serve-mixed --seed N "
                 "--seconds S --trace 0|1 --scratch DIR\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
try {
    perfbench::RunConfig cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            cfg.workload = value;
        else if (flag == "--seed")
            cfg.seed = std::stoull(value);
        else if (flag == "--seconds")
            cfg.seconds = std::stod(value);
        else if (flag == "--trace")
            cfg.trace = value == "1";
        else if (flag == "--scratch")
            cfg.scratch = value;
        else
            usage("unknown flag " + flag);
    }
    if (cfg.scratch.empty())
        usage("--scratch is required");
    if (!(cfg.seconds > 0.0))
        usage("--seconds must be positive");
    std::filesystem::create_directories(cfg.scratch);

    perfbench::Report report;
    if (cfg.workload == "fault-campaign")
        perfbench::runFaultCampaign(cfg, report);
    else if (cfg.workload == "serve-warm")
        perfbench::runServe(cfg, false, report);
    else if (cfg.workload == "serve-mixed")
        perfbench::runServe(cfg, true, report);
    else
        usage("unknown workload '" + cfg.workload + "'");
    if (cfg.trace)
        report.set("error_rate", report.errorRate(), "ratio");

    std::cerr << "perfbench: " << cfg.workload << " seed " << cfg.seed
              << (cfg.trace ? " traced" : "") << ": " << report.attempted()
              << " checked, " << report.failed() << " failed\n";
    report.printJson(std::cout);
    return report.failed() == 0 ? 0 : 1;
} catch (const std::exception &e) {
    std::cerr << "ganacc_perfbench: " << e.what() << "\n";
    return 2;
}
