/**
 * @file
 * ganacc-faultsim — fault-injection campaign runner.
 *
 * Sweeps one FaultPlan (from flags or --plan JSON) over the Table V
 * (phase-family x architecture) matrix and reports, per architecture:
 * the transient-upset masking rate, the output RMSE vs the fault-free
 * reference, and (when a storage flip probability is set) the
 * traffic-proportional memory-corruption RMSE. Optional extras: a
 * twin-trainer degradation run (--trainer-iters) and a saturation
 * stress cross-check against the static range analysis
 * (--stress-frac-bits).
 *
 * Fully deterministic for a fixed seed: re-running with any --jobs
 * value reproduces every byte of the output.
 */

#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "core/cycle_cache.hh"
#include "fault/campaign.hh"
#include "fault/fault_plan.hh"
#include "fault/mem_faults.hh"
#include "gan/models.hh"
#include "serve/result_store.hh"
#include "sim/phase.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/strings.hh"
#include "verify/diagnostics.hh"
#include "verify/range_analysis.hh"

namespace {

using namespace ganacc;

void
printText(const fault::CampaignResult &result, bool memory_active)
{
    std::cout << "cell results (rows x architectures):\n";
    std::cout << std::left << std::setw(8) << "row" << std::setw(10)
              << "arch" << std::right << std::setw(10) << "armed"
              << std::setw(10) << "fired" << std::setw(10) << "masked"
              << std::setw(12) << "mask-rate" << std::setw(14)
              << "output-rmse";
    if (memory_active)
        std::cout << std::setw(10) << "flips" << std::setw(12)
                  << "mem-rmse";
    std::cout << "\n";
    for (const auto &cell : result.cells) {
        std::cout << std::left << std::setw(8) << cell.row
                  << std::setw(10) << cell.arch << std::right
                  << std::setw(10) << cell.mac.armed << std::setw(10)
                  << cell.mac.fired << std::setw(10)
                  << cell.mac.masked() << std::setw(12) << std::fixed
                  << std::setprecision(4) << cell.mac.maskingRate()
                  << std::setw(14) << std::setprecision(6)
                  << cell.outputRmse;
        if (memory_active)
            std::cout << std::setw(10) << cell.memFlips << std::setw(12)
                      << std::setprecision(6) << cell.memRmse;
        std::cout << "\n";
    }
    std::cout << "\nper-architecture summary:\n";
    std::cout << std::left << std::setw(10) << "arch" << std::right
              << std::setw(10) << "armed" << std::setw(10) << "masked"
              << std::setw(12) << "mask-rate" << std::setw(14)
              << "output-rmse";
    if (memory_active)
        std::cout << std::setw(10) << "flips" << std::setw(12)
                  << "mem-rmse";
    std::cout << "\n";
    for (const auto &s : result.archs) {
        std::cout << std::left << std::setw(10) << s.arch << std::right
                  << std::setw(10) << s.armed << std::setw(10)
                  << (s.armed - s.fired) << std::setw(12) << std::fixed
                  << std::setprecision(4) << s.maskingRate
                  << std::setw(14) << std::setprecision(6)
                  << s.outputRmse;
        if (memory_active)
            std::cout << std::setw(10) << s.memFlips << std::setw(12)
                      << std::setprecision(6) << s.memRmse;
        std::cout << "\n";
    }
}

void
printJson(const fault::CampaignResult &result)
{
    for (const auto &cell : result.cells) {
        std::cout << "{\"row\":\"" << util::escapeJson(cell.row)
                  << "\",\"arch\":\"" << util::escapeJson(cell.arch)
                  << "\",\"armed\":" << cell.mac.armed
                  << ",\"fired\":" << cell.mac.fired
                  << ",\"masked\":" << cell.mac.masked()
                  << ",\"maskingRate\":" << cell.mac.maskingRate()
                  << ",\"outputRmse\":" << cell.outputRmse
                  << ",\"memFlips\":" << cell.memFlips
                  << ",\"memRmse\":" << cell.memRmse << "}\n";
    }
}

void
saturationCrossCheck(const gan::GanModel &model, int frac_bits)
{
    // Static prediction: the range analysis' worst peak names the
    // integer bits the writeback format must keep. Stressing a format
    // that keeps them must not clip the analysis' own peak value.
    verify::Report report;
    verify::RangeOptions opts;
    opts.fracBits = frac_bits;
    const verify::RangeAnalysis ranges =
        verify::analyzeRanges(model, opts, report);
    const int needed = verify::requiredIntBits(ranges.worstPeak);
    std::cout << "\nsaturation stress (forced Q" << (15 - frac_bits)
              << "." << frac_bits << " writeback):\n";
    std::cout << "  static worst peak " << ranges.worstPeak
              << " -> needs " << needed << " integer bits; format has "
              << (15 - frac_bits) << "\n";

    tensor::Tensor probe(1, 1, 1, 2);
    probe.data()[0] = float(ranges.worstPeak);
    probe.data()[1] = -float(ranges.worstPeak);
    fault::SaturationStress stress =
        fault::stressSaturation(probe, frac_bits);
    std::cout << "  stressing the peak value: " << stress.saturated
              << "/" << stress.total << " elements clipped, rmse "
              << stress.rmseVsFloat << "\n";
    const bool clipped = stress.saturated > 0;
    const bool predicted = needed == -1 || needed > 15 - frac_bits;
    std::cout << "  cross-check: static analysis "
              << (predicted ? "predicts" : "rules out")
              << " saturation, stress "
              << (clipped ? "observed" : "did not observe") << " it -> "
              << (clipped == predicted ? "CONSISTENT" : "MISMATCH")
              << "\n";
}

} // namespace

int
main(int argc, char **argv)
try {
    util::ArgParser args(argc, argv);
    const std::string model_name = args.getString(
        "model", "mnist-gan", "network whose jobs are fault-injected");
    const std::string plan_file = args.getString(
        "plan", "", "JSON fault plan (overrides the flag-built plan)");
    const int seed = args.getInt("seed", 1, "campaign seed");
    const int sites = args.getInt(
        "sites", 256, "transient sites armed per job (dense lattice)");
    const int bits =
        args.getInt("bits", 1, "bits flipped per fired transient");
    const int pe_lane = args.getInt(
        "pe-lane", -1, "stuck-at faulty PE lane (-1 disables)");
    const double pe_stuck_value = args.getDouble(
        "pe-stuck-value", 0.0,
        "forced product of the faulty lane (0 = stuck-at-zero)");
    const double flip_prob = args.getDouble(
        "flip-prob", 0.0, "storage bit-flip probability per word access");
    const int stress_frac_bits = args.getInt(
        "stress-frac-bits", -1,
        "force Q(15-n).n writeback and cross-check the range analysis");
    const int trainer_iters = args.getInt(
        "trainer-iters", 0,
        "twin-trainer degradation iterations (0 disables)");
    const int trainer_batch =
        args.getInt("trainer-batch", 2, "degradation mini-batch size");
    const std::string format =
        args.getString("format", "text", "output format: text | json");
    const bool no_ablation = args.getFlag(
        "no-nlr-skip", "drop the improved-NLR ablation column");
    const int jobs = args.getJobs();
    // Fault-free reference runs go through the cycle cache, so a
    // campaign benefits from a warm result store like any sweep; the
    // summary goes to stderr to keep --format json parseable.
    serve::ScopedDiskCache disk_cache(args.getCacheDir());
    if (args.helpRequested()) {
        args.usage(std::cout);
        return 0;
    }
    args.finish();
    if (format != "text" && format != "json")
        util::fatal("unknown --format '", format, "' (text, json)");

    const gan::GanModel model = gan::modelByName(model_name);

    fault::FaultPlan plan;
    if (!plan_file.empty()) {
        plan = fault::FaultPlan::fromFile(plan_file);
    } else {
        plan.seed = std::uint64_t(seed);
        plan.transient.sitesPerJob = sites;
        plan.transient.bits = bits;
        plan.memory.flipProbPerAccess = flip_prob;
        if (pe_lane >= 0) {
            fault::PeFault f;
            f.lane = pe_lane;
            f.kind = pe_stuck_value == 0.0
                         ? fault::PeFault::Kind::StuckAtZero
                         : fault::PeFault::Kind::StuckAtValue;
            f.value = float(pe_stuck_value);
            plan.peFaults.push_back(f);
        }
        if (stress_frac_bits != -1)
            plan.saturation.fracBits = stress_frac_bits;
    }

    fault::CampaignOptions opt;
    opt.dataSeed = plan.seed;
    opt.jobs = jobs;
    opt.nlrSkipAblation = !no_ablation;

    if (format == "text") {
        std::cout << "model: " << model.name << "\n";
        std::cout << "plan:  " << plan.describe() << "\n\n";
    }
    const fault::CampaignResult result =
        fault::runResilienceCampaign(model, plan, opt);
    if (format == "json")
        printJson(result);
    else
        printText(result, plan.memory.flipProbPerAccess > 0.0);

    if (plan.saturation.fracBits != -1 && format == "text")
        saturationCrossCheck(model, plan.saturation.fracBits);

    if (trainer_iters > 0) {
        const fault::TrainerDegradation deg =
            fault::runTrainerDegradation(model, plan, trainer_iters,
                                         trainer_batch, plan.seed);
        if (format == "json") {
            std::cout << "{\"trainerIterations\":" << deg.iterations
                      << ",\"weightFlips\":" << deg.weightFlips
                      << ",\"meanAbsDiscLossDelta\":"
                      << deg.meanAbsDiscLossDelta
                      << ",\"meanAbsGenLossDelta\":"
                      << deg.meanAbsGenLossDelta
                      << ",\"weightRmse\":" << deg.weightRmse << "}\n";
        } else {
            std::cout << "\ntrainer degradation (" << deg.iterations
                      << " iterations, batch " << trainer_batch
                      << "):\n";
            std::cout << "  weight flips injected: " << deg.weightFlips
                      << "\n";
            std::cout << "  mean |disc loss delta|: "
                      << deg.meanAbsDiscLossDelta << "\n";
            std::cout << "  mean |gen loss delta|:  "
                      << deg.meanAbsGenLossDelta << "\n";
            std::cout << "  final disc loss clean/faulty: "
                      << deg.cleanFinalDiscLoss << " / "
                      << deg.faultyFinalDiscLoss << "\n";
            std::cout << "  parameter rmse: " << deg.weightRmse << "\n";
        }
    }
    std::cerr << "[" << core::CycleCache::instance().summary();
    if (disk_cache.attached())
        std::cerr << "; " << disk_cache.store()->summary();
    std::cerr << "]\n";
    return 0;
} catch (const util::FatalError &e) {
    std::cerr << "ganacc-faultsim: " << e.what() << "\n";
    return 2;
}
