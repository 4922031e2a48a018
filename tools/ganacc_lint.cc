/**
 * @file
 * ganacc-lint — static verifier for network specs, dataflow schedules
 * and fixed-point ranges (docs/static_analysis.md).
 *
 * Validates designs without simulating them: network shape/chaining
 * legality, every phase's streamed-job geometry, fixed-point range
 * analysis, buffer capacity, and (with --arch) unrolling legality plus
 * schedule-hazard analysis (GA-SCHED-*) per phase family.
 * --check-bounds additionally simulates every job and cross-checks the
 * cycle walk against the closed-form bounds; --check-schedule walks
 * every job with the schedule recorder armed and diffs the recorded
 * access/occupancy relation against the static prediction.
 *
 * Exit codes: 0 clean, 1 diagnostics at or above --fail-on, 2 usage
 * error. --format=json emits one JSON object per model, one per line.
 */

#include <algorithm>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/unrolling.hh"
#include "gan/models.hh"
#include "sim/closed_form.hh"
#include "sim/phase.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/strings.hh"
#include "verify/schedule_analysis.hh"
#include "verify/static_bounds.hh"
#include "verify/verifier.hh"

namespace {

using namespace ganacc;

/** The networks --model names: one bundled network, or all four. */
std::vector<gan::GanModel>
selectModels(const std::string &name)
{
    if (name != "all")
        return {gan::modelByName(name)};
    std::vector<gan::GanModel> all = gan::allModels();
    all.push_back(gan::makeContextEncoder());
    return all;
}

/** True when the walk of `d` (and so the schedule derivations)
 *  asserts on this job: a zero-free dataflow on a stuffed input
 *  streamed with stride > 1. */
bool
zeroFreeUnwalkable(const sim::Dataflow &d, const sim::ConvSpec &job)
{
    return d.zeroFree && job.inZeroStride > 1 && job.stride != 1;
}

/** Schedule checks per phase family with the published unrolling. */
void
lintSchedule(const gan::GanModel &model, core::ArchKind kind, int st_pes,
             int w_pes, bool check_bounds, bool check_schedule,
             const verify::PortBudget &port_budget,
             verify::Report &report)
{
    for (sim::PhaseFamily f : sim::allPhaseFamilies()) {
        const core::BankRole role = core::bankOf(f);
        const int budget = role == core::BankRole::W ? w_pes : st_pes;
        sim::Unroll u = core::paperUnroll(kind, role, f, budget);
        std::vector<sim::ConvSpec> jobs = sim::familyJobs(model, f);
        verify::checkUnroll(kind, u, jobs, report);
        auto arch = core::makeArch(kind, u);
        const sim::Dataflow &d = *arch->dataflow();

        // Symbolic schedule-hazard analysis: cheap enough to run on
        // every lint (no cycles walked).
        for (const sim::ConvSpec &job : jobs) {
            if (zeroFreeUnwalkable(d, job))
                continue; // already an error from checkConvSpec
            verify::checkSchedule(kind, u, job, port_budget, report);
            if (check_schedule)
                verify::checkScheduleAgainstShadow(kind, u, job,
                                                  report);
        }

        if (!check_bounds)
            continue;
        // The bounds check compares closed form against the cycle
        // walk; force the walk engine, else the fast path would make
        // the comparison circular (closed form vs itself).
        sim::ScopedSimEngine walk(sim::SimEngine::Walk);
        for (const sim::ConvSpec &job : jobs) {
            if (zeroFreeUnwalkable(d, job))
                continue; // already an error from checkConvSpec
            verify::checkBoundsAgainstSim(kind, u, job, arch->run(job),
                                          report);
        }
    }
}

/** Baseline (CNV/RST) schedule checks with the bench configurations:
 *  16 lanes per channel group, the budget spread over channels. */
void
lintBaselineSchedule(const gan::GanModel &model,
                     verify::BaselineKind kind, int st_pes,
                     bool check_schedule, verify::Report &report)
{
    sim::Unroll u;
    if (kind == verify::BaselineKind::CNV) {
        u.pIf = 16;
        u.pOf = std::max(1, st_pes / 16);
    } else {
        u.pKy = 4;
        u.pOy = 4;
        u.pOf = std::max(1, st_pes / 16);
    }
    for (sim::PhaseFamily f : sim::allPhaseFamilies()) {
        std::vector<sim::ConvSpec> jobs = sim::familyJobs(model, f);
        verify::checkBaselineUnroll(kind, u, jobs, report);
        if (!check_schedule)
            continue;
        // No static model exists for the baselines: walk each job with
        // the recorder armed and check the dynamic envelope instead
        // (CNV builds functional operands, so this is the slow path).
        for (const sim::ConvSpec &job : jobs)
            verify::checkBaselineSchedule(kind, u, job, report);
    }
}

void
printText(const gan::GanModel &model, const verify::Report &report,
          std::ostream &os)
{
    os << "== " << model.name << " ==\n";
    report.renderText(os);
    os << (report.ok() ? "clean" : "ILLEGAL") << ": "
       << report.errorCount() << " error(s), " << report.warningCount()
       << " warning(s), " << report.noteCount() << " note(s)\n";
}

void
printJson(const gan::GanModel &model, const verify::Report &report,
          std::ostream &os)
{
    os << "{\"model\":\"" << util::escapeJson(model.name)
       << "\",\"report\":";
    report.renderJson(os);
    os << "}\n";
}

} // namespace

int
main(int argc, char **argv)
try {
    util::ArgParser args(argc, argv);
    const std::string model_name = args.getString(
        "model", "all",
        "network to lint (dcgan, mnist-gan, cgan, context-encoder, all)");
    const std::string format =
        args.getString("format", "text", "output format (text, json)");
    const std::string arch_name = args.getString(
        "arch", "",
        "also lint a dataflow's unrolling "
        "(nlr, wst, ost, zfost, zfwst, cnv, rst)");
    const int st_pes =
        args.getInt("st-pes", 1200, "ST-bank PE budget for --arch");
    const int w_pes =
        args.getInt("w-pes", 480, "W-bank PE budget for --arch");
    const bool check_bounds = args.getFlag(
        "check-bounds",
        "simulate every job and cross-check the closed-form bounds "
        "(needs --arch)");
    const bool check_schedule = args.getFlag(
        "check-schedule",
        "walk every job with the schedule recorder armed and diff "
        "against the static schedule relation (needs --arch)");
    const int port_budget = args.getInt(
        "port-budget", 0,
        "per-cycle word budget for each buffer port in the schedule "
        "checks (0: the PE-array width; 2x for the double-buffered "
        "weight port)");
    const bool no_ranges =
        args.getFlag("no-ranges", "skip fixed-point range analysis");
    const bool no_buffers =
        args.getFlag("no-buffers", "skip buffer capacity checks");
    const std::string weight_model = args.getString(
        "weight-model", "kaiming",
        "range-analysis weight model (kaiming, fixed)");
    const double weight_bound = args.getDouble(
        "weight-bound", 0.25, "|w| bound in fixed weight model");
    const double sigma_k =
        args.getDouble("sigma-k", 6.0, "peak = sigma-k * RMS");
    const int frac_bits =
        args.getInt("frac-bits", 8, "fixed-point fraction bits");
    const int w_pof = args.getInt(
        "w-pof", 0, "gradient-bank width for buffer checks (0: eq. 7)");
    const int bram = args.getInt(
        "bram", 0, "Block-RAM budget in BRAM36 (0: XCVU9P)");
    const std::string fail_on = args.getString(
        "fail-on", "error", "lowest severity that fails (error, warning)");
    if (args.helpRequested()) {
        args.usage(std::cout);
        return 0;
    }
    args.finish();

    if (format != "text" && format != "json")
        util::fatal("unknown --format '", format, "'");
    if (fail_on != "error" && fail_on != "warning")
        util::fatal("unknown --fail-on '", fail_on, "'");
    const bool have_arch = !arch_name.empty();
    const std::optional<core::ArchKind> kind =
        core::archKindFromName(arch_name);
    const bool is_baseline = arch_name == "cnv" || arch_name == "rst";
    const verify::BaselineKind baseline = arch_name == "rst"
                                              ? verify::BaselineKind::RST
                                              : verify::BaselineKind::CNV;
    if (have_arch && !kind && !is_baseline)
        util::fatal("unknown --arch '", arch_name, "'");
    if (check_bounds && !have_arch)
        util::fatal("--check-bounds needs --arch");
    if (check_bounds && is_baseline)
        util::fatal("--check-bounds: no closed-form bounds for ",
                    arch_name,
                    " (CNV skips by value inspection; RST is gated)");
    if (check_schedule && !have_arch)
        util::fatal("--check-schedule needs --arch");
    if (port_budget < 0)
        util::fatal("--port-budget must be >= 0");
    verify::PortBudget ports;
    ports.weight = std::uint64_t(port_budget);
    ports.input = std::uint64_t(port_budget);
    ports.output = std::uint64_t(port_budget);

    verify::VerifyOptions opts;
    opts.checkRanges = !no_ranges;
    opts.checkBuffers = !no_buffers;
    opts.wPof = w_pof;
    opts.bram36Budget = bram;
    opts.range.sigmaK = sigma_k;
    opts.range.fracBits = frac_bits;
    opts.range.weightBound = weight_bound;
    if (weight_model == "fixed")
        opts.range.weights =
            verify::RangeOptions::WeightModel::FixedBound;
    else if (weight_model != "kaiming")
        util::fatal("unknown --weight-model '", weight_model, "'");

    int errors = 0, warnings = 0;
    for (const gan::GanModel &model : selectModels(model_name)) {
        verify::Report report = verify::verifyModel(model, opts);
        if (have_arch && report.ok()) {
            if (is_baseline)
                lintBaselineSchedule(model, baseline, st_pes,
                                     check_schedule, report);
            else
                lintSchedule(model, *kind, st_pes, w_pes, check_bounds,
                             check_schedule, ports, report);
        }
        errors += report.errorCount();
        warnings += report.warningCount();
        if (format == "json")
            printJson(model, report, std::cout);
        else
            printText(model, report, std::cout);
    }
    if (errors > 0)
        return 1;
    if (fail_on == "warning" && warnings > 0)
        return 1;
    return 0;
} catch (const util::FatalError &e) {
    std::cerr << "ganacc-lint: " << e.what() << "\n";
    return 2;
}
