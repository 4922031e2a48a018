/**
 * @file
 * The fault-campaign workload: the MNIST-GAN resilience campaign of
 * EXPERIMENTS.md ("Fault resilience") — four Table V rows x six
 * columns, 256 transient sites per job, the run's seed, 4 workers.
 *
 * Untraced, it repeats fault::runResilienceCampaign for the run's
 * duration. The campaign's own `fault.cell` spans (24 per campaign,
 * buffered in live mode and never written out) give each cell's
 * service time and its completion time from the campaign start.
 *
 * Traced, it runs one campaign for the cell-level numbers, then
 * re-issues every per-job call the campaign makes through public
 * functions, serially, timing each layer separately: operand
 * generation, the reference convolution, the functional cycle walk
 * with and without the FaultInjector hook, and the closed form.
 */

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hh"
#include "core/unrolling.hh"
#include "fault/campaign.hh"
#include "fault/fault_plan.hh"
#include "fault/injector.hh"
#include "gan/models.hh"
#include "obs/trace.hh"
#include "sim/conv_spec.hh"
#include "sim/nlr.hh"
#include "sim/phase.hh"
#include "sim/stats_diff.hh"
#include "util/random.hh"

namespace perfbench {

namespace {

using namespace ganacc;

constexpr int kWorkers = 4;
constexpr int kSitesPerJob = 256;

/** The campaign's matrix, mirrored from fault/campaign.cc. */
struct Row
{
    sim::PhaseFamily family;
    core::BankRole role;
    const char *name;
};
constexpr Row kRows[] = {
    {sim::PhaseFamily::D, core::BankRole::ST, "D/ST"},
    {sim::PhaseFamily::G, core::BankRole::ST, "G/ST"},
    {sim::PhaseFamily::Dw, core::BankRole::W, "Dw/W"},
    {sim::PhaseFamily::Gw, core::BankRole::W, "Gw/W"},
};

struct Column
{
    const char *name;
    core::ArchKind kind;
    bool vanillaNlr; ///< zero-executing NLR
};
constexpr Column kColumns[] = {
    {"NLR", core::ArchKind::NLR, true},
    {"NLR-skip", core::ArchKind::NLR, false},
    {"WST", core::ArchKind::WST, false},
    {"OST", core::ArchKind::OST, false},
    {"ZFOST", core::ArchKind::ZFOST, false},
    {"ZFWST", core::ArchKind::ZFWST, false},
};
constexpr std::size_t kNumColumns = std::size(kColumns);

/** EXPERIMENTS.md's MNIST-GAN masking rates at seed 1, per column. */
constexpr const char *kSeedOneMasking[kNumColumns] = {
    "0.0000", "0.3044", "0.2673", "0.0000", "0.3325", "0.3325"};

struct Inputs
{
    gan::GanModel model;
    fault::FaultPlan plan;
    fault::CampaignOptions opt;
};

Inputs
makeInputs(std::uint64_t seed)
{
    Inputs in;
    in.model = gan::makeMnistGan();
    in.plan.seed = seed;
    in.plan.transient.sitesPerJob = kSitesPerJob;
    in.opt.dataSeed = seed;
    in.opt.jobs = kWorkers;
    return in;
}

std::unique_ptr<sim::Architecture>
buildArch(const Column &col, const Row &row, const fault::CampaignOptions &opt)
{
    const int budget =
        row.role == core::BankRole::ST ? opt.stBudget : opt.wBudget;
    const sim::Unroll u =
        core::paperUnroll(col.kind, row.role, row.family, budget);
    if (col.vanillaNlr)
        return std::make_unique<sim::Nlr>(u, sim::Nlr::ZeroPolicy::Execute);
    return core::makeArch(col.kind, u);
}

std::string
fixed4(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f", v);
    return buf;
}

/** One campaign's cell spans, relative to the campaign call. */
struct CellTimes
{
    std::vector<double> serviceMs; ///< span durations
    std::vector<double> doneMs;    ///< span end minus call start
    double firstStartS = 0.0;      ///< serial prefix before any cell
    double windowS = 0.0;          ///< first cell start to last end
    double busyS = 0.0;            ///< summed cell time
    double maxS = 0.0;
};

CellTimes
cellTimes(const std::vector<obs::TraceEvent> &events, std::uint64_t callUs)
{
    CellTimes ct;
    std::uint64_t first = UINT64_MAX, last = 0;
    for (const obs::TraceEvent &ev : events) {
        if (ev.name != "fault.cell")
            continue;
        ct.serviceMs.push_back(double(ev.dur) / 1e3);
        ct.doneMs.push_back(double(ev.ts + ev.dur - callUs) / 1e3);
        first = std::min(first, ev.ts);
        last = std::max(last, ev.ts + ev.dur);
        ct.busyS += double(ev.dur) / 1e6;
        ct.maxS = std::max(ct.maxS, double(ev.dur) / 1e6);
    }
    if (!ct.serviceMs.empty()) {
        ct.firstStartS = double(first - callUs) / 1e6;
        ct.windowS = double(last - first) / 1e6;
    }
    return ct;
}

bool
sameCells(const fault::CampaignResult &a, const fault::CampaignResult &b)
{
    if (a.cells.size() != b.cells.size())
        return false;
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        const auto &x = a.cells[i], &y = b.cells[i];
        if (x.mac.armed != y.mac.armed || x.mac.fired != y.mac.fired ||
            x.outputRmse != y.outputRmse || x.memFlips != y.memFlips)
            return false;
    }
    return true;
}

void
checkCampaign(const fault::CampaignResult &res,
              const fault::CampaignResult &first, std::uint64_t seed,
              Report &report)
{
    report.check(res.cells.size() == std::size(kRows) * kNumColumns &&
                     res.archs.size() == kNumColumns,
                 "campaign covers 4 rows x 6 columns");
    report.check(sameCells(res, first),
                 "repeated campaigns give identical cells");
    if (seed != 1 || res.archs.size() != kNumColumns)
        return;
    for (std::size_t c = 0; c < kNumColumns; ++c)
        report.check(res.archs[c].arch == kColumns[c].name &&
                         fixed4(res.archs[c].maskingRate) ==
                             kSeedOneMasking[c],
                     std::string("seed-1 masking rate of ") +
                         kColumns[c].name + " is " +
                         fixed4(res.archs[c].maskingRate) + ", expected " +
                         kSeedOneMasking[c]);
}

/** Summed squared error, in the campaign's accumulation order. */
struct SqErr
{
    double acc = 0.0;
    std::uint64_t n = 0;

    void
    add(const tensor::Tensor &got, const tensor::Tensor &want)
    {
        for (std::size_t i = 0; i < got.numel(); ++i) {
            const double d =
                double(got.data()[i]) - double(want.data()[i]);
            acc += d * d;
        }
        n += got.numel();
    }

    double rmse() const { return n == 0 ? 0.0 : std::sqrt(acc / double(n)); }
};

struct Job
{
    sim::ConvSpec spec;
    tensor::Tensor in, w, ref;
    std::uint64_t key = 0;
};

/** Re-issue the campaign's per-job calls and time each layer. */
void
reissueJobs(const Inputs &inputs, const fault::CampaignResult &campaign,
            Report &report)
{
    double operandsS = 0.0, refS = 0.0;
    std::vector<std::vector<Job>> rows;
    for (std::size_t r = 0; r < std::size(kRows); ++r) {
        std::vector<Job> row;
        const auto specs = sim::familyJobs(inputs.model, kRows[r].family);
        for (std::size_t j = 0; j < specs.size(); ++j) {
            Job job;
            job.spec = specs[j];
            job.key = std::uint64_t(r) * 101 + std::uint64_t(j);
            util::Rng rng(fault::mix64(inputs.opt.dataSeed ^
                                       fault::mix64(job.key)));
            auto t0 = Clock::now();
            job.in = sim::makeStreamedInput(job.spec, rng);
            job.w = sim::makeStreamedKernel(job.spec, rng);
            operandsS += secondsSince(t0);
            t0 = Clock::now();
            job.ref = sim::genericConvRef(job.spec, job.in, job.w);
            refS += secondsSince(t0);
            row.push_back(std::move(job));
        }
        rows.push_back(std::move(row));
    }

    double hookedTotal = 0.0, plainTotal = 0.0;
    std::uint64_t armed = 0, fired = 0;
    for (std::size_t c = 0; c < kNumColumns; ++c) {
        double walkS = 0.0;
        std::uint64_t cycles = 0;
        for (std::size_t r = 0; r < std::size(kRows); ++r) {
            const auto hooked = buildArch(kColumns[c], kRows[r], inputs.opt);
            const auto plain = buildArch(kColumns[c], kRows[r], inputs.opt);
            fault::FaultInjector injector(inputs.plan);
            hooked->setFaultHook(&injector);
            SqErr err;
            for (const Job &job : rows[r]) {
                injector.beginJob(job.spec, job.key);
                tensor::Tensor out = sim::makeOutputTensor(job.spec);
                auto t0 = Clock::now();
                const sim::RunStats st =
                    hooked->run(job.spec, &job.in, &job.w, &out);
                const double hookedS = secondsSince(t0);
                err.add(out, job.ref);

                tensor::Tensor out2 = sim::makeOutputTensor(job.spec);
                t0 = Clock::now();
                plain->run(job.spec, &job.in, &job.w, &out2);
                plainTotal += secondsSince(t0);

                const sim::RunStats closed = plain->run(job.spec);
                report.check(sim::statsEqual(st, closed),
                             std::string("walk == closed form on ") +
                                 kColumns[c].name + " " + kRows[r].name +
                                 ": " + sim::diffRunStats(st, closed));
                walkS += hookedS;
                cycles += st.cycles;
            }
            const auto &cell =
                campaign.cells[r * kNumColumns + c];
            const auto &ctr = injector.counters();
            report.check(ctr.armed == cell.mac.armed &&
                             ctr.fired == cell.mac.fired &&
                             err.rmse() == cell.outputRmse,
                         std::string("re-issued cell matches campaign: ") +
                             kColumns[c].name + " " + kRows[r].name);
            armed += ctr.armed;
            fired += ctr.fired;
        }
        hookedTotal += walkS;
        const std::string col = kColumns[c].name;
        report.set("sim.walk_s." + col, walkS, "s");
        report.set("sim.walk_ns_per_cycle." + col,
                   cycles == 0 ? 0.0 : walkS * 1e9 / double(cycles), "ns");
        report.set("sim.cycles." + col, double(cycles), "count");
    }
    report.set("fault.hook_overhead",
               plainTotal > 0.0 ? hookedTotal / plainTotal : 0.0, "ratio");
    report.set("sim.operands_s", operandsS, "s");
    report.set("sim.ref_conv_s", refS, "s");

    std::uint64_t campArmed = 0, campFired = 0;
    for (const auto &s : campaign.archs) {
        campArmed += s.armed;
        campFired += s.fired;
    }
    report.check(armed == campArmed && fired == campFired,
                 "re-issued fault counts equal the campaign's");
    report.set("fault.armed", double(campArmed), "count");
    report.set("fault.fired", double(campFired), "count");
}

} // namespace

void
runFaultCampaign(const RunConfig &cfg, Report &report)
{
    const Inputs inputs = makeInputs(cfg.seed);
    std::uint64_t jobRuns = 0;
    for (const Row &row : kRows)
        jobRuns += sim::familyJobs(inputs.model, row.family).size() *
                   kNumColumns;

    // Live mode: spans buffer in memory for drain() and never reach
    // the filesystem. Only the 24 fault.cell spans fire per campaign.
    obs::TraceSink &sink = obs::TraceSink::instance();
    sink.enable("");

    // Per campaign: wall time, the set-up before its first cell, and
    // cell-latency percentiles; the run reports the median of each over
    // its campaigns.
    std::vector<double> walls, setups, lo50, lo99, hi50, hi99, hi999;
    std::optional<fault::CampaignResult> first;
    CellTimes lastCells;
    const auto begin = Clock::now();
    // Untraced: at least 4 campaigns, so a slow host still gives each
    // median four samples.
    const std::size_t minCampaigns = cfg.trace ? 1 : 4;
    while (true) {
        sink.drain();
        const std::uint64_t callUs = sink.nowUs();
        const auto t0 = Clock::now();
        fault::CampaignResult res =
            fault::runResilienceCampaign(inputs.model, inputs.plan,
                                         inputs.opt);
        walls.push_back(secondsSince(t0));
        lastCells = cellTimes(sink.drain(), callUs);
        report.check(lastCells.serviceMs.size() == res.cells.size(),
                     "one fault.cell span per cell");
        setups.push_back(lastCells.firstStartS);
        lo50.push_back(percentile(lastCells.serviceMs, 0.50));
        lo99.push_back(percentile(lastCells.serviceMs, 0.99));
        hi50.push_back(percentile(lastCells.doneMs, 0.50));
        hi99.push_back(percentile(lastCells.doneMs, 0.99));
        hi999.push_back(percentile(lastCells.doneMs, 0.999));
        checkCampaign(res, first ? *first : res, cfg.seed, report);
        if (!first)
            first = std::move(res);
        if (walls.size() >= minCampaigns &&
            (cfg.trace ||
             secondsSince(begin) + median(walls) > cfg.seconds))
            break;
    }
    sink.disable();
    sink.drain();

    if (!cfg.trace) {
        // Set-up is the campaign's serial prefix: operand generation
        // and the reference convolution, before any cell starts.
        report.set("setup_s", median(setups), "s");
        report.set("wall_s", median(walls), "s");
        report.set("peak_rss_mb", peakRssMb(), "MB");
        // No arrival process here: "lo" is a cell's own service time,
        // "hi" its completion time with all 24 cells offered at once
        // to the 4 workers.
        report.set("p50_ms.lo", median(lo50), "ms");
        report.set("p99_ms.lo", median(lo99), "ms");
        report.set("p50_ms.hi", median(hi50), "ms");
        report.set("p99_ms.hi", median(hi99), "ms");
        report.set("p999_ms.hi", median(hi999), "ms");
        report.set("peak_rps", double(jobRuns) / median(walls), "1/s");
        return;
    }

    report.set("fault.serial_prefix_s", lastCells.firstStartS, "s");
    report.set("fault.cell_max_s", lastCells.maxS, "s");
    report.set("util.pool_busy",
               lastCells.windowS > 0.0
                   ? lastCells.busyS / (kWorkers * lastCells.windowS)
                   : 0.0,
               "ratio");
    reissueJobs(inputs, *first, report);
}

} // namespace perfbench
