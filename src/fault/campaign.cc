/**
 * @file
 * Resilience-campaign implementation.
 */

#include "fault/campaign.hh"

#include <cmath>
#include <functional>
#include <iterator>
#include <memory>
#include <utility>

#include "core/unrolling.hh"
#include "fault/mem_faults.hh"
#include "gan/trainer.hh"
#include "nn/optimizer.hh"
#include "obs/trace.hh"
#include "sim/nlr.hh"
#include "sim/phase.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace ganacc {
namespace fault {

namespace {

using core::ArchKind;
using core::BankRole;
using sim::ConvSpec;
using sim::PhaseFamily;
using tensor::Tensor;

/** A Table V evaluation row is a phase family on its PE bank, named
 *  "D/ST", "G/ST", "Dw/W" or "Gw/W". */
std::string
rowName(PhaseFamily family)
{
    return sim::phaseFamilyName(family) + "/" +
           core::bankRoleName(core::bankOf(family));
}

/** An architecture column of the campaign matrix. */
struct Column
{
    std::string name;
    ArchKind kind;
    bool vanillaNlr = false; ///< zero-executing NLR (the physical
                             ///< DianNao baseline)
};

std::vector<Column>
buildColumns(bool nlr_skip_ablation)
{
    std::vector<Column> cols;
    cols.push_back({"NLR", ArchKind::NLR, true});
    if (nlr_skip_ablation)
        cols.push_back({"NLR-skip", ArchKind::NLR, false});
    cols.push_back({"WST", ArchKind::WST, false});
    cols.push_back({"OST", ArchKind::OST, false});
    cols.push_back({"ZFOST", ArchKind::ZFOST, false});
    cols.push_back({"ZFWST", ArchKind::ZFWST, false});
    return cols;
}

std::unique_ptr<sim::Architecture>
buildArch(const Column &col, PhaseFamily family,
          const CampaignOptions &opt)
{
    const BankRole role = core::bankOf(family);
    const int budget = role == BankRole::ST ? opt.stBudget : opt.wBudget;
    const sim::Unroll unroll =
        core::paperUnroll(col.kind, role, family, budget);
    if (col.vanillaNlr)
        return std::make_unique<sim::Nlr>(unroll,
                                          sim::Nlr::ZeroPolicy::Execute);
    return core::makeArch(col.kind, unroll);
}

/** Shared per-job operands: every cell of a row sees the same data. */
struct JobData
{
    ConvSpec spec;
    Tensor in;
    Tensor w;
    Tensor ref;
    std::uint64_t key = 0; ///< stable (row, job) id for seeding
};

std::vector<std::vector<JobData>>
buildRowJobs(const gan::GanModel &model, const CampaignOptions &opt)
{
    const std::vector<PhaseFamily> families = sim::allPhaseFamilies();
    std::vector<std::vector<JobData>> rows;
    rows.reserve(families.size());
    std::vector<JobData *> todo;
    for (std::size_t r = 0; r < families.size(); ++r) {
        const auto jobs = sim::familyJobs(model, families[r]);
        std::vector<JobData> &row = rows.emplace_back(jobs.size());
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            row[j].spec = jobs[j];
            row[j].key = std::uint64_t(r) * 101 + std::uint64_t(j);
            todo.push_back(&row[j]);
        }
    }
    // Each job's operands are seeded on its own (row, job) key alone,
    // so building them on the pool gives the serial loop's tensors.
    util::parallelFor(todo.size(), opt.jobs, [&](std::size_t i) {
        JobData &d = *todo[i];
        util::Rng rng(mix64(opt.dataSeed ^ mix64(d.key)));
        d.in = sim::makeStreamedInput(d.spec, rng);
        d.w = sim::makeStreamedKernel(d.spec, rng);
        d.ref = sim::genericConvRef(d.spec, d.in, d.w);
    });
    return rows;
}

/** Accumulates sum-of-squares so cell RMSE spans all job outputs. */
struct SqErr
{
    double acc = 0.0;
    std::uint64_t n = 0;

    void
    add(const Tensor &got, const Tensor &want)
    {
        GANACC_ASSERT(got.shape() == want.shape(),
                      "campaign output shape mismatch");
        for (std::size_t i = 0; i < got.numel(); ++i) {
            const double d =
                double(got.data()[i]) - double(want.data()[i]);
            acc += d * d;
        }
        n += got.numel();
    }

    double
    rmse() const
    {
        return n == 0 ? 0.0 : std::sqrt(acc / double(n));
    }
};

CellResult
runCell(const Column &col, PhaseFamily family,
        const std::vector<JobData> &jobs, const FaultPlan &plan,
        const CampaignOptions &opt)
{
    CellResult cell;
    cell.arch = col.name;
    cell.row = rowName(family);

    obs::Span span("fault.cell", "fault",
                   "{\"arch\":\"" + col.name + "\",\"row\":\"" +
                       cell.row + "\"}");
    const auto arch = buildArch(col, family, opt);
    FaultInjector injector(plan);
    // CNV-style value inspection is not part of this matrix; every
    // column here supports timing+functional runs with the hook.
    arch->setFaultHook(plan.empty() ? nullptr : &injector);

    SqErr mac_err, mem_err;
    for (const JobData &job : jobs) {
        injector.beginJob(job.spec, job.key);
        Tensor out = sim::makeOutputTensor(job.spec);
        const sim::RunStats stats =
            arch->run(job.spec, &job.in, &job.w, &out);
        mac_err.add(out, job.ref);

        if (plan.memory.flipProbPerAccess > 0.0) {
            // Storage flips are drawn from this cell's own traffic:
            // the same physical flip probability costs a streaming
            // dataflow more corrupted words.
            util::Rng mem_rng(mix64(plan.seed ^ mix64(job.key) ^
                                    mix64(std::uint64_t(
                                        std::hash<std::string>{}(
                                            col.name)))));
            const FlipCounts flips = drawFlips(
                stats, plan.memory.flipProbPerAccess, mem_rng);
            cell.memFlips += flips.total();
            Tensor in_f = job.in, w_f = job.w;
            applyBitFlips(in_f, flips.inputFlips, plan.memory.bits,
                          mem_rng);
            applyBitFlips(w_f, flips.weightFlips, plan.memory.bits,
                          mem_rng);
            Tensor out_f = sim::genericConvRef(job.spec, in_f, w_f);
            applyBitFlips(out_f, flips.outputFlips, plan.memory.bits,
                          mem_rng);
            mem_err.add(out_f, job.ref);
        }
    }
    cell.mac = injector.counters();
    cell.outputRmse = mac_err.rmse();
    cell.memRmse = mem_err.rmse();
    return cell;
}

} // namespace

CampaignResult
runResilienceCampaign(const gan::GanModel &model, const FaultPlan &plan,
                      const CampaignOptions &opt)
{
    const auto columns = buildColumns(opt.nlrSkipAblation);
    const auto row_jobs = buildRowJobs(model, opt);

    // Flatten the matrix for the sweep engine; parallelMap writes by
    // index, so the result order (and every value in it) is identical
    // under any GANACC_JOBS.
    struct CellTask
    {
        std::size_t row;
        std::size_t col;
    };
    const std::vector<PhaseFamily> families = sim::allPhaseFamilies();
    std::vector<CellTask> tasks;
    for (std::size_t r = 0; r < families.size(); ++r)
        for (std::size_t c = 0; c < columns.size(); ++c)
            tasks.push_back({r, c});

    CampaignResult result;
    result.cells = util::parallelMap(
        tasks,
        [&](const CellTask &t) {
            return runCell(columns[t.col], families[t.row],
                           row_jobs[t.row], plan, opt);
        },
        opt.jobs);

    // Per-architecture aggregation across the four rows.
    for (std::size_t c = 0; c < columns.size(); ++c) {
        ArchSummary s;
        s.arch = columns[c].name;
        double mac_acc = 0.0, mem_acc = 0.0;
        std::uint64_t mac_n = 0, mem_n = 0;
        for (std::size_t r = 0; r < families.size(); ++r) {
            const CellResult &cell =
                result.cells[r * columns.size() + c];
            s.armed += cell.mac.armed;
            s.fired += cell.mac.fired;
            s.memFlips += cell.memFlips;
            // Cells carry equal weight: RMS of the per-cell RMSEs.
            mac_acc += cell.outputRmse * cell.outputRmse;
            ++mac_n;
            if (cell.memFlips > 0 || cell.memRmse > 0.0) {
                mem_acc += cell.memRmse * cell.memRmse;
                ++mem_n;
            }
        }
        s.maskingRate =
            s.armed == 0
                ? 0.0
                : double(s.armed - s.fired) / double(s.armed);
        s.outputRmse =
            mac_n == 0 ? 0.0 : std::sqrt(mac_acc / double(mac_n));
        s.memRmse =
            mem_n == 0 ? 0.0 : std::sqrt(mem_acc / double(mem_n));
        result.archs.push_back(std::move(s));
    }
    return result;
}

TrainerDegradation
runTrainerDegradation(const gan::GanModel &model, const FaultPlan &plan,
                      int iterations, int batch, std::uint64_t seed)
{
    GANACC_ASSERT(iterations > 0 && batch > 0,
                  "degradation run needs iterations > 0 and batch > 0");
    TrainerDegradation out;
    out.iterations = iterations;

    gan::Trainer clean(model, seed, gan::SyncMode::Deferred);
    gan::Trainer faulty(model, seed, gan::SyncMode::Deferred);
    nn::Sgd clean_d(0.01f), clean_g(0.01f);
    nn::Sgd faulty_d(0.01f), faulty_g(0.01f);
    // Twin RNG streams with the same seed: both trainers see identical
    // data and noise, so the loss gap is purely fault-induced.
    util::Rng clean_rng(mix64(seed ^ 0xda7aULL));
    util::Rng faulty_rng(mix64(seed ^ 0xda7aULL));
    util::Rng fault_rng(mix64(plan.seed ^ mix64(seed)));

    std::uint64_t param_words = 0;
    faulty.forEachParameterTensor(
        [&](Tensor &t) { param_words += t.numel(); });

    double disc_delta = 0.0, gen_delta = 0.0;
    gan::IterationLosses clean_losses{}, faulty_losses{};
    for (int it = 0; it < iterations; ++it) {
        // Weight-storage upsets accumulate between iterations.
        const std::uint64_t flips = sampleBinomial(
            fault_rng, param_words, plan.memory.flipProbPerAccess);
        if (flips > 0) {
            // Spread flips over the parameter tensors proportionally
            // to their word counts, deterministically.
            std::uint64_t remaining = flips, seen = 0;
            faulty.forEachParameterTensor([&](Tensor &t) {
                seen += t.numel();
                const std::uint64_t target =
                    param_words == 0
                        ? 0
                        : flips * seen / param_words;
                const std::uint64_t already = flips - remaining;
                const std::uint64_t here =
                    target > already ? target - already : 0;
                applyBitFlips(t, here, plan.memory.bits, fault_rng);
                remaining -= here;
            });
            out.weightFlips += flips;
        }

        const tensor::Shape4 img = model.imageShape();
        tensor::Tensor real(batch, img.d1, img.d2, img.d3);
        real.fillUniform(clean_rng, -1.0f, 1.0f);
        // The faulty twin's data RNG must advance identically.
        tensor::Tensor real_twin(batch, img.d1, img.d2, img.d3);
        real_twin.fillUniform(faulty_rng, -1.0f, 1.0f);
        clean_losses =
            clean.trainIteration(real, clean_d, clean_g, clean_rng);
        faulty_losses = faulty.trainIteration(real_twin, faulty_d,
                                              faulty_g, faulty_rng);
        disc_delta +=
            std::fabs(clean_losses.discLoss - faulty_losses.discLoss);
        gen_delta +=
            std::fabs(clean_losses.genLoss - faulty_losses.genLoss);
    }
    out.cleanFinalDiscLoss = clean_losses.discLoss;
    out.faultyFinalDiscLoss = faulty_losses.discLoss;
    out.meanAbsDiscLossDelta = disc_delta / double(iterations);
    out.meanAbsGenLossDelta = gen_delta / double(iterations);

    // Parameter divergence: RMS over every weight pair.
    double acc = 0.0;
    std::uint64_t n = 0;
    std::vector<const Tensor *> clean_params;
    clean.forEachParameterTensor(
        [&](Tensor &t) { clean_params.push_back(&t); });
    std::size_t idx = 0;
    faulty.forEachParameterTensor([&](Tensor &t) {
        const Tensor &c = *clean_params[idx++];
        for (std::size_t i = 0; i < t.numel(); ++i) {
            const double d =
                double(t.data()[i]) - double(c.data()[i]);
            acc += d * d;
        }
        n += t.numel();
    });
    out.weightRmse = n == 0 ? 0.0 : std::sqrt(acc / double(n));
    return out;
}

} // namespace fault
} // namespace ganacc
