/**
 * @file
 * Design-space exploration implementation.
 */

#include "core/dse.hh"

#include <algorithm>

#include "core/unrolling.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "verify/legality.hh"
#include "verify/schedule_analysis.hh"

namespace ganacc {
namespace core {

using gan::GanModel;

namespace {

/** Placeholder for a point the verifier refused to simulate. */
DsePoint
rejectedPoint(const DseConstraints &cons, int w_pof, int st_pof,
              const verify::Report &report)
{
    DsePoint p;
    p.wPof = w_pof;
    p.stPof = st_pof;
    p.totalPes = (w_pof + st_pof) * cons.pesPerChannel;
    p.verifierRejected = true;
    for (const verify::Diagnostic &d : report.diagnostics()) {
        if (d.severity != verify::Severity::Error)
            continue;
        p.verifierCode = d.code;
        p.verifierMessage = d.message;
        break;
    }
    p.scheduleRejected =
        p.verifierCode.compare(0, 9, "GA-SCHED-") == 0;
    return p;
}

/** Frontier-progress telemetry for one evaluated point. */
void
observePoint(const DsePoint &p)
{
    obs::Registry &reg = obs::Registry::instance();
    reg.counter("ganacc_dse_points_total",
                "design points evaluated or rejected")
        .add(1);
    if (p.verifierRejected)
        reg.counter("ganacc_dse_rejected_total",
                    "points the static verifier refused to simulate")
            .add(1);
    if (p.scheduleRejected)
        reg.counter("ganacc_dse_sched_rejected_total",
                    "points the schedule-hazard analyzer rejected")
            .add(1);
    if (!p.verifierRejected && p.feasible())
        reg.counter("ganacc_dse_feasible_total",
                    "points inside every resource/bandwidth budget")
            .add(1);
}

/** Pre-filter one point; true when it must be skipped. The schedule
 *  analyzer only runs once the structural checks pass — its loop-nest
 *  derivations share the walks' legality preconditions. */
bool
prefilter(const DseConstraints &cons, const verify::Report &model_report,
          const verify::SchedulePrefilter *sched, int w_pof, int st_pof,
          DsePoint &out)
{
    if (!cons.verify)
        return false;
    verify::Report pr;
    verify::checkDesignPoint(model_report, w_pof, st_pof,
                             cons.pesPerChannel, pr);
    if (pr.ok() && sched != nullptr)
        sched->check(w_pof * cons.pesPerChannel,
                     st_pof * cons.pesPerChannel, pr);
    if (pr.ok())
        return false;
    out = rejectedPoint(cons, w_pof, st_pof, pr);
    return true;
}

} // namespace

DsePoint
evaluatePoint(const DseConstraints &cons, const GanModel &model,
              int w_pof, int st_pof)
{
    GANACC_ASSERT(w_pof >= 1 && st_pof >= 1, "degenerate DSE point");
    DsePoint p;
    p.wPof = w_pof;
    p.stPof = st_pof;
    p.totalPes = (w_pof + st_pof) * cons.pesPerChannel;

    sched::Design design = sched::Design::comboWithSplit(
        ArchKind::ZFOST, ArchKind::ZFWST,
        st_pof * cons.pesPerChannel, w_pof * cons.pesPerChannel);
    p.iterationCycles = sched::iterationCycles(
        design, model, sched::SyncPolicy::Deferred);
    p.samplesPerSecond =
        cons.offchip.frequencyHz / double(p.iterationCycles);

    mem::BufferPlan plan =
        mem::planBuffers(model, w_pof, cons.offchip.bitsPerData / 8);
    p.resources = estimateResources(p.totalPes, plan);
    p.fitsDevice = fits(p.resources, cons.budget);

    // Worst-case ∇W stream: the smallest resident pass drives the
    // peak demand (Section V-C); with the kernel fully resident per
    // pass that is 2 * f * W_Pof * bits.
    double demand = 2.0 * cons.offchip.frequencyHz * w_pof *
                    cons.offchip.bitsPerData;
    p.bandwidthFeasible = demand <= cons.offchip.bandwidthBitsPerSec;
    return p;
}

std::vector<DsePoint>
sweepFrontier(const DseConstraints &cons, const GanModel &model)
{
    verify::Report model_report;
    if (cons.verify)
        verify::checkModel(model, model_report);
    // The phase job sets are sweep-invariant: build the schedule
    // pre-filter once and share it across every point.
    std::optional<verify::SchedulePrefilter> sched;
    if (cons.verify && model_report.ok())
        sched.emplace(model);
    obs::Span span("dse.sweep", "dse",
                   "{\"points\":" + std::to_string(cons.maxWPof) + "}");
    std::vector<DsePoint> pts;
    for (int w = 1; w <= cons.maxWPof; ++w) {
        int st = mem::deriveStPof(w);
        DsePoint rejected;
        pts.push_back(prefilter(cons, model_report,
                                sched ? &*sched : nullptr, w, st,
                                rejected)
                          ? rejected
                          : evaluatePoint(cons, model, w, st));
        observePoint(pts.back());
    }
    return pts;
}

std::vector<DsePoint>
sweepFrontierParallel(const DseConstraints &cons, const GanModel &model,
                      int jobs)
{
    GANACC_ASSERT(cons.maxWPof >= 1, "empty sweep range");
    // The network is validated once, not once per point; each worker
    // only runs the cheap per-point checks against the cached report.
    verify::Report model_report;
    if (cons.verify)
        verify::checkModel(model, model_report);
    // Shared read-only across workers: check() is const and pure.
    std::optional<verify::SchedulePrefilter> sched;
    if (cons.verify && model_report.ok())
        sched.emplace(model);
    obs::Span span("dse.sweep", "dse",
                   "{\"points\":" + std::to_string(cons.maxWPof) + "}");
    std::vector<DsePoint> pts(std::size_t(cons.maxWPof));
    util::parallelFor(pts.size(), jobs, [&](std::size_t i) {
        int w = int(i) + 1;
        int st = mem::deriveStPof(w);
        DsePoint rejected;
        pts[i] = prefilter(cons, model_report,
                           sched ? &*sched : nullptr, w, st, rejected)
                     ? rejected
                     : evaluatePoint(cons, model, w, st);
        observePoint(pts[i]);
    });
    return pts;
}

int
verifierRejectedCount(const std::vector<DsePoint> &pts)
{
    return int(std::count_if(
        pts.begin(), pts.end(),
        [](const DsePoint &p) { return p.verifierRejected; }));
}

int
scheduleRejectedCount(const std::vector<DsePoint> &pts)
{
    return int(std::count_if(
        pts.begin(), pts.end(),
        [](const DsePoint &p) { return p.scheduleRejected; }));
}

std::optional<DsePoint>
bestFeasible(const std::vector<DsePoint> &pts)
{
    std::optional<DsePoint> best;
    for (const DsePoint &p : pts) {
        if (!p.feasible())
            continue;
        if (!best || p.samplesPerSecond > best->samplesPerSecond)
            best = p;
    }
    return best;
}

} // namespace core
} // namespace ganacc
