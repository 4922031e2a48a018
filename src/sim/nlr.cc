/**
 * @file
 * Improved-NLR cycle-level model.
 */

#include "sim/nlr.hh"

#include <algorithm>

#include "sim/closed_form.hh"
#include "util/logging.hh"

namespace ganacc {
namespace sim {

using tensor::Tensor;

namespace {

/** Structural-zero test for a streamed input coordinate pair, pattern
 *  only (out-of-bounds padding is NOT skippable). */
bool
patternZero(const ConvSpec &spec, int iy, int ix)
{
    if (iy < 0 || iy >= spec.ih || ix < 0 || ix >= spec.iw)
        return false; // padding: burns the cycle like any dense operand
    return spec.inputIsZero(iy, ix);
}

} // namespace

RunStats
Nlr::doRun(const ConvSpec &spec, const Tensor *in, const Tensor *w,
           Tensor *out) const
{
    const bool functional = in != nullptr;
    const int n_pes = numPes();
    ScheduleRecorder *const rec = schedRec();
    // A cycle fixes (oy, ox, ky, kx), and c too on 4-D outputs; on
    // other jobs it spans pIf input maps.
    const std::uint64_t taps = std::uint64_t(spec.kh) * spec.kw;
    const CycleProjection proj{
        {spec.fourDimOutput ? taps * spec.oh * spec.ow : 0,
         taps * spec.ow, taps, std::uint64_t(spec.kw), 1}};
    MacPath path(faultHook(), proj);
    RunStats st;

    // Partial sums live in the global output buffer, zero-initialized;
    // one job-wide write-through window covers every accumulation.
    if (rec)
        rec->onWindowBegin(std::uint64_t(spec.nof) * spec.oh * spec.ow *
                               (spec.fourDimOutput ? spec.nif : 1),
                           WindowKind::WriteThrough);

    for (int of0 = 0; of0 < spec.nof; of0 += unroll_.pOf) {
        const int of_cnt = std::min(unroll_.pOf, spec.nof - of0);
        for (int oy = 0; oy < spec.oh; ++oy) {
            for (int ox = 0; ox < spec.ow; ++ox) {
                for (int ky = 0; ky < spec.kh; ++ky) {
                    for (int kx = 0; kx < spec.kw; ++kx) {
                        // Address-generation zero skipping: structurally
                        // zero kernel positions and zero-stuffed input
                        // positions never get scheduled (improved NLR);
                        // the vanilla dataflow executes them as wasted
                        // cycles.
                        const int iy = oy * spec.stride + ky - spec.pad;
                        const int ix = ox * spec.stride + kx - spec.pad;
                        const bool structural_zero =
                            spec.kernelIsZero(ky, kx) ||
                            patternZero(spec, iy, ix);
                        if (structural_zero &&
                            policy_ == ZeroPolicy::Skip)
                            continue;
                        const bool in_bounds =
                            !structural_zero && iy >= 0 &&
                            iy < spec.ih && ix >= 0 && ix < spec.iw;

                        if (!spec.fourDimOutput) {
                            // Input lanes feed the adder tree.
                            for (int c0 = 0; c0 < spec.nif;
                                 c0 += unroll_.pIf) {
                                const int if_cnt = std::min(
                                    unroll_.pIf, spec.nif - c0);
                                st.cycles += 1;
                                st.weightLoads +=
                                    std::uint64_t(if_cnt) * of_cnt;
                                st.inputLoads += std::uint64_t(if_cnt);
                                // Partial sums live in the buffer: one
                                // read-modify-write per channel/cycle.
                                st.outputReads += std::uint64_t(of_cnt);
                                st.outputWrites += std::uint64_t(of_cnt);
                                if (rec) {
                                    rec->onCycle();
                                    for (int ci = 0; ci < if_cnt; ++ci)
                                        rec->onLanes(ci * unroll_.pOf,
                                                     of_cnt);
                                    rec->onPort(
                                        SchedPort::Weight,
                                        std::uint64_t(if_cnt) * of_cnt);
                                    rec->onPort(SchedPort::Input,
                                                std::uint64_t(if_cnt));
                                    rec->onPort(SchedPort::OutputRead,
                                                std::uint64_t(of_cnt));
                                    rec->onPort(SchedPort::OutputWrite,
                                                std::uint64_t(of_cnt));
                                    const std::uint64_t cell =
                                        schedCellIndex(spec, of0, 0, oy,
                                                       ox);
                                    rec->onCellRead(cell,
                                                    std::uint64_t(of_cnt));
                                    rec->onCellWrite(
                                        cell, std::uint64_t(of_cnt));
                                }
                                const std::uint64_t active =
                                    std::uint64_t(if_cnt) * of_cnt;
                                if (in_bounds)
                                    st.effectiveMacs += active;
                                else
                                    st.ineffectualMacs += active;
                                st.idlePeSlots +=
                                    std::uint64_t(n_pes) - active;
                                // Ineffectual scheduled slots (padding,
                                // or structural zeros under the vanilla
                                // policy) still flow through the
                                // multipliers, so the fault hook visits
                                // them too; their fault-free product is
                                // zero.
                                if (!functional)
                                    continue;
                                path.cycle(proj.key(c0, oy, ox, ky, kx),
                                           active);
                                if (path.visits(in_bounds)) {
                                    for (int c = c0; c < c0 + if_cnt; ++c)
                                        macRow(path, spec, *w, *out,
                                               in->getPadded(0, c, iy, ix),
                                               in_bounds,
                                               (c - c0) * unroll_.pOf, of0,
                                               of_cnt, c, oy, ox, ky, kx);
                                }
                            }
                        } else {
                            // Four-dimension outputs: nothing to
                            // accumulate across input maps, so the
                            // adder tree idles P_of*(P_if-1) PEs and
                            // input maps go through sequentially.
                            for (int c = 0; c < spec.nif; ++c) {
                                st.cycles += 1;
                                st.weightLoads += std::uint64_t(of_cnt);
                                st.inputLoads += 1;
                                st.outputReads += std::uint64_t(of_cnt);
                                st.outputWrites += std::uint64_t(of_cnt);
                                if (rec) {
                                    rec->onCycle();
                                    rec->onLanes(0, of_cnt);
                                    rec->onPort(SchedPort::Weight,
                                                std::uint64_t(of_cnt));
                                    rec->onPort(SchedPort::Input, 1);
                                    rec->onPort(SchedPort::OutputRead,
                                                std::uint64_t(of_cnt));
                                    rec->onPort(SchedPort::OutputWrite,
                                                std::uint64_t(of_cnt));
                                    const std::uint64_t cell =
                                        schedCellIndex(spec, of0, c, oy,
                                                       ox);
                                    rec->onCellRead(cell,
                                                    std::uint64_t(of_cnt));
                                    rec->onCellWrite(
                                        cell, std::uint64_t(of_cnt));
                                }
                                const std::uint64_t active =
                                    std::uint64_t(of_cnt);
                                if (in_bounds)
                                    st.effectiveMacs += active;
                                else
                                    st.ineffectualMacs += active;
                                st.idlePeSlots +=
                                    std::uint64_t(n_pes) - active;
                                if (!functional)
                                    continue;
                                path.cycle(proj.key(c, oy, ox, ky, kx),
                                           active);
                                if (path.visits(in_bounds))
                                    macRow(path, spec, *w, *out,
                                           in->getPadded(0, c, iy, ix),
                                           in_bounds, 0, of0, of_cnt, c, oy,
                                           ox, ky, kx);
                            }
                        }
                    }
                }
            }
        }
    }
    if (rec)
        rec->onWindowEnd();
    return st;
}

bool
Nlr::scheduleModel(const ConvSpec &spec, ScheduleModel &model) const
{
    model = nlrModel(unroll_, spec, policy_ == ZeroPolicy::Skip);
    return true;
}

} // namespace sim
} // namespace ganacc
