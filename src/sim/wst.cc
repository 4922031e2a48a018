/**
 * @file
 * WST cycle-level model.
 */

#include "sim/wst.hh"

#include <algorithm>

#include "sim/closed_form.hh"
#include "util/logging.hh"

namespace ganacc {
namespace sim {

using tensor::Tensor;

RunStats
Wst::doRun(const ConvSpec &spec, const Tensor *in, const Tensor *w,
           Tensor *out) const
{
    const bool functional = in != nullptr;
    const int n_pes = numPes();
    ScheduleRecorder *const rec = schedRec();
    MacPath path(faultHook());
    RunStats st;

    const int ktiles_y = (spec.kh + unroll_.pKy - 1) / unroll_.pKy;
    const int ktiles_x = (spec.kw + unroll_.pKx - 1) / unroll_.pKx;

    // Partial sums accumulate in the zero-initialized output buffer
    // across every pass: one job-wide write-through window.
    if (rec)
        rec->onWindowBegin(std::uint64_t(spec.nof) * spec.oh * spec.ow *
                               (spec.fourDimOutput ? spec.nif : 1),
                           WindowKind::WriteThrough);

    for (int of0 = 0; of0 < spec.nof; of0 += unroll_.pOf) {
        const int of_cnt = std::min(unroll_.pOf, spec.nof - of0);
        for (int kty = 0; kty < ktiles_y; ++kty) {
            const int ky0 = kty * unroll_.pKy;
            const int ky_cnt = std::min(unroll_.pKy, spec.kh - ky0);
            for (int ktx = 0; ktx < ktiles_x; ++ktx) {
                const int kx0 = ktx * unroll_.pKx;
                const int kx_cnt = std::min(unroll_.pKx, spec.kw - kx0);
                // Load the resident weight tile once per pass.
                st.weightLoads +=
                    std::uint64_t(ky_cnt) * kx_cnt * of_cnt;
                if (rec)
                    rec->onPort(SchedPort::Weight,
                                std::uint64_t(ky_cnt) * kx_cnt * of_cnt);

                for (int c = 0; c < spec.nif; ++c) {
                    for (int iy = 0; iy < spec.ih; ++iy) {
                        for (int ix = 0; ix < spec.iw; ++ix) {
                            // ---- one cycle: broadcast in(c,iy,ix) ----
                            st.cycles += 1;
                            st.inputLoads += 1;
                            if (rec) {
                                rec->onCycle();
                                rec->onPort(SchedPort::Input, 1);
                            }
                            const bool in_zero =
                                spec.inputIsZero(iy, ix);
                            int eff = 0, ineff = 0, contrib = 0;
                            for (int ky = ky0; ky < ky0 + ky_cnt; ++ky) {
                                int ny = iy - ky + spec.pad;
                                if (ny < 0 || ny % spec.stride != 0)
                                    continue;
                                int oy = ny / spec.stride;
                                if (oy >= spec.oh)
                                    continue;
                                for (int kx = kx0; kx < kx0 + kx_cnt;
                                     ++kx) {
                                    int nx = ix - kx + spec.pad;
                                    if (nx < 0 ||
                                        nx % spec.stride != 0)
                                        continue;
                                    int ox = nx / spec.stride;
                                    if (ox >= spec.ow)
                                        continue;
                                    ++contrib;
                                    if (rec) {
                                        rec->onLanes(
                                            ((ky - ky0) * unroll_.pKx +
                                             (kx - kx0)) *
                                                unroll_.pOf,
                                            of_cnt);
                                        const std::uint64_t cell =
                                            schedCellIndex(spec, of0, c,
                                                           oy, ox);
                                        rec->onCellRead(
                                            cell, std::uint64_t(of_cnt));
                                        rec->onCellWrite(
                                            cell, std::uint64_t(of_cnt));
                                    }
                                    bool useful =
                                        !in_zero &&
                                        !spec.kernelIsZero(ky, kx);
                                    if (useful)
                                        ++eff;
                                    else
                                        ++ineff;
                                    // Zero-operand slots still occupy
                                    // the multipliers, so visit them
                                    // for the fault hook on request.
                                    if (functional && path.visits(useful))
                                        macRow(path, spec, *w, *out,
                                               in->get(0, c, iy, ix), useful,
                                               ((ky - ky0) * unroll_.pKx +
                                                (kx - kx0)) *
                                                   unroll_.pOf,
                                               of0, of_cnt, c, oy, ox, ky,
                                               kx);
                                }
                            }
                            st.effectiveMacs +=
                                std::uint64_t(eff) * of_cnt;
                            st.ineffectualMacs +=
                                std::uint64_t(ineff) * of_cnt;
                            st.idlePeSlots +=
                                std::uint64_t(n_pes) -
                                std::uint64_t(eff + ineff) * of_cnt;
                            // Every contribution is a read-modify-write
                            // of a different partial sum.
                            st.outputReads +=
                                std::uint64_t(contrib) * of_cnt;
                            st.outputWrites +=
                                std::uint64_t(contrib) * of_cnt;
                            if (rec) {
                                rec->onPort(SchedPort::OutputRead,
                                            std::uint64_t(contrib) *
                                                of_cnt);
                                rec->onPort(SchedPort::OutputWrite,
                                            std::uint64_t(contrib) *
                                                of_cnt);
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
Wst::scheduleModel(const ConvSpec &spec, ScheduleModel &model) const
{
    model = wstModel(unroll_, spec);
    return true;
}

} // namespace sim
} // namespace ganacc
