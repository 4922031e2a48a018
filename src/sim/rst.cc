/**
 * @file
 * Row-stationary cycle-level model.
 */

#include "sim/rst.hh"

#include <algorithm>

#include "util/logging.hh"

namespace ganacc {
namespace sim {

using tensor::Tensor;

RunStats
Rst::doRun(const ConvSpec &spec, const Tensor *in, const Tensor *w,
           Tensor *out) const
{
    const bool functional = in != nullptr;
    const int n_pes = numPes();
    ScheduleRecorder *const rec = scheduleRecorder();
    RunStats st;

    const int ktiles = (spec.kh + unroll_.pKy - 1) / unroll_.pKy;

    // Partial sums read-modify-write the zero-initialized output
    // buffer between channel passes: one job-wide window.
    if (rec)
        rec->onWindowBegin(std::uint64_t(spec.nof) * spec.oh * spec.ow *
                               (spec.fourDimOutput ? spec.nif : 1),
                           WindowKind::WriteThrough);

    for (int of0 = 0; of0 < spec.nof; of0 += unroll_.pOf) {
        const int of_cnt = std::min(unroll_.pOf, spec.nof - of0);
        for (int kt = 0; kt < ktiles; ++kt) {
            const int ky0 = kt * unroll_.pKy;
            const int ky_cnt = std::min(unroll_.pKy, spec.kh - ky0);
            for (int oy0 = 0; oy0 < spec.oh; oy0 += unroll_.pOy) {
                const int oy_cnt =
                    std::min(unroll_.pOy, spec.oh - oy0);
                const int grid = ky_cnt * oy_cnt;
                for (int c = 0; c < spec.nif; ++c) {
                    // Kernel rows load once per pass per channel.
                    st.weightLoads +=
                        std::uint64_t(ky_cnt) * spec.kw * of_cnt;
                    // Input rows enter the diagonals once per pass:
                    // the tile's footprint of distinct elements.
                    const int rows_touched =
                        (oy_cnt - 1) * spec.stride + ky_cnt;
                    const int cols_touched =
                        (spec.ow - 1) * spec.stride + spec.kw;
                    st.inputLoads +=
                        std::uint64_t(rows_touched) * cols_touched;
                    if (rec) {
                        rec->onPort(SchedPort::Weight,
                                    std::uint64_t(ky_cnt) * spec.kw *
                                        of_cnt);
                        rec->onPort(SchedPort::Input,
                                    std::uint64_t(rows_touched) *
                                        cols_touched);
                    }

                    for (int ox = 0; ox < spec.ow; ++ox) {
                        for (int kx = 0; kx < spec.kw; ++kx) {
                            // ---- one cycle: every PE of the grid
                            // advances its 1-D convolution ----
                            st.cycles += 1;
                            if (rec) {
                                rec->onCycle();
                                for (int dk = 0; dk < ky_cnt; ++dk)
                                    for (int dy = 0; dy < oy_cnt; ++dy)
                                        rec->onLanes(
                                            (dk * unroll_.pOy + dy) *
                                                unroll_.pOf,
                                            of_cnt);
                            }
                            int eff = 0;
                            for (int dk = 0; dk < ky_cnt; ++dk) {
                                int ky = ky0 + dk;
                                bool krow_zero =
                                    spec.kernelIsZero(ky, kx);
                                for (int dy = 0; dy < oy_cnt; ++dy) {
                                    int oy = oy0 + dy;
                                    int iy = oy * spec.stride + ky -
                                             spec.pad;
                                    int ix = ox * spec.stride + kx -
                                             spec.pad;
                                    bool in_ok =
                                        iy >= 0 && iy < spec.ih &&
                                        ix >= 0 && ix < spec.iw &&
                                        !spec.inputIsZero(iy, ix);
                                    if (in_ok && !krow_zero) {
                                        ++eff;
                                        // Gated slots never reach the
                                        // hook: clock gating keeps the
                                        // multiplier output from the
                                        // accumulator, so a fault there
                                        // is masked by construction.
                                        if (functional) {
                                            float v =
                                                in->get(0, c, iy, ix);
                                            for (int f = 0; f < of_cnt;
                                                 ++f) {
                                                int of = of0 + f;
                                                int wc =
                                                    spec.fourDimOutput
                                                        ? 0
                                                        : c;
                                                float ww = w->get(
                                                    of, wc, ky, kx);
                                                const MacContext ctx{
                                                    (dk * unroll_.pOy +
                                                     dy) *
                                                            unroll_.pOf +
                                                        f,
                                                    of, c, oy, ox, ky,
                                                    kx};
                                                float p = macProduct(
                                                    v, ww, ctx);
                                                if (spec.fourDimOutput)
                                                    out->ref(of, c, oy,
                                                             ox) += p;
                                                else
                                                    out->ref(0, of, oy,
                                                             ox) += p;
                                            }
                                        }
                                    }
                                }
                            }
                            // Gated slots: scheduled but zero-operand.
                            const std::uint64_t gated =
                                std::uint64_t(grid - eff) * of_cnt;
                            st.gatedSlots += gated;
                            st.effectiveMacs +=
                                std::uint64_t(eff) * of_cnt;
                            st.ineffectualMacs += gated;
                            st.idlePeSlots +=
                                std::uint64_t(n_pes) -
                                std::uint64_t(grid) * of_cnt;
                        }
                    }
                    // Partial sums spill per channel pass (psums
                    // accumulate down the columns, then read-modify-
                    // write the buffer between passes).
                    st.outputReads +=
                        std::uint64_t(oy_cnt) * spec.ow * of_cnt;
                    st.outputWrites +=
                        std::uint64_t(oy_cnt) * spec.ow * of_cnt;
                    if (rec) {
                        rec->onPort(SchedPort::OutputRead,
                                    std::uint64_t(oy_cnt) * spec.ow *
                                        of_cnt);
                        rec->onPort(SchedPort::OutputWrite,
                                    std::uint64_t(oy_cnt) * spec.ow *
                                        of_cnt);
                        for (int dy = 0; dy < oy_cnt; ++dy)
                            for (int ox = 0; ox < spec.ow; ++ox) {
                                const std::uint64_t cell =
                                    schedCellIndex(spec, of0, c,
                                                   oy0 + dy, ox);
                                rec->onCellRead(cell,
                                                std::uint64_t(of_cnt));
                                rec->onCellWrite(cell,
                                                 std::uint64_t(of_cnt));
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

} // namespace sim
} // namespace ganacc
