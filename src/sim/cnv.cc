/**
 * @file
 * Cnvlutin-style cycle-level model.
 */

#include "sim/cnv.hh"

#include <algorithm>
#include <vector>

#include "util/logging.hh"

namespace ganacc {
namespace sim {

using tensor::Tensor;

RunStats
Cnv::doRun(const ConvSpec &spec, const Tensor *in, const Tensor *w,
           Tensor *out) const
{
    GANACC_ASSERT(in != nullptr,
                  "CNV skips zeros by value inspection and needs "
                  "functional operands (timing-only runs are "
                  "impossible by construction)");
    const int n_pes = numPes();
    ScheduleRecorder *const rec = scheduleRecorder();
    RunStats st;

    // Partial sums accumulate in the zero-initialized output buffer:
    // one job-wide write-through window.
    if (rec)
        rec->onWindowBegin(std::uint64_t(spec.nof) * spec.oh * spec.ow *
                               (spec.fourDimOutput ? spec.nif : 1),
                           WindowKind::WriteThrough);

    for (int of0 = 0; of0 < spec.nof; of0 += unroll_.pOf) {
        const int of_cnt = std::min(unroll_.pOf, spec.nof - of0);
        for (int oy = 0; oy < spec.oh; ++oy) {
            for (int ox = 0; ox < spec.ow; ++ox) {
                if (!spec.fourDimOutput) {
                    // Lanes own interleaved channels; each streams its
                    // non-zero (activation, offset) pairs for this
                    // window and the slowest lane paces the window.
                    std::vector<std::uint64_t> lane_nz(
                        std::size_t(unroll_.pIf), 0);
                    std::uint64_t window_nz = 0;
                    for (int c = 0; c < spec.nif; ++c) {
                        const int lane = c % unroll_.pIf;
                        for (int ky = 0; ky < spec.kh; ++ky)
                            for (int kx = 0; kx < spec.kw; ++kx) {
                                int iy = oy * spec.stride + ky -
                                         spec.pad;
                                int ix = ox * spec.stride + kx -
                                         spec.pad;
                                float v = in->getPadded(0, c, iy, ix);
                                if (v == 0.0f)
                                    continue;
                                ++lane_nz[std::size_t(lane)];
                                ++window_nz;
                                // Zero activations never reach the
                                // array (the encoded stream drops
                                // them), so only these products are
                                // presented to the fault hook.
                                for (int f = 0; f < of_cnt; ++f) {
                                    const int of = of0 + f;
                                    out->ref(0, of, oy, ox) +=
                                        macProduct(
                                            v, w->get(of, c, ky, kx),
                                            MacContext{
                                                lane * unroll_.pOf + f,
                                                of, c, oy, ox, ky, kx});
                                }
                            }
                    }
                    std::uint64_t window_cycles = 0;
                    for (auto nz : lane_nz)
                        window_cycles = std::max(window_cycles, nz);
                    if (rec) {
                        // Narrate the window the walk just summed:
                        // cycle k runs every lane still holding a
                        // non-zero pair, and the adder tree read-
                        // modify-writes the window's partial each
                        // cycle. Totals match the bulk counts below.
                        const std::uint64_t cell =
                            schedCellIndex(spec, of0, 0, oy, ox);
                        for (std::uint64_t k = 0; k < window_cycles;
                             ++k) {
                            rec->onCycle();
                            std::uint64_t active = 0;
                            for (int lane = 0; lane < unroll_.pIf;
                                 ++lane)
                                if (lane_nz[std::size_t(lane)] > k) {
                                    rec->onLanes(lane * unroll_.pOf,
                                                 of_cnt);
                                    ++active;
                                }
                            rec->onPort(SchedPort::Input, active);
                            rec->onPort(SchedPort::Weight,
                                        active * of_cnt);
                            rec->onPort(SchedPort::OutputRead,
                                        std::uint64_t(of_cnt));
                            rec->onPort(SchedPort::OutputWrite,
                                        std::uint64_t(of_cnt));
                            rec->onCellRead(cell, std::uint64_t(of_cnt));
                            rec->onCellWrite(cell,
                                             std::uint64_t(of_cnt));
                        }
                    }
                    st.cycles += window_cycles;
                    st.effectiveMacs += window_nz * of_cnt;
                    st.idlePeSlots +=
                        window_cycles * std::uint64_t(n_pes) -
                        window_nz * of_cnt;
                    // Encoded activation stream: one read per
                    // non-zero; weights indexed by its offset.
                    st.inputLoads += window_nz;
                    st.weightLoads += window_nz * of_cnt;
                    st.outputReads += window_cycles * of_cnt;
                    st.outputWrites += window_cycles * of_cnt;
                } else {
                    // Four-dimension outputs: nothing to accumulate
                    // across lanes, channels stream sequentially. And
                    // Cnvlutin skips zero *activations* only — the
                    // zero-inserted kernel of Dw still burns cycles
                    // (the Section VII critique: it "could not handle
                    // the zero-inserting in the kernel for W-CONV").
                    for (int c = 0; c < spec.nif; ++c) {
                        std::uint64_t nz = 0, wasted = 0;
                        for (int ky = 0; ky < spec.kh; ++ky)
                            for (int kx = 0; kx < spec.kw; ++kx) {
                                int iy = oy * spec.stride + ky -
                                         spec.pad;
                                int ix = ox * spec.stride + kx -
                                         spec.pad;
                                float v = in->getPadded(0, c, iy, ix);
                                if (v == 0.0f)
                                    continue;
                                const bool k_zero =
                                    spec.kernelIsZero(ky, kx);
                                if (k_zero)
                                    ++wasted;
                                else
                                    ++nz;
                                // Kernel-zero steps still burn cycles
                                // on the array (Section VII critique),
                                // so the fault hook may visit them.
                                if (k_zero && !faultVisitsIneffectual())
                                    continue;
                                for (int f = 0; f < of_cnt; ++f) {
                                    const int of = of0 + f;
                                    out->ref(of, c, oy, ox) +=
                                        macProduct(
                                            v, w->get(of, 0, ky, kx),
                                            MacContext{f, of, c, oy, ox,
                                                       ky, kx});
                                }
                            }
                        const std::uint64_t steps = nz + wasted;
                        if (rec) {
                            const std::uint64_t cell =
                                schedCellIndex(spec, of0, c, oy, ox);
                            for (std::uint64_t k = 0; k < steps; ++k) {
                                rec->onCycle();
                                rec->onLanes(0, of_cnt);
                                rec->onPort(SchedPort::Input, 1);
                                rec->onPort(SchedPort::Weight,
                                            std::uint64_t(of_cnt));
                                rec->onPort(SchedPort::OutputRead,
                                            std::uint64_t(of_cnt));
                                rec->onPort(SchedPort::OutputWrite,
                                            std::uint64_t(of_cnt));
                                rec->onCellRead(cell,
                                                std::uint64_t(of_cnt));
                                rec->onCellWrite(cell,
                                                 std::uint64_t(of_cnt));
                            }
                        }
                        st.cycles += steps;
                        st.effectiveMacs += nz * of_cnt;
                        st.ineffectualMacs += wasted * of_cnt;
                        st.idlePeSlots +=
                            steps * std::uint64_t(n_pes) -
                            steps * of_cnt;
                        st.inputLoads += steps;
                        st.weightLoads += steps * of_cnt;
                        st.outputReads += steps * of_cnt;
                        st.outputWrites += steps * of_cnt;
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
