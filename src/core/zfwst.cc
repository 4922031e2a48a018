/**
 * @file
 * ZFWST cycle-level model.
 */

#include "core/zfwst.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/closed_form.hh"

namespace ganacc {
namespace core {

using sim::ConvSpec;
using sim::RunStats;
using tensor::Tensor;

RunStats
Zfwst::doRun(const ConvSpec &spec, const Tensor *in, const Tensor *w,
             Tensor *out) const
{
    const bool functional = in != nullptr;
    const int n_pes = numPes();
    const int resident_cap = unroll_.pKx * unroll_.pKy;
    sim::ScheduleRecorder *const rec = schedRec();
    // A cycle fixes (c, oy, ox) and spans the resident taps.
    const CycleProjection proj{
        {std::uint64_t(spec.oh) * spec.ow, std::uint64_t(spec.ow), 1, 0, 0}};
    MacPath path(faultHook(), proj);
    RunStats st;
    // Per input row and column: not a structural zero.
    std::vector<char> row_live(std::size_t(spec.ih)),
        col_live(std::size_t(spec.iw));
    for (int iy = 0; iy < spec.ih; ++iy)
        row_live[std::size_t(iy)] = !spec.inputRowZero(iy);
    for (int ix = 0; ix < spec.iw; ++ix)
        col_live[std::size_t(ix)] = !spec.inputColZero(ix);
    // The register block holds the (class, of-tile) partial sums; the
    // resident weights are staged [tap][of], a tap's run at its first
    // lane.
    RegisterBlock block;
    std::vector<float> wts;
    if (functional)
        wts.resize(std::size_t(n_pes));

    for (const sim::ParityClass &cls : sim::parityClasses(spec, true)) {
        if (cls.empty())
            continue;
        const int n_y = cls.y.count, n_x = cls.x.count;
        // The class's effective kernel elements, row-major.
        std::vector<std::pair<int, int>> eff;
        for (int ky : cls.y.taps)
            for (int kx : cls.x.taps)
                eff.emplace_back(ky, kx);
        const int n_chunks =
            int((eff.size() + resident_cap - 1) / resident_cap);

        const std::uint64_t positions = std::uint64_t(n_y) * n_x;
        for (int of0 = 0; of0 < spec.nof; of0 += unroll_.pOf) {
            const int of_cnt = std::min(unroll_.pOf, spec.nof - of0);
            if (functional) {
                block.place(of0, of_cnt, cls.y.first, cls.x.first, cls.step,
                            n_y, n_x);
                if (!spec.fourDimOutput)
                    block.load(spec, *out, 0);
            }
            // The ping-pong partial-result buffer window for this
            // class/of-tile: NOT zero-initialized — the first
            // chunk's writes create every cell, later passes
            // read-modify-write, and the final pass's writes drain
            // the window.
            if (rec)
                rec->onWindowBegin(
                    positions * of_cnt *
                        (spec.fourDimOutput ? std::uint64_t(spec.nif)
                                            : 1),
                    sim::WindowKind::AccumBuffer);
            for (int chunk = 0; chunk < n_chunks; ++chunk) {
                const int e0 = chunk * resident_cap;
                const int e_cnt = std::min(
                    resident_cap, int(eff.size()) - e0);
                // Resident weights load once per pass per channel.
                st.weightLoads += std::uint64_t(e_cnt) * of_cnt;
                if (rec)
                    rec->onPort(sim::SchedPort::Weight,
                                std::uint64_t(e_cnt) * of_cnt);

                for (int c = 0; c < spec.nif; ++c) {
                    if (functional) {
                        if (spec.fourDimOutput)
                            block.load(spec, *out, c);
                        for (int e = e0; e < e0 + e_cnt; ++e)
                            stageWeights(spec, *w, of0, of_cnt, c,
                                         eff[e].first, eff[e].second,
                                         wts.data() +
                                             (e - e0) * unroll_.pOf);
                    }
                    bool first_out = true;
                    for (int t_y = 0; t_y < n_y; ++t_y) {
                        for (int t_x = 0; t_x < n_x; ++t_x) {
                            // ---- one cycle: one output neuron
                            // per channel via the adder tree ----
                            st.cycles += 1;
                            const int oy = cls.y.first + t_y * cls.step;
                            const int ox = cls.x.first + t_x * cls.step;
                            if (functional)
                                path.cycle(proj.key(c, oy, ox, 0, 0),
                                           std::uint64_t(e_cnt) * of_cnt);
                            int eff_cnt = 0;
                            for (int e = e0; e < e0 + e_cnt; ++e) {
                                const auto [ky, kx] = eff[e];
                                int iy = oy * spec.stride + ky -
                                         spec.pad;
                                int ix = ox * spec.stride + kx -
                                         spec.pad;
                                bool useful =
                                    iy >= 0 && iy < spec.ih &&
                                    ix >= 0 && ix < spec.iw &&
                                    row_live[std::size_t(iy)] &&
                                    col_live[std::size_t(ix)];
                                if (useful)
                                    ++eff_cnt;
                                // Residual padding/zero slots in a
                                // chunk still occupy multiplier
                                // lanes; the fault hook may visit
                                // them.
                                if (functional && path.visits(useful)) {
                                    const int lane0 =
                                        (e - e0) * unroll_.pOf;
                                    blockMacRow(
                                        path, block.at(t_y, t_x),
                                        wts.data() + lane0,
                                        in->getPadded(0, c, iy, ix),
                                        useful,
                                        sim::MacContext{lane0, of0, c, oy,
                                                        ox, ky, kx},
                                        of_cnt);
                                }
                            }
                            st.effectiveMacs +=
                                std::uint64_t(eff_cnt) * of_cnt;
                            st.ineffectualMacs +=
                                std::uint64_t(e_cnt - eff_cnt) *
                                of_cnt;
                            st.idlePeSlots +=
                                std::uint64_t(n_pes) -
                                std::uint64_t(e_cnt) * of_cnt;
                            // Register-array traffic: footprint on
                            // the first output of a pass, then a
                            // column shift per step.
                            std::uint64_t in_words;
                            if (first_out) {
                                in_words = std::uint64_t(e_cnt);
                                first_out = false;
                            } else {
                                in_words = std::uint64_t(
                                    std::min(e_cnt, unroll_.pKy));
                            }
                            st.inputLoads += in_words;
                            // One adder-tree result per channel;
                            // later passes accumulate through the
                            // ping-pong partial-result buffer.
                            st.outputWrites += std::uint64_t(of_cnt);
                            const bool accumulating =
                                chunk > 0 ||
                                (!spec.fourDimOutput && c > 0);
                            if (accumulating)
                                st.outputReads +=
                                    std::uint64_t(of_cnt);
                            if (rec) {
                                rec->onCycle();
                                for (int e = 0; e < e_cnt; ++e)
                                    rec->onLanes(e * unroll_.pOf,
                                                 of_cnt);
                                rec->onPort(sim::SchedPort::Input,
                                            in_words);
                                rec->onPort(
                                    sim::SchedPort::OutputWrite,
                                    std::uint64_t(of_cnt));
                                if (accumulating)
                                    rec->onPort(
                                        sim::SchedPort::OutputRead,
                                        std::uint64_t(of_cnt));
                                const std::uint64_t cell =
                                    ((spec.fourDimOutput
                                          ? std::uint64_t(c)
                                          : 0) *
                                         positions +
                                     std::uint64_t(t_y) * n_x + t_x) *
                                    of_cnt;
                                if (accumulating)
                                    rec->onCellRead(
                                        cell, std::uint64_t(of_cnt));
                                rec->onCellWrite(
                                    cell, std::uint64_t(of_cnt));
                                // The final pass's writes are the
                                // drain: nothing reads this cell
                                // again inside the window.
                                if (chunk == n_chunks - 1 &&
                                    (spec.fourDimOutput ||
                                     c == spec.nif - 1))
                                    rec->onDrain(
                                        cell, std::uint64_t(of_cnt));
                            }
                        }
                    }
                    if (functional && spec.fourDimOutput)
                        block.store(spec, *out, c);
                }
            }
            if (functional && !spec.fourDimOutput)
                block.store(spec, *out, 0);
            if (rec)
                rec->onWindowEnd();
        }
    }
    return st;
}

bool
Zfwst::scheduleModel(const ConvSpec &spec, sim::ScheduleModel &model) const
{
    model = sim::zfwstModel(unroll_, spec);
    return true;
}

} // namespace core
} // namespace ganacc
