/**
 * @file
 * The output-stationary cycle-level model (OST and ZFOST).
 */

#include "sim/output_stationary.hh"

#include <algorithm>
#include <vector>

#include "sim/closed_form.hh"

namespace ganacc {
namespace sim {

using tensor::Tensor;

RunStats
OutputStationary::doRun(const ConvSpec &spec, const Tensor *in,
                        const Tensor *w, Tensor *out) const
{
    const bool functional = in != nullptr;
    const int n_pes = numPes();
    ScheduleRecorder *const rec = schedRec();
    // A cycle fixes (c, ky, kx) and spans the tile's positions.
    const CycleProjection proj{
        {std::uint64_t(spec.kh) * spec.kw, 0, 0, std::uint64_t(spec.kw), 1}};
    MacPath path(faultHook(), proj);
    // A raster feed on a strided job loses the register array's shift
    // alignment and reloads the whole tile every cycle (Fig. 7(b)).
    const bool shifts = reordered_feed_ || spec.stride == 1;
    RunStats st;
    // The tile's partial sums live in a register block for each
    // accumulation window; each cycle stages its weights beside it.
    RegisterBlock block;
    std::vector<float> wts;
    if (functional)
        wts.resize(std::size_t(unroll_.pOf));

    for (const ParityClass &cls : parityClasses(spec, zero_free_)) {
        if (cls.empty())
            continue;
        const int n_y = cls.y.count, n_x = cls.x.count;
        for (int of0 = 0; of0 < spec.nof; of0 += unroll_.pOf) {
            const int of_cnt = std::min(unroll_.pOf, spec.nof - of0);
            for (int t_y0 = 0; t_y0 < n_y; t_y0 += unroll_.pOy) {
                const int ty_cnt = std::min(unroll_.pOy, n_y - t_y0);
                for (int t_x0 = 0; t_x0 < n_x; t_x0 += unroll_.pOx) {
                    const int tx_cnt = std::min(unroll_.pOx, n_x - t_x0);
                    const int tile = ty_cnt * tx_cnt;
                    const std::uint64_t cells = std::uint64_t(tile) * of_cnt;
                    if (functional)
                        block.place(of0, of_cnt,
                                    cls.y.first + t_y0 * cls.step,
                                    cls.x.first + t_x0 * cls.step, cls.step,
                                    ty_cnt, tx_cnt);
                    // The accumulation window of the output-stationary
                    // register array: cleared at tile start, drained
                    // once the tile's contributions are complete — per
                    // input map for four-dimension outputs, per whole
                    // nif loop otherwise.
                    if (rec && !spec.fourDimOutput)
                        rec->onWindowBegin(cells, WindowKind::RegisterTile);
                    if (functional && !spec.fourDimOutput)
                        block.load(spec, *out, 0);
                    for (int c = 0; c < spec.nif; ++c) {
                        if (rec && spec.fourDimOutput)
                            rec->onWindowBegin(cells,
                                               WindowKind::RegisterTile);
                        if (functional && spec.fourDimOutput)
                            block.load(spec, *out, c);
                        bool first_kpos = true;
                        for (int ky : cls.y.taps) {
                            bool row_start = true;
                            for (int kx : cls.x.taps) {
                                // ---- one cycle ----
                                st.cycles += 1;
                                st.weightLoads += std::uint64_t(of_cnt);
                                // Register-array reuse: full tile load
                                // once per (tile, c); later weights
                                // shift in one new column (or row at a
                                // ky step).
                                std::uint64_t in_words;
                                if (first_kpos || !shifts)
                                    in_words = std::uint64_t(tile);
                                else if (row_start)
                                    in_words = std::uint64_t(tx_cnt);
                                else
                                    in_words = std::uint64_t(ty_cnt);
                                first_kpos = row_start = false;
                                st.inputLoads += in_words;
                                if (rec) {
                                    rec->onCycle();
                                    rec->onPort(SchedPort::Weight,
                                                std::uint64_t(of_cnt));
                                    rec->onPort(SchedPort::Input, in_words);
                                    for (int dy = 0; dy < ty_cnt; ++dy)
                                        for (int dx = 0; dx < tx_cnt; ++dx)
                                            rec->onLanes(
                                                (dy * unroll_.pOx + dx) *
                                                    unroll_.pOf,
                                                of_cnt);
                                    rec->onCellWrite(0, cells);
                                }

                                // Occupancy: a zero kernel tap wastes
                                // the tile (only OST streams one);
                                // otherwise padding, stuffing zeros and
                                // trailing (output-pad) rows can still
                                // be ineffectual — zero-free parity
                                // classes leave only the first and last.
                                const bool k_zero =
                                    spec.kernelIsZero(ky, kx);
                                const int eff_pos =
                                    k_zero
                                        ? 0
                                        : cls.nonzeroRows(spec, t_y0,
                                                          ty_cnt, ky) *
                                              cls.nonzeroCols(spec, t_x0,
                                                              tx_cnt, kx);
                                st.effectiveMacs +=
                                    std::uint64_t(eff_pos) * of_cnt;
                                st.ineffectualMacs +=
                                    std::uint64_t(tile - eff_pos) * of_cnt;
                                st.idlePeSlots +=
                                    std::uint64_t(n_pes) - cells;

                                if (!functional)
                                    continue;
                                // Zero-valued inputs contribute nothing
                                // but are still scheduled on the tile's
                                // multipliers, so the fault hook may
                                // ask to see them. A structural-zero
                                // tap is visited too, but only a hook
                                // that presents its row multiplies it;
                                // in any other cycle it does nothing.
                                const bool hooked = path.cycle(
                                    proj.key(c, 0, 0, ky, kx), cells);
                                if (!hooked && k_zero)
                                    continue;
                                // Weights are staged on the first row
                                // that needs them; in a cycle the hook
                                // does not see, a row of padding has
                                // nothing to multiply.
                                bool staged = false;
                                for (int dy = 0; dy < ty_cnt; ++dy) {
                                    const int oy =
                                        cls.y.first + (t_y0 + dy) * cls.step;
                                    const int iy =
                                        oy * spec.stride + ky - spec.pad;
                                    if (!hooked && (iy < 0 || iy >= spec.ih))
                                        continue;
                                    for (int dx = 0; dx < tx_cnt; ++dx) {
                                        const int ox =
                                            cls.x.first +
                                            (t_x0 + dx) * cls.step;
                                        const float v = in->getPadded(
                                            0, c, iy,
                                            ox * spec.stride + kx -
                                                spec.pad);
                                        if (!path.visits(v != 0.0f))
                                            continue;
                                        if (!staged) {
                                            stageWeights(spec, *w, of0,
                                                         of_cnt, c, ky, kx,
                                                         wts.data());
                                            staged = true;
                                        }
                                        const int lane0 =
                                            (dy * unroll_.pOx + dx) *
                                            unroll_.pOf;
                                        blockMacRow(
                                            path, block.at(dy, dx),
                                            wts.data(), v,
                                            v != 0.0f && !k_zero,
                                            MacContext{lane0, of0, c, oy,
                                                       ox, ky, kx},
                                            of_cnt);
                                    }
                                }
                            }
                        }
                        // Four-dimension outputs leave the array per
                        // input feature map (a fresh (of, if) plane).
                        if (spec.fourDimOutput) {
                            if (functional)
                                block.store(spec, *out, c);
                            st.outputWrites += cells;
                            if (rec) {
                                rec->onPort(SchedPort::OutputWrite, cells);
                                rec->onDrain(0, cells);
                                rec->onWindowEnd();
                            }
                        }
                    }
                    // Accumulating convs keep partial sums in the PE
                    // registers across the whole nif loop and write once.
                    if (!spec.fourDimOutput) {
                        if (functional)
                            block.store(spec, *out, 0);
                        st.outputWrites += cells;
                        if (rec) {
                            rec->onPort(SchedPort::OutputWrite, cells);
                            rec->onDrain(0, cells);
                            rec->onWindowEnd();
                        }
                    }
                }
            }
        }
    }
    return st;
}

bool
OutputStationary::scheduleModel(const ConvSpec &spec,
                                ScheduleModel &model) const
{
    model = outputStationaryModel(unroll_, spec, zero_free_, reordered_feed_);
    return true;
}

} // namespace sim
} // namespace ganacc
