/**
 * @file
 * Improved-NLR cycle-level model.
 */

#include "sim/nlr.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/closed_form.hh"
#include "util/logging.hh"

namespace ganacc {
namespace sim {

using tensor::Tensor;

RunStats
Nlr::doRun(const ConvSpec &spec, const Tensor *in, const Tensor *w,
           Tensor *out) const
{
    const bool functional = in != nullptr;
    const bool four_d = spec.fourDimOutput;
    const int n_pes = numPes();
    ScheduleRecorder *const rec = schedRec();
    // A tap (oy, ox, ky, kx) is a run of cycles over the input maps:
    // pIf maps a cycle feeding the adder tree, or one on 4-D outputs,
    // which accumulate nothing across input maps and so idle
    // P_of*(P_if-1) PEs. The run shares one key: a tap settles at once.
    const std::uint64_t taps = std::uint64_t(spec.kh) * spec.kw;
    const CycleProjection proj{
        {0, taps * spec.ow, taps, std::uint64_t(spec.kw), 1}};
    MacPath path(faultHook(), proj);
    const int lanes = four_d ? 1 : unroll_.pIf;
    const std::uint64_t tap_cycles =
        std::uint64_t((spec.nif + lanes - 1) / lanes);
    RunStats st;

    // Per-axis structural zeros: a tap is zero when its kernel position
    // or its in-range input position is (padding burns the cycle like
    // any dense operand).
    std::vector<char> k_row0(std::size_t(spec.kh)),
        k_col0(std::size_t(spec.kw)), in_row0(std::size_t(spec.ih)),
        in_col0(std::size_t(spec.iw));
    for (int ky = 0; ky < spec.kh; ++ky)
        k_row0[std::size_t(ky)] = spec.kernelRowZero(ky);
    for (int kx = 0; kx < spec.kw; ++kx)
        k_col0[std::size_t(kx)] = spec.kernelColZero(kx);
    for (int iy = 0; iy < spec.ih; ++iy)
        in_row0[std::size_t(iy)] = spec.inputRowZero(iy);
    for (int ix = 0; ix < spec.iw; ++ix)
        in_col0[std::size_t(ix)] = spec.inputColZero(ix);

    // The partial sums at one output position live in a register
    // block: one [of] entry, or [c][of] planes on 4-D outputs. Each
    // tap's weights are staged once per of-tile: its [c][of] slice, or
    // its [of] run on 4-D jobs, whose kernel has one input map. Runs
    // are min(P_of, nof) floats apart, so the buffer holds no more than
    // one of-tile of the kernel. It is left uninitialized: staging
    // writes every float a row reads.
    const int k_maps = four_d ? 1 : spec.nif;
    const std::size_t of_span = std::size_t(std::min(unroll_.pOf, spec.nof));
    const std::size_t slice = std::size_t(k_maps) * of_span;
    RegisterBlock block;
    std::unique_ptr<float[]> wts;
    if (functional)
        wts = std::make_unique_for_overwrite<float[]>(std::size_t(taps) *
                                                      slice);
    const std::size_t in_plane =
        std::size_t(spec.ih) * std::size_t(spec.iw);

    // Partial sums live in the global output buffer, zero-initialized;
    // one job-wide write-through window covers every accumulation.
    if (rec)
        rec->onWindowBegin(std::uint64_t(spec.nof) * spec.oh * spec.ow *
                               (four_d ? spec.nif : 1),
                           WindowKind::WriteThrough);

    for (int of0 = 0; of0 < spec.nof; of0 += unroll_.pOf) {
        const int of_cnt = std::min(unroll_.pOf, spec.nof - of0);
        // What one tap's run of cycles counts.
        const std::uint64_t tap_macs = std::uint64_t(spec.nif) * of_cnt;
        const std::uint64_t tap_sums = tap_cycles * std::uint64_t(of_cnt);
        const std::uint64_t tap_idle =
            tap_cycles * std::uint64_t(n_pes) - tap_macs;
        if (functional) {
            float *dst = wts.get();
            for (int ky = 0; ky < spec.kh; ++ky)
                for (int kx = 0; kx < spec.kw; ++kx)
                    for (int c = 0; c < k_maps; ++c, dst += of_span)
                        stageWeights(spec, *w, of0, of_cnt, c, ky, kx, dst);
        }
        for (int oy = 0; oy < spec.oh; ++oy) {
            for (int ox = 0; ox < spec.ow; ++ox) {
                if (functional) {
                    block.place(of0, of_cnt, oy, ox, 1, 1, 1,
                                four_d ? spec.nif : 1);
                    block.load(spec, *out, 0);
                }
                for (int ky = 0; ky < spec.kh; ++ky) {
                    const int iy = oy * spec.stride + ky - spec.pad;
                    const bool y_in = iy >= 0 && iy < spec.ih;
                    for (int kx = 0; kx < spec.kw; ++kx) {
                        // Address-generation zero skipping: structurally
                        // zero kernel positions and zero-stuffed input
                        // positions never get scheduled (improved NLR);
                        // the vanilla dataflow executes them as wasted
                        // cycles.
                        const int ix = ox * spec.stride + kx - spec.pad;
                        const bool in_range =
                            y_in && ix >= 0 && ix < spec.iw;
                        const bool structural_zero =
                            k_row0[std::size_t(ky)] ||
                            k_col0[std::size_t(kx)] ||
                            (in_range && (in_row0[std::size_t(iy)] ||
                                          in_col0[std::size_t(ix)]));
                        if (structural_zero &&
                            policy_ == ZeroPolicy::Skip)
                            continue;
                        const bool in_bounds =
                            !structural_zero && in_range;

                        // The tap's whole run of cycles at once. Partial
                        // sums live in the buffer: one read-modify-write
                        // per output channel and cycle.
                        st.cycles += tap_cycles;
                        st.weightLoads += tap_macs;
                        st.inputLoads += std::uint64_t(spec.nif);
                        st.outputReads += tap_sums;
                        st.outputWrites += tap_sums;
                        if (in_bounds)
                            st.effectiveMacs += tap_macs;
                        else
                            st.ineffectualMacs += tap_macs;
                        st.idlePeSlots += tap_idle;

                        // Ineffectual scheduled slots (padding, or
                        // structural zeros under the vanilla policy)
                        // still flow through the multipliers, so the
                        // fault hook visits them too; their fault-free
                        // product is zero.
                        if (functional)
                            path.cycle(proj.key(0, oy, ox, ky, kx),
                                       tap_macs);
                        const bool rows =
                            functional && path.visits(in_bounds);
                        if (!rec && !rows)
                            continue;

                        // Row c: input map c on lane (c mod pIf) * P_of,
                        // its staged weights at k0 + c * k_c.
                        const float *v0 = nullptr, *k0 = nullptr;
                        const std::size_t k_c = four_d ? 0 : of_span;
                        if (rows) {
                            if (in_range)
                                v0 = in->data() +
                                     in->shape().offset(0, 0, iy, ix);
                            k0 = wts.get() +
                                 (std::size_t(ky) * std::size_t(spec.kw) +
                                  std::size_t(kx)) *
                                     slice;
                        }
                        const auto runRows = [&](int c_begin, int c_end) {
                            for (int c = c_begin; c < c_end; ++c)
                                blockMacRow(
                                    path, block.at(0, 0, four_d ? c : 0),
                                    k0 + std::size_t(c) * k_c,
                                    v0 ? v0[std::size_t(c) * in_plane]
                                       : 0.0f,
                                    in_bounds,
                                    MacContext{(c % lanes) * unroll_.pOf,
                                               of0, c, oy, ox, ky, kx},
                                    of_cnt);
                        };
                        if (!rec) {
                            runRows(0, spec.nif);
                            continue;
                        }
                        for (int c0 = 0; c0 < spec.nif; c0 += lanes) {
                            const int if_cnt =
                                std::min(lanes, spec.nif - c0);
                            rec->onCycle();
                            for (int ci = 0; ci < if_cnt; ++ci)
                                rec->onLanes(ci * unroll_.pOf, of_cnt);
                            rec->onPort(SchedPort::Weight,
                                        std::uint64_t(if_cnt) * of_cnt);
                            rec->onPort(SchedPort::Input,
                                        std::uint64_t(if_cnt));
                            rec->onPort(SchedPort::OutputRead,
                                        std::uint64_t(of_cnt));
                            rec->onPort(SchedPort::OutputWrite,
                                        std::uint64_t(of_cnt));
                            const std::uint64_t cell =
                                schedCellIndex(spec, of0, c0, oy, ox);
                            rec->onCellRead(cell, std::uint64_t(of_cnt));
                            rec->onCellWrite(cell, std::uint64_t(of_cnt));
                            if (rows)
                                runRows(c0, c0 + if_cnt);
                        }
                    }
                }
                if (functional)
                    block.store(spec, *out, 0);
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
