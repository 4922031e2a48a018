/**
 * @file
 * WST cycle-level model.
 */

#include "sim/wst.hh"

#include <algorithm>
#include <vector>

#include "sim/closed_form.hh"
#include "util/logging.hh"

namespace ganacc {
namespace sim {

using tensor::Tensor;

namespace {

/**
 * One axis of the WST walk's tap table. For every (kernel tile,
 * input coordinate i) it lists the tile's resident taps k whose
 * product with input i lands on an output o, in ascending k — the
 * taps the walk's stride test would accept. Lists are stored flat:
 * list j is taps[off[j], off[j + 1]), with j = tile * extent + i.
 */
struct TapTable
{
    struct Tap
    {
        int k;     ///< kernel row (column), streamed coordinates
        int o;     ///< output row (column) the product feeds
        int lane;  ///< the tap's share of the physical lane index
        bool zero; ///< structural-zero kernel row (column)
    };

    std::vector<Tap> taps;
    std::vector<int> off;
    std::vector<int> nonzero;   ///< per list: taps with !zero
    std::vector<char> inZero;   ///< per input coordinate
    int extent;

    /** The row (`row`) or column axis of `s` under a tile of `p`
     *  resident taps, each lane_stride lanes from the previous one. */
    TapTable(const ConvSpec &s, bool row, int p, int lane_stride)
        : extent(row ? s.ih : s.iw)
    {
        const int kext = row ? s.kh : s.kw, oext = row ? s.oh : s.ow;
        const int tiles = (kext + p - 1) / p;
        off.reserve(std::size_t(tiles) * extent + 1);
        nonzero.reserve(std::size_t(tiles) * extent);
        for (int k0 = 0; k0 < kext; k0 += p) {
            const int k_end = std::min(k0 + p, kext);
            for (int i = 0; i < extent; ++i) {
                off.push_back(int(taps.size()));
                int nz = 0;
                for (int k = k0; k < k_end; ++k) {
                    const int n = i - k + s.pad;
                    if (n < 0 || n % s.stride != 0 || n / s.stride >= oext)
                        continue;
                    const bool zero =
                        row ? s.kernelRowZero(k) : s.kernelColZero(k);
                    taps.push_back(
                        {k, n / s.stride, (k - k0) * lane_stride, zero});
                    nz += !zero;
                }
                nonzero.push_back(nz);
            }
        }
        off.push_back(int(taps.size()));
        inZero.resize(std::size_t(extent));
        for (int i = 0; i < extent; ++i)
            inZero[std::size_t(i)] =
                row ? s.inputRowZero(i) : s.inputColZero(i);
    }

    const Tap *begin(int tile, int i) const
    {
        return taps.data() + off[std::size_t(tile) * extent + i];
    }
    const Tap *end(int tile, int i) const
    {
        return taps.data() + off[std::size_t(tile) * extent + i + 1];
    }
    int nonzeroTaps(int tile, int i) const
    {
        return nonzero[std::size_t(tile) * extent + i];
    }
};

} // namespace

RunStats
Wst::doRun(const ConvSpec &spec, const Tensor *in, const Tensor *w,
           Tensor *out) const
{
    const bool functional = in != nullptr;
    const int n_pes = numPes();
    ScheduleRecorder *const rec = schedRec();
    // A cycle fixes (c, iy, ix): a row's key is
    // c * A + (oy * s + ky) * M + (ox * s + kx), and oy * s + ky is
    // iy + pad, ox * s + kx is ix + pad.
    const std::uint64_t key_m = std::uint64_t(spec.iw) + spec.pad;
    const std::uint64_t key_a = (std::uint64_t(spec.ih) + spec.pad) * key_m;
    const CycleProjection proj{{key_a, std::uint64_t(spec.stride) * key_m,
                                std::uint64_t(spec.stride), key_m, 1}};
    MacPath path(faultHook(), proj);
    RunStats st;

    const int ktiles_y = (spec.kh + unroll_.pKy - 1) / unroll_.pKy;
    const int ktiles_x = (spec.kw + unroll_.pKx - 1) / unroll_.pKx;
    // Which resident taps each input row and column reaches, per
    // kernel tile; the cycle loop pairs the two lists.
    const TapTable rows(spec, true, unroll_.pKy, unroll_.pKx * unroll_.pOf);
    const TapTable cols(spec, false, unroll_.pKx, unroll_.pOf);
    // The register block holds the of-tile's partial sums over the
    // whole output plane; the resident weights are staged [tap][of], a
    // tap's run at its first lane.
    RegisterBlock block;
    std::vector<float> wts;
    if (functional)
        wts.resize(std::size_t(n_pes));

    // Partial sums accumulate in the zero-initialized output buffer
    // across every pass: one job-wide write-through window.
    if (rec)
        rec->onWindowBegin(std::uint64_t(spec.nof) * spec.oh * spec.ow *
                               (spec.fourDimOutput ? spec.nif : 1),
                           WindowKind::WriteThrough);

    for (int of0 = 0; of0 < spec.nof; of0 += unroll_.pOf) {
        const int of_cnt = std::min(unroll_.pOf, spec.nof - of0);
        if (functional) {
            block.place(of0, of_cnt, 0, 0, 1, spec.oh, spec.ow);
            if (!spec.fourDimOutput)
                block.load(spec, *out, 0);
        }
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
                    if (functional) {
                        if (spec.fourDimOutput)
                            block.load(spec, *out, c);
                        for (int ky = ky0; ky < ky0 + ky_cnt; ++ky)
                            for (int kx = kx0; kx < kx0 + kx_cnt; ++kx)
                                stageWeights(
                                    spec, *w, of0, of_cnt, c, ky, kx,
                                    wts.data() +
                                        ((ky - ky0) * unroll_.pKx + kx -
                                         kx0) * unroll_.pOf);
                    }
                    for (int iy = 0; iy < spec.ih; ++iy) {
                        const TapTable::Tap *const ry0 = rows.begin(kty, iy);
                        const TapTable::Tap *const ry1 = rows.end(kty, iy);
                        if (ry0 == ry1) {
                            // No resident row reaches an output from
                            // this input row: its cycles only stream.
                            st.cycles += std::uint64_t(spec.iw);
                            st.inputLoads += std::uint64_t(spec.iw);
                            st.idlePeSlots +=
                                std::uint64_t(spec.iw) * n_pes;
                            if (rec)
                                for (int ix = 0; ix < spec.iw; ++ix) {
                                    rec->onCycle();
                                    rec->onPort(SchedPort::Input, 1);
                                    rec->onPort(SchedPort::OutputRead, 0);
                                    rec->onPort(SchedPort::OutputWrite, 0);
                                }
                            continue;
                        }
                        const bool row_zero = rows.inZero[std::size_t(iy)];
                        const int row_nz = rows.nonzeroTaps(kty, iy);
                        for (int ix = 0; ix < spec.iw; ++ix) {
                            // ---- one cycle: broadcast in(c,iy,ix) ----
                            st.cycles += 1;
                            st.inputLoads += 1;
                            if (rec) {
                                rec->onCycle();
                                rec->onPort(SchedPort::Input, 1);
                            }
                            const TapTable::Tap *const rx0 =
                                cols.begin(ktx, ix);
                            const TapTable::Tap *const rx1 =
                                cols.end(ktx, ix);
                            const bool in_zero =
                                row_zero || cols.inZero[std::size_t(ix)];
                            const int contrib =
                                int(ry1 - ry0) * int(rx1 - rx0);
                            const int eff =
                                in_zero ? 0
                                        : row_nz * cols.nonzeroTaps(ktx, ix);
                            if (functional)
                                path.cycle(proj.key(c, 0, 0,
                                                    iy + spec.pad,
                                                    ix + spec.pad),
                                           std::uint64_t(contrib) * of_cnt);
                            if (rec || (functional &&
                                        path.visits(eff != 0))) {
                                const float v =
                                    functional ? in->get(0, c, iy, ix)
                                               : 0.0f;
                                for (const TapTable::Tap *ty = ry0;
                                     ty != ry1; ++ty)
                                    for (const TapTable::Tap *tx = rx0;
                                         tx != rx1; ++tx) {
                                        const int lane0 =
                                            ty->lane + tx->lane;
                                        if (rec) {
                                            rec->onLanes(lane0, of_cnt);
                                            const std::uint64_t cell =
                                                schedCellIndex(spec, of0,
                                                               c, ty->o,
                                                               tx->o);
                                            rec->onCellRead(
                                                cell,
                                                std::uint64_t(of_cnt));
                                            rec->onCellWrite(
                                                cell,
                                                std::uint64_t(of_cnt));
                                        }
                                        const bool useful =
                                            !in_zero && !ty->zero &&
                                            !tx->zero;
                                        // Zero-operand slots still
                                        // occupy the multipliers, so
                                        // visit them for the fault
                                        // hook on request.
                                        if (functional &&
                                            path.visits(useful))
                                            blockMacRow(
                                                path,
                                                block.at(ty->o, tx->o),
                                                wts.data() + lane0, v,
                                                useful,
                                                MacContext{lane0, of0, c,
                                                           ty->o, tx->o,
                                                           ty->k, tx->k},
                                                of_cnt);
                                    }
                            }
                            st.effectiveMacs +=
                                std::uint64_t(eff) * of_cnt;
                            st.ineffectualMacs +=
                                std::uint64_t(contrib - eff) * of_cnt;
                            st.idlePeSlots +=
                                std::uint64_t(n_pes) -
                                std::uint64_t(contrib) * of_cnt;
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
                    if (functional && spec.fourDimOutput)
                        block.store(spec, *out, c);
                }
            }
        }
        if (functional && !spec.fourDimOutput)
            block.store(spec, *out, 0);
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
