/**
 * @file
 * The symbolic schedule models, one per dataflow.
 *
 * Shared notation: u64 arithmetic throughout; ceil(a/b) via ceilDiv;
 * per-axis occupancy counts reuse countNonzeroCoords, whose sum over a
 * partition of the output range equals the count over the whole range
 * (the cycle walks tile that range, the models do not). Each model
 * steps the schedule *segments* its walk steps cycles: kernel
 * positions (NLR), streamed-axis classes (WST), parity classes (the
 * output-stationary family, ZFWST) and resident chunks (ZFWST) —
 * every contribution inside a segment is a product of per-axis counts,
 * so idle, drain and zero-skip stretches are jumped, never walked.
 *
 * Peak arguments rely on two facts about every paper schedule: (1)
 * maximal tiles exist — the first tile of each loop axis has the full
 * min(factor, bound) extent, and the loop nests are full cross
 * products, so maximal extents co-occur in some cycle; (2) pass-
 * boundary traffic (resident weight-tile loads, register drains)
 * attaches to a cycle that carries no other traffic on the same port,
 * because passes are at least one cycle long and the per-cycle port
 * sets are disjoint from the boundary port sets.
 */

#include "sim/closed_form.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <vector>

#include "util/logging.hh"

namespace ganacc {
namespace sim {

namespace {

using u64 = std::uint64_t;

u64
ceilDiv(u64 a, u64 b)
{
    return (a + b - 1) / b;
}

SimEngine
engineFromEnv()
{
    const char *env = std::getenv("GANACC_ENGINE");
    if (env == nullptr || *env == '\0')
        return SimEngine::Auto;
    if (auto e = simEngineFromName(env))
        return *e;
    util::warn("GANACC_ENGINE='", env, "' is not walk|auto; using auto");
    return SimEngine::Auto;
}

std::atomic<SimEngine> &
engineCell()
{
    static std::atomic<SimEngine> cell{engineFromEnv()};
    return cell;
}

u64
umin(int factor, int bound)
{
    return u64(std::min(factor, bound));
}

/** Cells of the whole job's output working set. */
u64
jobCells(const ConvSpec &s)
{
    return u64(s.nof) * u64(s.oh) * u64(s.ow) *
           (s.fourDimOutput ? u64(s.nif) : 1);
}

/** One WST axis: (streamed input, kernel tap) pairs that contribute to
 *  some output in total and with both operands non-zero, and the peak
 *  in-tile fan-out over (kernel tile, streamed position) — the row (or
 *  column) extent of the widest broadcast cycle. */
struct WstAxis
{
    u64 total = 0;
    u64 nonzero = 0;
    u64 fanout = 0;
};

WstAxis
wstAxis(const ConvSpec &s, bool row, int pk)
{
    const int k_extent = row ? s.kh : s.kw;
    const int in_extent = row ? s.ih : s.iw;
    const int out_extent = row ? s.oh : s.ow;
    WstAxis a;
    // Contributions of each streamed position within the current tile.
    std::vector<u64> in_tile(std::size_t(in_extent), 0);
    for (int k0 = 0; k0 < k_extent; k0 += pk) {
        std::fill(in_tile.begin(), in_tile.end(), u64(0));
        for (int k = k0; k < std::min(k0 + pk, k_extent); ++k) {
            const bool k_zero =
                row ? s.kernelRowZero(k) : s.kernelColZero(k);
            // Output t reads input i = t*stride + k - pad at this tap.
            for (int t = 0; t < out_extent; ++t) {
                const int i = t * s.stride + k - s.pad;
                if (i < 0 || i >= in_extent)
                    continue;
                ++in_tile[std::size_t(i)];
                if (!k_zero &&
                    !(row ? s.inputRowZero(i) : s.inputColZero(i)))
                    ++a.nonzero;
            }
        }
        for (u64 cnt : in_tile) {
            a.total += cnt;
            a.fanout = std::max(a.fanout, cnt);
        }
    }
    return a;
}

} // namespace

SimEngine
simEngine()
{
    return engineCell().load(std::memory_order_relaxed);
}

void
setSimEngine(SimEngine engine)
{
    engineCell().store(engine, std::memory_order_relaxed);
}

std::string
simEngineName(SimEngine engine)
{
    switch (engine) {
      case SimEngine::Auto: return "auto";
      case SimEngine::Walk: return "walk";
    }
    util::panic("unknown sim engine");
}

std::optional<SimEngine>
simEngineFromName(const std::string &name)
{
    std::string low;
    low.reserve(name.size());
    for (char c : name)
        low += char(std::tolower(static_cast<unsigned char>(c)));
    for (SimEngine e : {SimEngine::Auto, SimEngine::Walk})
        if (simEngineName(e) == low)
            return e;
    return std::nullopt;
}

bool
fastPathEnabled()
{
    return simEngine() != SimEngine::Walk;
}

/**
 * NLR: scheduled output/kernel combinations classify per axis into
 * in-bounds non-zero, in-bounds zero, and padding. Under the improved
 * (zero-skipping) policy, combinations whose operand is an in-bounds
 * structural zero are never scheduled; the vanilla policy executes the
 * full dense schedule and burns them as ineffectual cycles. Partial
 * sums live in the zero-initialized output buffer: one job-wide
 * write-through window.
 */
ScheduleModel
nlrModel(const Unroll &u, const ConvSpec &s, bool zero_skip)
{
    ScheduleModel m;
    RunStats &st = m.stats;
    st.nPes = u64(u.pIf) * u.pOf;

    const u64 n_ofb = ceilDiv(u64(s.nof), u64(u.pOf));
    const u64 n_ifb = ceilDiv(u64(s.nif), u64(u.pIf));

    u64 sched_pos = 0, eff_pos = 0;
    for (int ky = 0; ky < s.kh; ++ky) {
        for (int kx = 0; kx < s.kw; ++kx) {
            if (s.kernelIsZero(ky, kx)) {
                // Skipping never schedules the position; the vanilla
                // dataflow streams it as a full plane of waste.
                if (!zero_skip)
                    sched_pos += u64(s.oh) * s.ow;
                continue;
            }
            u64 in_y = 0, nz_y = 0, in_x = 0, nz_x = 0;
            for (int oy = 0; oy < s.oh; ++oy) {
                int iy = oy * s.stride + ky - s.pad;
                if (iy < 0 || iy >= s.ih)
                    continue;
                ++in_y;
                if (!s.inputRowZero(iy))
                    ++nz_y;
            }
            for (int ox = 0; ox < s.ow; ++ox) {
                int ix = ox * s.stride + kx - s.pad;
                if (ix < 0 || ix >= s.iw)
                    continue;
                ++in_x;
                if (!s.inputColZero(ix))
                    ++nz_x;
            }
            // Skipped: both coordinates in bounds but the operand is a
            // structural zero (padding still burns cycles).
            const u64 skipped =
                zero_skip ? in_y * in_x - nz_y * nz_x : 0;
            sched_pos += u64(s.oh) * s.ow - skipped;
            eff_pos += nz_y * nz_x;
        }
    }
    const u64 pad_pos = sched_pos - eff_pos;

    if (!s.fourDimOutput) {
        st.cycles = sched_pos * n_ofb * n_ifb;
        st.inputLoads = sched_pos * n_ofb * s.nif;
    } else {
        // Four-dimension outputs accumulate nothing across input maps:
        // the adder tree idles and input maps stream sequentially.
        st.cycles = sched_pos * n_ofb * s.nif;
        st.inputLoads = sched_pos * n_ofb * s.nif;
    }
    st.weightLoads = sched_pos * u64(s.nof) * s.nif;
    st.outputReads = s.fourDimOutput
                         ? sched_pos * u64(s.nof) * s.nif
                         : sched_pos * u64(s.nof) * n_ifb;
    st.outputWrites = st.outputReads;
    st.effectiveMacs = eff_pos * u64(s.nof) * s.nif;
    st.ineffectualMacs = pad_pos * u64(s.nof) * s.nif;
    st.idlePeSlots =
        st.nPes * st.cycles - sched_pos * u64(s.nof) * s.nif;

    m.windows = 1;
    m.maxWindowCells = m.windowCapacity = jobCells(s);
    if (st.cycles == 0)
        return m; // every position skipped: nothing ever scheduled
    const u64 of_max = umin(u.pOf, s.nof);
    // Four-dimension jobs stream input maps one at a time.
    const u64 if_max = s.fourDimOutput ? 1 : umin(u.pIf, s.nif);
    m.peakSlots = if_max * of_max;
    m.peakWeightLoads = if_max * of_max;
    m.peakInputLoads = if_max;
    m.peakOutputReads = of_max;
    m.peakOutputWrites = of_max;
    return m;
}

/**
 * WST: a kernel tile is resident; every streamed input position is a
 * cycle, and its contributions factorize per axis. Partial sums live
 * in the zero-initialized output buffer: one job-wide window.
 */
ScheduleModel
wstModel(const Unroll &u, const ConvSpec &s)
{
    ScheduleModel m;
    RunStats &st = m.stats;
    st.nPes = u64(u.pKx) * u.pKy * u.pOf;

    const u64 n_ofb = ceilDiv(u64(s.nof), u64(u.pOf));
    const u64 kt_y = ceilDiv(u64(s.kh), u64(u.pKy));
    const u64 kt_x = ceilDiv(u64(s.kw), u64(u.pKx));

    st.cycles = n_ofb * kt_y * kt_x * s.nif * u64(s.ih) * s.iw;
    st.inputLoads = st.cycles;
    st.weightLoads = u64(s.nof) * s.kh * s.kw;

    const WstAxis ay = wstAxis(s, true, u.pKy);
    const WstAxis ax = wstAxis(s, false, u.pKx);
    const u64 contrib = ay.total * ax.total;
    const u64 eff = ay.nonzero * ax.nonzero;

    st.effectiveMacs = u64(s.nof) * s.nif * eff;
    st.ineffectualMacs = u64(s.nof) * s.nif * (contrib - eff);
    st.idlePeSlots =
        st.nPes * st.cycles - u64(s.nof) * s.nif * contrib;
    st.outputReads = u64(s.nof) * s.nif * contrib;
    st.outputWrites = st.outputReads;

    m.windows = 1;
    m.maxWindowCells = m.windowCapacity = jobCells(s);
    // WST always cycles: every pass streams the full input plane.
    const u64 of_max = umin(u.pOf, s.nof);
    m.peakInputLoads = 1;
    // A resident tile load lands alone on a cycle's weight port —
    // except when every pass is a single cycle (nif = ih = iw = 1):
    // the first cycle then carries both the first pass's pended load
    // and the second pass's boundary load.
    m.peakWeightLoads = umin(u.pKy, s.kh) * umin(u.pKx, s.kw) * of_max;
    if (s.nif == 1 && s.ih == 1 && s.iw == 1) {
        u64 second = 0;
        if (s.kw > u.pKx)
            second = umin(u.pKy, s.kh) *
                     u64(std::min(u.pKx, s.kw - u.pKx)) * of_max;
        else if (s.kh > u.pKy)
            second = u64(std::min(u.pKy, s.kh - u.pKy)) *
                     umin(u.pKx, s.kw) * of_max;
        else if (s.nof > u.pOf)
            second = umin(u.pKy, s.kh) * umin(u.pKx, s.kw) *
                     u64(std::min(u.pOf, s.nof - u.pOf));
        m.peakWeightLoads += second;
    }
    m.peakSlots = ay.fanout * ax.fanout * of_max;
    // Every contribution read-modify-writes a distinct partial sum.
    m.peakOutputReads = m.peakSlots;
    m.peakOutputWrites = m.peakSlots;
    return m;
}

/**
 * The output-stationary family: per output class, a tile is pinned
 * per pass and every (ofb, tyb, txb, c, ky, kx) combination of the
 * class's taps is one cycle. A shifting feed loads the tile at the
 * first tap, a row (tx_cnt) at each later ky step and a column
 * (ty_cnt) otherwise; without the shift every cycle reloads the tile.
 * Each pass's register window drains the whole tile once — per input
 * map for four-dimension outputs, per nif loop otherwise.
 */
ScheduleModel
outputStationaryModel(const Unroll &u, const ConvSpec &s, bool zero_free,
                      bool reordered_feed)
{
    ScheduleModel m;
    RunStats &st = m.stats;
    st.nPes = u64(u.pOx) * u.pOy * u.pOf;

    const bool shifts = reordered_feed || s.stride == 1;
    const u64 n_ofb = ceilDiv(u64(s.nof), u64(u.pOf));
    const u64 of_max = umin(u.pOf, s.nof);
    const u64 drains_per_tile = s.fourDimOutput ? u64(s.nif) : 1;

    for (const ParityClass &cls : parityClasses(s, zero_free)) {
        if (cls.empty())
            continue; // class streams nothing: no cycles, no tiles
        const u64 n_y = u64(cls.y.count), n_x = u64(cls.x.count);
        const u64 n_ky = cls.y.taps.size(), n_kx = cls.x.taps.size();
        const u64 n_tyb = ceilDiv(n_y, u64(u.pOy));
        const u64 n_txb = ceilDiv(n_x, u64(u.pOx));
        const u64 cycles = n_ofb * n_tyb * n_txb * s.nif * n_ky * n_kx;

        st.cycles += cycles;
        st.weightLoads += u64(s.nof) * n_tyb * n_txb * s.nif * n_ky * n_kx;
        // Summed over the tile grid: sum(tile) = n_y*n_x,
        // sum(tx_cnt) = n_tyb*n_x, sum(ty_cnt) = n_txb*n_y.
        if (shifts)
            st.inputLoads += n_ofb * s.nif *
                             (n_y * n_x + (n_ky - 1) * n_tyb * n_x +
                              n_ky * (n_kx - 1) * n_txb * n_y);
        else
            st.inputLoads += n_ofb * s.nif * (n_ky * n_kx * n_y * n_x);

        // Scheduled slots cover the whole tile; effective ones are the
        // per-axis non-zero counts at non-zero kernel taps, separable
        // because the kernel's zero pattern is.
        u64 rows_sum = 0, cols_sum = 0;
        for (int ky : cls.y.taps)
            if (!s.kernelRowZero(ky))
                rows_sum += u64(cls.nonzeroRows(s, 0, int(n_y), ky));
        for (int kx : cls.x.taps)
            if (!s.kernelColZero(kx))
                cols_sum += u64(cls.nonzeroCols(s, 0, int(n_x), kx));
        const u64 scheduled = u64(s.nof) * s.nif * n_ky * n_kx * n_y * n_x;
        const u64 effective = u64(s.nof) * s.nif * rows_sum * cols_sum;
        st.effectiveMacs += effective;
        st.ineffectualMacs += scheduled - effective;
        st.idlePeSlots += st.nPes * cycles - scheduled;
        st.outputWrites += u64(s.nof) * drains_per_tile * n_y * n_x;

        m.windows += n_ofb * n_tyb * n_txb * drains_per_tile;
        const u64 tile_max = umin(u.pOy, int(n_y)) * umin(u.pOx, int(n_x));
        m.peakSlots = std::max(m.peakSlots, tile_max * of_max);
        m.peakInputLoads = std::max(m.peakInputLoads, tile_max);
        m.peakWeightLoads = of_max;
    }
    // Registers accumulate, so nothing reads back; each drain covers
    // the tile it writes exactly once.
    m.peakOutputWrites = m.peakSlots;
    m.cellsDrained = st.outputWrites;
    m.maxWindowCells = m.peakSlots;
    m.windowCapacity = u64(u.pOy) * u64(u.pOx) * u64(u.pOf);
    return m;
}

/**
 * ZFWST: per parity class, the effective kernel elements stream in
 * resident chunks of P_ky*P_kx; one output neuron per cycle through
 * the adder tree. Each (class, of-tile) opens one partial-result
 * buffer window the final pass drains.
 */
ScheduleModel
zfwstModel(const Unroll &u, const ConvSpec &s)
{
    ScheduleModel m;
    RunStats &st = m.stats;
    st.nPes = u64(u.pKx) * u.pKy * u.pOf;

    const u64 cap = u64(u.pKx) * u64(u.pKy);
    const u64 n_ofb = ceilDiv(u64(s.nof), u64(u.pOf));
    const u64 of_max = umin(u.pOf, s.nof);
    const u64 planes = s.fourDimOutput ? u64(s.nif) : 1;
    bool any_class = false, any_accum = false;
    // First two resident-load words of the walk's pass sequence, for
    // the single-cycle-first-pass coalescing case (see below).
    u64 first_n_eff = 0, first_positions = 0, second_load = 0;

    for (const ParityClass &cls : parityClasses(s, true)) {
        if (cls.empty())
            continue;
        const u64 n_y = u64(cls.y.count), n_x = u64(cls.x.count);
        const u64 n_eff = u64(cls.y.taps.size()) * cls.x.taps.size();
        const u64 n_chunks = ceilDiv(n_eff, cap);
        const u64 positions = n_y * n_x;

        st.cycles += n_ofb * n_chunks * s.nif * positions;
        st.weightLoads += u64(s.nof) * n_eff;

        // Register traffic per (ofb, chunk, c): the chunk's footprint
        // once, then a column shift per later output.
        u64 chunk_loads = 0;
        for (u64 chunk = 0; chunk < n_chunks; ++chunk) {
            u64 e_cnt = std::min(cap, n_eff - chunk * cap);
            chunk_loads +=
                e_cnt + (positions - 1) * std::min(e_cnt, u64(u.pKy));
        }
        st.inputLoads += n_ofb * s.nif * chunk_loads;

        // Effective slots factorize exactly as in ZFOST; the chunking
        // only partitions the same kernel-element set.
        u64 rows_sum = 0, cols_sum = 0;
        for (int ky : cls.y.taps)
            rows_sum += u64(cls.nonzeroRows(s, 0, int(n_y), ky));
        for (int kx : cls.x.taps)
            cols_sum += u64(cls.nonzeroCols(s, 0, int(n_x), kx));
        const u64 scheduled = u64(s.nof) * s.nif * positions * n_eff;
        const u64 effective = u64(s.nof) * s.nif * rows_sum * cols_sum;
        st.effectiveMacs += effective;
        st.ineffectualMacs += scheduled - effective;
        st.idlePeSlots +=
            st.nPes * (n_ofb * n_chunks * s.nif * positions) - scheduled;

        st.outputWrites += u64(s.nof) * n_chunks * s.nif * positions;
        // Accumulating passes read the partial back: every pass but
        // the first per output for accumulating jobs, every chunk but
        // the first per (c, output) for four-dim jobs.
        st.outputReads +=
            s.fourDimOutput
                ? u64(s.nof) * (n_chunks - 1) * s.nif * positions
                : u64(s.nof) * (n_chunks * s.nif - 1) * positions;

        const u64 e_max = std::min(cap, n_eff);
        if (!any_class) {
            first_n_eff = n_eff;
            first_positions = positions;
            // The second pass of the walk: the next chunk of this
            // class, else this class again on the next of-tile, else
            // the next class's first chunk (found below).
            if (n_chunks > 1)
                second_load = std::min(cap, n_eff - cap) * of_max;
            else if (s.nof > u.pOf)
                second_load = e_max * u64(std::min(u.pOf, s.nof - u.pOf));
        } else if (second_load == 0) {
            second_load = e_max * of_max;
        }
        any_class = true;
        if (n_chunks > 1 || (!s.fourDimOutput && s.nif > 1))
            any_accum = true;
        m.windows += n_ofb;
        // The final pass's writes drain every window cell once.
        m.cellsDrained += positions * u64(s.nof) * planes;
        m.maxWindowCells =
            std::max(m.maxWindowCells, positions * of_max * planes);
        m.peakSlots = std::max(m.peakSlots, e_max * of_max);
        m.peakWeightLoads = std::max(m.peakWeightLoads, e_max * of_max);
        m.peakInputLoads = std::max(m.peakInputLoads, e_max);
    }
    // Partial sums live in the planned output working set.
    m.windowCapacity = jobCells(s);
    if (!any_class)
        return m;
    // When the first pass is a single cycle (one channel, one output
    // position), the pended first load and the second pass's boundary
    // load coalesce onto the job's first cycle.
    if (s.nif == 1 && first_positions == 1)
        m.peakWeightLoads =
            std::max(m.peakWeightLoads,
                     std::min(cap, first_n_eff) * of_max + second_load);
    m.peakOutputWrites = of_max;
    if (any_accum)
        m.peakOutputReads = of_max;
    return m;
}

} // namespace sim
} // namespace ganacc
