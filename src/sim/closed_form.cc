/**
 * @file
 * The symbolic schedule model of a dataflow descriptor, and the
 * engine switch.
 *
 * u64 arithmetic throughout; ceil(a/b) via ceilDiv.
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

/** The (tap, output) pairs of one class axis. A pair is in bounds
 *  when its input coordinate is, kept when its tap is not a structural
 *  kernel zero, and good when kept, in bounds and its input is not a
 *  structural zero. The in-bounds counts are taken only when `bounds`
 *  asks (an input or skipping walk reads them). `fanout` is the most
 *  taps of one tile (runs of `tile` in the tap list; 0: not asked)
 *  that reach one input coordinate; asking for it needs `bounds`. */
struct AxisPairs
{
    u64 all = 0, in = 0, kept = 0, keptIn = 0, good = 0, fanout = 0;
};

AxisPairs
axisPairs(const ConvSpec &s, const ClassAxis &a, int step, bool row,
          bool bounds, int tile)
{
    const int in_extent = row ? s.ih : s.iw;
    const int in_step = step * s.stride;
    const u64 n = u64(a.count);
    AxisPairs p;
    std::vector<u64> reach(tile > 0 ? std::size_t(in_extent) : 0);
    for (std::size_t j = 0; j < a.taps.size(); ++j) {
        const int k = a.taps[j];
        // The input coordinate of the class's first output at this tap.
        const int i0 = a.first * s.stride + k - s.pad;
        const bool kept = !(row ? s.kernelRowZero(k) : s.kernelColZero(k));
        p.all += n;
        if (kept) {
            p.kept += n;
            p.good += u64(countNonzeroCoords(0, a.count, in_step, i0, 0,
                                             in_extent, s.inZeroStride,
                                             row ? s.inOrigH : s.inOrigW));
        }
        if (!bounds)
            continue;
        // Outputs t < count with 0 <= i0 + t * in_step < in_extent.
        const int t0 = i0 >= 0 ? 0 : (in_step - 1 - i0) / in_step;
        const int t1 =
            i0 < in_extent
                ? std::min(a.count, (in_extent - 1 - i0) / in_step + 1)
                : 0;
        const u64 in = u64(std::max(0, t1 - t0));
        p.in += in;
        if (kept)
            p.keptIn += in;
        if (tile == 0)
            continue;
        if (j % std::size_t(tile) == 0)
            std::fill(reach.begin(), reach.end(), u64(0));
        for (int t = t0; t < t1; ++t)
            p.fanout = std::max(
                p.fanout, ++reach[std::size_t(i0 + t * in_step)]);
    }
    return p;
}

/** The points of runs of `t` over `n` points, each run capped at
 *  `cap`, summed over the runs. */
u64
runsCapped(u64 n, u64 t, u64 cap)
{
    return n / t * std::min(t, cap) + std::min(n % t, cap);
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
 * The walk of `d` (sim/walker.hh) in closed form. Per class the walk's
 * counts are sums over its passes, and every pass of a class runs the
 * same walked space over a tile of the tiled space, so each sum is a
 * product of per-axis pair tallies, the tile count, or a sum over the
 * at most two tile extents per axis (a full one and a remainder). The
 * of-tiles scale the counts by nof or by the of-tile count.
 *
 * The walk's ports meet the model's peaks as follows: maximal tiles
 * come first (the first tile of a class, the first of-tile), a
 * resident load attaches to the last cycle of the pass before it (the
 * first one pends onto the job's first cycle) and a register drain to
 * the last cycle of its window, neither of which carries other words
 * on that port.
 */
ScheduleModel
scheduleModel(const Dataflow &d, const ConvSpec &s)
{
    const bool inputs = d.walked == Space::Inputs;
    const InputReuse reuse = inputReuse(d, s);
    // A skipped row may empty a step or a pass; only one-point tiles
    // whose weights and sums are per cycle keep that countable. A
    // shifting feed needs every step of a pass to hold rows.
    GANACC_ASSERT((!d.skipZeros ||
                   (d.tileY * d.tileX == 1 &&
                    d.weights == WeightReuse::PerCycle &&
                    d.psums == WindowKind::WriteThrough)) &&
                      (reuse != InputReuse::Shift ||
                       (!inputs && !d.skipZeros)) &&
                      (d.psums != WindowKind::AccumBuffer ||
                       d.walked == Space::Outputs),
                  "no closed form for this dataflow descriptor");
    ScheduleModel m;
    RunStats &st = m.stats;
    st.nPes = u64(d.pes());

    const bool four_d = s.fourDimOutput;
    const u64 nif = u64(s.nif), nof = u64(s.nof);
    // The input maps run as `iters` loops per pass of `step_cycles`
    // cycles per step each: on lanes (none on 4-D outputs, which no
    // adder tree sums) or one map a loop.
    const u64 lanes = d.cLanes == 0 || four_d ? 1 : u64(d.cLanes);
    const u64 iters = d.cLanes != 0 ? 1 : nif;
    const u64 step_cycles = ceilDiv(nif / iters, lanes);
    const u64 max_lanes = std::min(lanes, nif / iters);
    // Register windows per pass, and the cycles per step that drain a
    // partial-result buffer on the last pass.
    const u64 tile_drains = four_d ? iters : 1;
    const u64 drain_cycles = four_d ? iters * step_cycles : step_cycles;
    const bool one_out = d.walked == Space::Outputs || !d.tileOnLanes;
    const u64 n_ofb = ceilDiv(nof, u64(d.pOf));
    const u64 of_max = umin(d.pOf, s.nof);
    const u64 planes = four_d ? nif : 1;

    bool accumulates = !four_d && iters > 1;
    bool first_class = true;
    u64 first_load = 0, first_cycles = 0, second_load = 0;
    // Classes are row-major over their offsets, and a class axis is a
    // function of its offset: a row of classes shares its row axis.
    // Only input and skipping walks read the in-bounds counts.
    const bool bounds = inputs || d.skipZeros;
    AxisPairs py;
    int py_first = -1;
    for (const ParityClass &cls : parityClasses(s, d.zeroFree)) {
        if (cls.empty())
            continue;
        const u64 taps_y = cls.y.taps.size(), taps_x = cls.x.taps.size();
        const u64 outs_y = u64(cls.y.count), outs_x = u64(cls.x.count);
        if (cls.y.first != py_first) {
            py = axisPairs(s, cls.y, cls.step, true, bounds,
                           inputs ? d.tileY : 0);
            py_first = cls.y.first;
        }
        const AxisPairs px = axisPairs(s, cls.x, cls.step, false, bounds,
                                       inputs ? d.tileX : 0);

        // The tiled space: rows x cols points in tiles of tile_y x
        // tile_x, a flat tiling being one row; the first two tiles.
        const bool taps_tiled = d.tiled == Space::Taps;
        u64 rows = taps_tiled ? taps_y : outs_y;
        u64 cols = taps_tiled ? taps_x : outs_x;
        u64 tile_y = u64(d.tileY), tile_x = u64(d.tileX);
        const u64 points = rows * cols;
        if (d.flat) {
            cols = points;
            rows = 1;
            tile_x *= tile_y;
            tile_y = 1;
        }
        const u64 tiles_y = ceilDiv(rows, tile_y);
        const u64 tiles_x = ceilDiv(cols, tile_x);
        const u64 passes = tiles_y * tiles_x;
        const u64 h0 = std::min(tile_y, rows), w0 = std::min(tile_x, cols);
        const u64 tile0 = h0 * w0;
        const u64 tile1 =
            cols > tile_x ? h0 * std::min(tile_x, cols - tile_x)
                          : std::min(tile_y, rows - tile_y) * w0;

        // The walked space, `walked_rows` rows of it.
        const u64 walked_rows =
            inputs ? u64(s.ih) : d.walked == Space::Taps ? taps_y : outs_y;
        const u64 walked =
            walked_rows *
            (inputs ? u64(s.iw) : d.walked == Space::Taps ? taps_x : outs_x);

        // Rows summed over passes: every pair, the in-bounds ones on an
        // input walk, and without the skipped ones. A step of a skipping
        // walk is one row.
        const u64 rows_sum =
            inputs ? py.in * px.in
            : d.skipZeros
                ? py.kept * px.kept - py.keptIn * px.keptIn + py.good * px.good
                : py.all * px.all;
        const u64 steps = d.skipZeros && !inputs ? rows_sum : passes * walked;
        u64 in_words = steps; // Broadcast
        if (reuse == InputReuse::Reload) {
            in_words = rows_sum;
        } else if (reuse == InputReuse::Shift) {
            // Per pass: the tile, then a tile row (width words) at each
            // later row start of the walked space and a tile column
            // (height words) at every other step. A flat tile's column
            // is at most tileY points tall.
            u64 sum_w = tiles_y * cols, sum_h = tiles_x * rows;
            if (d.flat)
                sum_w = sum_h = runsCapped(cols, tile_x, u64(d.tileY));
            in_words = points + (walked_rows - 1) * sum_w +
                       (walked - walked_rows) * sum_h;
        }

        const u64 cycles = n_ofb * iters * step_cycles * steps;
        const u64 scheduled = nof * nif * rows_sum;
        const u64 effective = nof * nif * py.good * px.good;
        st.cycles += cycles;
        st.effectiveMacs += effective;
        st.ineffectualMacs += scheduled - effective;
        st.idlePeSlots += st.nPes * cycles - scheduled;
        st.weightLoads += d.weights == WeightReuse::PerCycle
                              ? nof * nif * steps
                              : nof * points;
        st.inputLoads += n_ofb * nif * in_words;
        if (d.psums == WindowKind::RegisterTile) {
            st.outputWrites += nof * points * tile_drains;
            m.windows += n_ofb * passes * tile_drains;
        } else {
            const u64 sums =
                nof * iters * step_cycles * (one_out ? steps : rows_sum);
            st.outputWrites += sums;
            st.outputReads += sums;
            if (d.psums == WindowKind::AccumBuffer) {
                // The first pass creates each cell; the last drains it.
                st.outputReads -= nof * walked * drain_cycles;
                m.windows += n_ofb;
                m.cellsDrained += nof * walked * drain_cycles;
                m.maxWindowCells = std::max(m.maxWindowCells,
                                            outs_y * outs_x * of_max * planes);
                accumulates |= passes > 1;
            }
        }

        if (first_class) {
            first_load = tile0 * of_max;
            first_cycles = iters * step_cycles * walked;
            // The walk's second pass: this class's second tile, else
            // its first tile on the next of-tile, else the next class's.
            if (passes > 1)
                second_load = tile1 * of_max;
            else if (s.nof > d.pOf)
                second_load = tile0 * umin(d.pOf, s.nof - d.pOf);
        } else if (second_load == 0) {
            second_load = tile0 * of_max;
        }
        first_class = false;
        if (steps == 0)
            continue; // every row skipped: nothing ever scheduled

        const u64 step_rows = inputs       ? py.fanout * px.fanout
                              : d.skipZeros ? 1
                                            : tile0;
        // Partial sums one cycle reads and writes.
        const u64 cycle_sums = (one_out ? 1 : step_rows) * of_max;
        m.peakSlots = std::max(m.peakSlots, max_lanes * step_rows * of_max);
        m.peakWeightLoads = std::max(
            m.peakWeightLoads, d.weights == WeightReuse::PerCycle
                                   ? max_lanes * of_max
                                   : tile0 * of_max);
        m.peakInputLoads = std::max(
            m.peakInputLoads,
            max_lanes * (reuse == InputReuse::Broadcast ? 1 : step_rows));
        if (d.psums == WindowKind::RegisterTile) {
            m.peakOutputWrites = std::max(m.peakOutputWrites, tile0 * of_max);
            m.maxWindowCells = std::max(m.maxWindowCells, tile0 * of_max);
        } else {
            m.peakOutputWrites = std::max(m.peakOutputWrites, cycle_sums);
            m.peakOutputReads = std::max(m.peakOutputReads, cycle_sums);
        }
    }
    // A one-cycle first pass takes the second pass's resident load on
    // the same cycle.
    if (d.weights == WeightReuse::Resident && first_cycles == 1)
        m.peakWeightLoads =
            std::max(m.peakWeightLoads, first_load + second_load);
    if (d.psums == WindowKind::AccumBuffer && !accumulates)
        m.peakOutputReads = 0;

    switch (d.psums) {
      case WindowKind::RegisterTile:
        m.cellsDrained = st.outputWrites;
        m.windowCapacity = u64(d.tileY) * u64(d.tileX) * u64(d.pOf);
        break;
      case WindowKind::AccumBuffer:
        m.windowCapacity = jobCells(s);
        break;
      case WindowKind::WriteThrough:
        // One job-wide window in the zero-initialized output buffer.
        m.windows = 1;
        m.maxWindowCells = m.windowCapacity = jobCells(s);
        break;
    }
    return m;
}

} // namespace sim
} // namespace ganacc
