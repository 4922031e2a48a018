/**
 * @file
 * The one cycle walk of the NLR, WST, OST/ZFOST and ZFWST dataflows.
 *
 * Each dataflow is a Fig. 4 choice over the Table II loop nest
 * (sim/conv_spec.hh): which loops it unrolls across the PE array and
 * in what order the rest run. A Dataflow states that choice and walk()
 * runs it. The nest is always
 *
 *   class -> of-tile -> pass -> [c ->] step -> [c on lanes ->] row
 *
 * A class is an output parity class (sim::parityClasses: one dense
 * class unless the dataflow is zero-free). An of-tile is P_of output
 * maps, a contiguous run of lanes. A pass is one tile of the `tiled`
 * space; a step is one point of the `walked` space, which is one
 * cycle, or the run of cycles over every input map when the input
 * maps sit on lanes. A row is a tile member at that step: one lattice
 * point (c, oy, ox, ky, kx) times the of-tile.
 *
 * A pass's step and row tables hold every scheduled slot, in schedule
 * order. A functional walk also lists the steps that have rows and,
 * per step, a compact multiply list: the rows in range and useful,
 * {block entry, weight offset, input offset} each, in schedule order.
 * A gated array leaves out of that list the rows whose input position
 * holds ±0 in every input map, read from the operand values once per
 * walk, and multiplies any other entry when its input value is
 * non-zero. A step the fault hook is shown (presented) runs its full
 * rows through the MAC path. Every other step, with no hook or settled
 * by the hook's cycle bitmap, runs only its compact list. So steps
 * without rows and rows that cannot multiply cost only their counts.
 * With a schedule recorder every step is visited, its events
 * interleaved with its MACs.
 *
 * The MAC path reads the hook's MacRowFilter (sim/fault_hook.hh). A
 * presented row whose bucket is clear is multiplied without the hook.
 * Of a row whose bucket is set, the hook sees only the lanes the filter
 * lists as sites: a lane not listed promises `a * b`, and the walk
 * multiplies it itself.
 *
 * From the descriptor the walker derives what each walk would
 * otherwise write by hand: the cycle projection the fault path settles
 * cycles by, the register block, the staged weights, the per-axis zero
 * and tap tables, and the counts, added once per pass and input map
 * however many cycles they cover.
 */

#ifndef GANACC_SIM_WALKER_HH
#define GANACC_SIM_WALKER_HH

#include <algorithm>
#include <cstdint>

#include "sim/conv_spec.hh"
#include "sim/schedule_recorder.hh"
#include "sim/stats.hh"
#include "tensor/tensor.hh"

namespace ganacc {
namespace sim {

class Architecture;

/** A coordinate space of the loop nest. */
enum class Space
{
    Outputs, ///< (oy, ox) of the class
    Taps,    ///< (ky, kx) of the class
    Inputs,  ///< (iy, ix), every input position, streamed row-major
};

/** When the array reads the weights. */
enum class WeightReuse
{
    PerCycle, ///< the step's tap, for each input map of the cycle
    Resident, ///< the tile's taps, once per pass
};

/** When the array reads the inputs. */
enum class InputReuse
{
    Broadcast, ///< one word per input map and cycle
    Reload,    ///< the tile's whole footprint every cycle
    /** The footprint on a pass's first step, then one new tile column,
     *  or one new tile row on a step that starts a row of the walked
     *  space. A flat tile shifts by a column of at most tileY points
     *  either way. */
    Shift,
    /** A raster weight feed: Shift on a stride-1 job; on a strided one
     *  adjacent cycles need disjoint inputs, so the tile reloads every
     *  cycle (Reload, Fig. 7(b)). inputReuse() resolves it. */
    RasterShift,
};

/**
 * One dataflow, as a choice over the Table II loop nest. It is the
 * only per-dataflow fact: an architecture is a name, an unrolling and
 * this value, which sim::Architecture stores at construction. The
 * walk and the closed form run it, and the PE count, the unroll
 * factors the dataflow reads (sim::unrollFactors) and the loop bounds
 * they must divide (verify::checkUnroll) are read off it. It depends
 * on the unrolling only, never on a job.
 */
struct Dataflow
{
    int pOf = 1; ///< output maps on lanes: every row is a run of this many

    /** The space each pass tiles and the tile: tileY x tileX of its
     *  row and column coordinates, or, when `flat`, runs of
     *  tileY * tileX of its row-major coordinate list. */
    Space tiled = Space::Outputs;
    int tileY = 1;
    int tileX = 1;
    bool flat = false;
    /** False when a pass is one point of temporal loops rather than a
     *  tile across lanes (NLR's output loops). */
    bool tileOnLanes = true;

    /** Input maps on lanes inside each step, their partial products
     *  summed by an adder tree; 0 when c is a temporal loop between the
     *  passes and the steps. */
    int cLanes = 0;
    Space walked = Space::Taps;

    bool zeroFree = false;   ///< parity classes without kernel zeros
    /** Address-generation zero skipping: a row with a structural-zero
     *  operand is never scheduled, nor a step left without rows. */
    bool skipZeros = false;
    /** Multiply a row only when its input value is non-zero; rows of a
     *  structural-zero tap still stream (OST's array). */
    bool gateZeroValues = false;

    WeightReuse weights = WeightReuse::PerCycle;
    InputReuse inputs = InputReuse::Broadcast;
    /** Where partial sums live: read-modify-written in the
     *  zero-initialized buffer (WriteThrough), held in the register
     *  tile and drained once per window (RegisterTile), or summed by
     *  the adder tree into a partial-result buffer whose first pass
     *  creates each cell (AccumBuffer). */
    WindowKind psums = WindowKind::WriteThrough;

    /** The PE count: the tile's lanes (one when a pass is a temporal
     *  point), times the input-map lanes, times pOf. */
    int
    pes() const
    {
        return (tileOnLanes ? tileY * tileX : 1) * std::max(cLanes, 1) * pOf;
    }
};

/** The input rule of `d` on `s`: `d.inputs`, with RasterShift resolved
 *  against the stride. */
inline InputReuse
inputReuse(const Dataflow &d, const ConvSpec &s)
{
    if (d.inputs != InputReuse::RasterShift)
        return d.inputs;
    return s.stride == 1 ? InputReuse::Shift : InputReuse::Reload;
}

/**
 * What one cycle fixes, as five coefficients over a row
 * (c, oy, ox, ky, kx): key() is the same for every row the cycle
 * schedules, because the coordinates that vary within a cycle have
 * coefficient zero. A projection may also leave out a coordinate that
 * varies across a run of consecutive cycles (NLR's `c`), so the whole
 * run shares one key. Two cycles or runs may share a key; that costs
 * time, never bits.
 */
struct CycleProjection
{
    std::uint64_t coef[5] = {}; ///< of c, oy, ox, ky, kx

    std::uint64_t
    key(int c, int oy, int ox, int ky, int kx) const
    {
        return coef[0] * std::uint64_t(c) + coef[1] * std::uint64_t(oy) +
               coef[2] * std::uint64_t(ox) + coef[3] * std::uint64_t(ky) +
               coef[4] * std::uint64_t(kx);
    }
};

/**
 * The projection walk() keys each step of `d` on `spec` by: the
 * row-major numbering of the coordinates the step fixes. An input
 * step fixes (c, iy, ix), numbered over the input with the padding in
 * front, so its key is (c, oy * s + ky, ox * s + kx).
 */
CycleProjection cycleProjection(const Dataflow &d, const ConvSpec &spec);

/**
 * Walk one job of `arch` under dataflow `d`, for Architecture::run().
 * Operands as for run(); the fault hook and schedule recorder are
 * `arch`'s.
 */
RunStats walk(const Architecture &arch, const Dataflow &d,
              const ConvSpec &spec, const tensor::Tensor *in,
              const tensor::Tensor *w, tensor::Tensor *out);

} // namespace sim
} // namespace ganacc

#endif // GANACC_SIM_WALKER_HH
