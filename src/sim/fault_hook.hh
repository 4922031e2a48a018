/**
 * @file
 * The MAC-path fault-injection hook.
 *
 * Every dataflow's functional inner loop produces its products through
 * the walker's MAC path (sim/walker.cc, one operand row at a time) or,
 * in CNV and RST, Architecture::macProduct(); both forward to an
 * installed MacFaultHook (src/fault implements one). The hook sees the
 * full logical coordinate of each *physically scheduled* multiply — the
 * lattice point (of, c, oy, ox, ky, kx) plus the physical PE lane the
 * dataflow maps it to — so one hook covers NLR/WST/OST/ZFOST/ZFWST
 * (and CNV/RST) without per-dataflow fault logic.
 *
 * The masking contract: a hooked walk covers every scheduled MAC,
 * including ineffectual ones (structural-zero or padding operands)
 * when visitIneffectual() asks for them — those slots are
 * physically multiplied by the baselines, so a stuck-at or transient
 * fault there corrupts the accumulator even though the fault-free
 * product is zero. Lattice points a schedule never issues (the
 * zero-free designs' skipped work, or RST's clock-gated slots, whose
 * multiplier outputs never reach an accumulator) are never presented
 * to the hook: a fault armed there is *masked*. With no hook
 * installed the product path is exactly `a * b` — bit-identical to
 * the pre-fault simulator, which tests/golden/runstats_table5.json
 * guards.
 *
 * A hook that publishes a MacRowFilter is no longer shown every
 * scheduled MAC: the NLR/WST/OST/ZFOST/ZFWST walks present only the
 * rows the filter marks, and settle every other scheduled row in bulk
 * through MacRowFilter::quietMacs — so a count of scheduled MACs kept
 * there still covers every one. Of a marked row the hook sees only the
 * lanes the filter lists as sites; the walk multiplies every other
 * lane itself, as `a * b`. A walk that visits ineffectual slots also
 * settles whole cycles: it asks once per cycle, and only a cycle that
 * may hold a listed site's row reaches the per-row test. CNV and RST
 * ignore the filter.
 */

#ifndef GANACC_SIM_FAULT_HOOK_HH
#define GANACC_SIM_FAULT_HOOK_HH

#include <cstdint>
#include <vector>

namespace ganacc {
namespace sim {

/** Logical and physical coordinates of one scheduled MAC. */
struct MacContext
{
    int lane = 0; ///< physical PE index in [0, numPes())
    int of = 0;   ///< output feature map
    int c = 0;    ///< input feature map
    int oy = 0;   ///< output row
    int ox = 0;   ///< output column
    int ky = 0;   ///< kernel row (streamed coordinates)
    int kx = 0;   ///< kernel column
};

/** One MAC lane of the lattice: an operand row (MacRowFilter) and an
 *  output map, ordered by row, then map. */
struct MacSite
{
    std::uint64_t row = 0;
    int of = 0;

    bool
    operator<(const MacSite &o) const
    {
        return row != o.row ? row < o.row : of < o.of;
    }
};

/**
 * A hook's per-job promise about operand rows. A row is a lattice
 * point without `of` — (c, oy, ox, ky, kx), numbered row-major — and
 * row r falls in bucket r & mask, so a lattice of more rows than
 * buckets shares each bucket between rows mask + 1 apart. A clear
 * bucket bit guarantees onMac would return exactly `a * b` for every
 * `of` at every row of that bucket, so a walk may run those rows
 * without the hook: an effectual row as plain products, an ineffectual
 * one (product ±0 on finite operands) not at all.
 */
struct MacRowFilter
{
    /** Row-major strides of (c, oy, ox, ky); kx has stride 1. */
    std::uint64_t stride[4] = {};
    std::uint64_t mask = 0;  ///< bucket count minus one (2^k - 1)
    const std::uint64_t *bits = nullptr; ///< one bit per bucket
    /** The hook's count of scheduled MACs: each walk adds the MACs of
     *  its quiet rows and lanes and its settled cycles here once, when
     *  it ends. Must not be null. */
    std::uint64_t *quietMacs = nullptr;
    /**
     * Every lane whose MAC onMac may alter, ascending and distinct.
     * Must not be null. Each listed row's bucket bit must be set; a
     * lane not listed promises `a * b`, whatever its row's bucket. A
     * walk presents only the listed lanes of a row whose bucket is set
     * and multiplies every other lane of it itself, and may settle a
     * whole cycle that holds none of the listed rows without testing
     * its rows one by one.
     */
    const std::vector<MacSite> *sites = nullptr;

    /** The row number of (c, oy, ox, ky, kx). */
    std::uint64_t
    row(int c, int oy, int ox, int ky, int kx) const
    {
        return std::uint64_t(c) * stride[0] + std::uint64_t(oy) * stride[1] +
               std::uint64_t(ox) * stride[2] + std::uint64_t(ky) * stride[3] +
               std::uint64_t(kx);
    }

    /** True when row `r`'s bucket may hold a MAC onMac would alter. */
    bool
    loud(std::uint64_t r) const
    {
        const std::uint64_t bucket = r & mask;
        return (bits[bucket >> 6] >> (bucket & 63) & 1) != 0;
    }
};

/** Transforms scheduled products; installed via setFaultHook(). */
class MacFaultHook
{
  public:
    virtual ~MacFaultHook() = default;

    /**
     * One scheduled MAC. @return the (possibly corrupted) product;
     * the fault-free value is a * b. Called once per lattice point
     * the walk presents (every scheduled one without a row filter).
     */
    virtual float onMac(const MacContext &ctx, float a, float b) = 0;

    /**
     * True when the hook needs to observe ineffectual scheduled slots
     * (zero-operand multiplies the baselines still execute). The
     * dataflows only walk those in functional mode when this is set,
     * keeping the fault-free fast path untouched.
     */
    virtual bool visitIneffectual() const = 0;

    /**
     * The row filter for the current job, read once at the start of
     * each run, or nullptr (the default) to be presented every
     * scheduled MAC.
     */
    virtual const MacRowFilter *rowFilter() const { return nullptr; }
};

} // namespace sim
} // namespace ganacc

#endif // GANACC_SIM_FAULT_HOOK_HH
