/**
 * @file
 * The MAC-path fault injector.
 *
 * FaultInjector implements sim::MacFaultHook for one FaultPlan. Per
 * job it arms `transient.sitesPerJob` distinct points of the *dense*
 * MAC lattice [0, spec.denseMacs()): the set of multiplies a
 * zero-oblivious machine would execute. When a dataflow schedules the
 * multiply at an armed point, the upset *fires* and the product's
 * Fixed16 image gets its bits flipped; a point the schedule never
 * issues is *masked* — the physical register or wire the upset landed
 * on is never sampled by an accumulator. Because every architecture is
 * armed with the identical site set (the arming draw is keyed on
 * (plan seed, job index) only), masked/armed is a like-for-like
 * architectural-vulnerability comparison: the zero-free dataflows mask
 * the sites that fall on structural zeros they skip, the baselines
 * execute those same sites and absorb the corruption.
 *
 * Permanent PE faults (stuck-at lanes) apply to every product the
 * faulty physical lane produces, effectual or not.
 *
 * A plan without PE faults publishes a sim::MacRowFilter per job: only
 * the armed lanes reach onMac, and the walks settle every other row and
 * lane in bulk, and whole cycles that hold none of the armed lanes'
 * rows (docs/fault_injection.md).
 */

#ifndef GANACC_FAULT_INJECTOR_HH
#define GANACC_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "fault/fault_plan.hh"
#include "sim/conv_spec.hh"
#include "sim/fault_hook.hh"

namespace ganacc {
namespace fault {

/** Seeded, order-independent realization of one FaultPlan. */
class FaultInjector final : public sim::MacFaultHook
{
  public:
    explicit FaultInjector(FaultPlan plan);
    // The published row filter points into this object.
    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /**
     * Arm the transient sites for one job. `job_index` is the caller's
     * stable identifier of the job (its position in the campaign's job
     * list) — two injectors armed with the same (seed, job_index, spec)
     * are identical regardless of architecture or thread.
     */
    void beginJob(const sim::ConvSpec &spec, std::uint64_t job_index);

    // sim::MacFaultHook
    float onMac(const sim::MacContext &ctx, float a, float b) override;
    bool visitIneffectual() const override;
    const sim::MacRowFilter *rowFilter() const override;

    /** Lifetime counters, accumulated across beginJob() calls. */
    struct Counters
    {
        std::uint64_t armed = 0; ///< transient sites armed
        std::uint64_t fired = 0; ///< armed sites actually scheduled
        /** Scheduled products the hook covers, whether presented to
         *  onMac or settled in bulk by the row filter. */
        std::uint64_t macsObserved = 0;
        std::uint64_t peHits = 0; ///< products altered by a stuck lane

        std::uint64_t masked() const { return armed - fired; }

        /** Fraction of armed upsets the dataflow never sampled. */
        double
        maskingRate() const
        {
            return armed == 0 ? 0.0
                              : double(masked()) / double(armed);
        }
    };

    const Counters &counters() const { return counters_; }
    void resetCounters() { counters_ = Counters{}; }

    const FaultPlan &plan() const { return plan_; }

  private:
    /** Buckets in the row bitmap: 2^18 bits, 32 KB. */
    static constexpr unsigned kBucketBits = 18;

    std::uint64_t latticeIndex(const sim::MacContext &ctx) const;
    /** The armed-set slot holding `site`, or the empty slot where it
     *  would go. */
    std::uint64_t &armedSlot(std::uint64_t site);
    /** Set or clear the row-bitmap bit of an armed site's bucket. */
    void markRow(std::uint64_t site, bool on);
    float flipProductBits(float product, std::uint64_t site) const;

    FaultPlan plan_;
    bool haveJob_ = false;
    /** Lattice stride of `of` for the armed job: the row count. The
     *  row strides of (c, oy, ox, ky) live in filter_. */
    std::uint64_t ofStride_ = 0;
    std::vector<std::uint64_t> armedSites_; ///< distinct, in draw order
    /** Hash set of armedSites_: 2^(64 - armedSetShift_) slots, empty
     *  ones holding kNoSite. */
    std::vector<std::uint64_t> armedSet_;
    unsigned armedSetShift_ = 64;
    static constexpr std::uint64_t kNoSite = ~std::uint64_t(0);
    /**
     * One bit per bucket of operand rows (row r in bucket r mod 2^18),
     * set iff the bucket holds an armed site. The walks skip onMac for
     * every other row; onMac itself rejects most MACs of a caller that
     * presents every one (a stuck-lane plan, CNV, RST) with the same
     * load, and only a bucket hit pays the exact test.
     */
    std::vector<std::uint64_t> rowMap_;
    /** The armed sites as (row, of), ascending: the filter's list of
     *  sites, so a walk presents only their lanes and settles whole
     *  cycles that hold none of their rows. */
    std::vector<sim::MacSite> armedLanes_;
    sim::MacRowFilter filter_;
    Counters counters_;
};

} // namespace fault
} // namespace ganacc

#endif // GANACC_FAULT_INJECTOR_HH
