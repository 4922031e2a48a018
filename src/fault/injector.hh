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

    /** Lifetime counters, accumulated across beginJob() calls. */
    struct Counters
    {
        std::uint64_t armed = 0; ///< transient sites armed
        std::uint64_t fired = 0; ///< armed sites actually scheduled
        std::uint64_t macsObserved = 0; ///< products seen by the hook
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
    /** Buckets in the armed-site prefilter: 2^18 bits, 32 KB. */
    static constexpr unsigned kBucketBits = 18;

    std::uint64_t latticeIndex(const sim::MacContext &ctx) const;
    std::uint64_t bucketOf(std::uint64_t site) const;
    float flipProductBits(float product, std::uint64_t site) const;

    FaultPlan plan_;
    bool haveJob_ = false;
    /** Row-major lattice strides of (of, c, oy, ox, ky) for the armed
     *  job; kx has stride 1. */
    std::uint64_t stride_[5] = {};
    std::vector<std::uint64_t> armedSites_; ///< sorted, distinct
    /**
     * One bit per bucket of 2^bucketShift_ adjacent lattice sites, set
     * iff the bucket holds an armed site. Most MACs are rejected by one
     * load here; only a bucket hit pays the exact binary search.
     */
    std::vector<std::uint64_t> bucketMap_;
    unsigned bucketShift_ = 0;
    Counters counters_;
};

} // namespace fault
} // namespace ganacc

#endif // GANACC_FAULT_INJECTOR_HH
