/**
 * @file
 * Abstract microarchitecture interface.
 *
 * Every architecture (the traditional NLR/WST/OST baselines and the
 * paper's ZFOST/ZFWST) is a PE array with a fixed unrolling and an
 * explicit per-cycle control schedule, stated as a Fig. 4 descriptor
 * (dataflow()) that the one cycle walk, sim::walk(), runs. run() is
 * functional *and* timing: when operand tensors are supplied the
 * modeled dataflow computes the real output (checked against the
 * golden model by the tests) while counting cycles, PE-slot occupancy
 * and on-chip buffer accesses; with null operands only the counts are
 * produced.
 */

#ifndef GANACC_SIM_ARCH_HH
#define GANACC_SIM_ARCH_HH

#include <cstdint>
#include <string>

#include "sim/conv_spec.hh"
#include "sim/fault_hook.hh"
#include "sim/schedule_recorder.hh"
#include "sim/stats.hh"
#include "tensor/tensor.hh"

namespace ganacc {
namespace sim {

struct Dataflow;      // sim/walker.hh
struct ScheduleModel; // sim/closed_form.hh

/**
 * Loop-unrolling factors (Table II notation). Each architecture reads
 * the fields relevant to its dataflow and ignores the rest.
 */
struct Unroll
{
    int pIf = 1; ///< parallel input feature maps (NLR)
    int pOf = 1; ///< parallel output feature maps (all)
    int pKx = 1; ///< parallel kernel columns (WST/ZFWST)
    int pKy = 1; ///< parallel kernel rows (WST/ZFWST)
    int pOx = 1; ///< parallel output columns (OST/ZFOST)
    int pOy = 1; ///< parallel output rows (OST/ZFOST)

    std::string str() const;
};

/** A PE-array microarchitecture executing ConvSpec jobs. */
class Architecture
{
  public:
    Architecture(std::string name, Unroll unroll)
        : name_(std::move(name)), unroll_(unroll) {}
    virtual ~Architecture() = default;

    const std::string &name() const { return name_; }
    const Unroll &unroll() const { return unroll_; }

    /** Number of PEs in the array. */
    virtual int numPes() const = 0;

    /**
     * Execute one job.
     *
     * @param spec the streamed convolution job.
     * @param in   streamed input (1,nif,ih,iw), or nullptr for
     *             timing-only.
     * @param w    streamed kernel, or nullptr for timing-only.
     * @param out  output tensor to fill (allocated by the caller via
     *             makeOutputTensor), or nullptr for timing-only.
     *
     * in/w/out must be all null or all non-null.
     */
    RunStats run(const ConvSpec &spec, const tensor::Tensor *in,
                 const tensor::Tensor *w, tensor::Tensor *out) const;

    /** Timing-only convenience. */
    RunStats
    run(const ConvSpec &spec) const
    {
        return run(spec, nullptr, nullptr, nullptr);
    }

    /**
     * Install a fault hook on the shared MAC path (nullptr detaches).
     * Non-owning; the hook must outlive every subsequent run(). Faults
     * corrupt values, never schedules, so RunStats are unaffected.
     */
    void setFaultHook(MacFaultHook *hook) { fault_ = hook; }

    MacFaultHook *faultHook() const { return fault_; }

    /**
     * Install a schedule recorder (nullptr detaches). Non-owning; must
     * outlive every subsequent run(). An armed recorder forces the
     * cycle walk — the closed-form fast path has no cycles to narrate
     * — and observes the schedule without perturbing it: RunStats stay
     * bit-identical. Not shareable across concurrently running jobs.
     */
    void setScheduleRecorder(ScheduleRecorder *rec) { sched_rec_ = rec; }

    ScheduleRecorder *scheduleRecorder() const { return sched_rec_; }

    /**
     * The symbolic schedule model (sim/closed_form.hh): fill `model`
     * with what a walk of this job counts and observes, and return
     * true — or return false when this architecture has none. run()
     * answers timing-only, fault-free runs from `model.stats` when the
     * process-wide engine allows it (simEngine() != Walk); verify
     * derives its bounds and schedule relations from the same model.
     * Overrides must stay bit-identical to the walk;
     * tests/test_differential_fuzz.cc and
     * tests/test_schedule_shadow.cc enforce the parity.
     */
    virtual bool
    scheduleModel(const ConvSpec &, ScheduleModel &) const
    {
        return false;
    }

    /**
     * The Fig. 4 descriptor of this architecture on `spec`
     * (sim/walker.hh): fill `d` and return true when doRun() walks the
     * job through sim::walk(), or return false when the architecture
     * overrides doRun() with a walk of its own (the CNV and RST
     * baselines).
     */
    virtual bool
    dataflow(const ConvSpec &, Dataflow &) const
    {
        return false;
    }

  protected:
    /**
     * The MAC path of a walk of its own (CNV, RST): every product goes
     * through here; sim::walk() runs rows through the same hook in
     * sim/walker.cc. Without a hook this is exactly `a * b`.
     */
    float
    macProduct(float a, float b, const MacContext &ctx) const
    {
        return fault_ ? fault_->onMac(ctx, a, b) : a * b;
    }

    /** True when the functional walk must visit ineffectual scheduled
     *  slots so the hook can corrupt their (zero) products. */
    bool
    faultVisitsIneffectual() const
    {
        return fault_ != nullptr && fault_->visitIneffectual();
    }

    /** The cycle walk of one job: by default sim::walk() of the
     *  architecture's dataflow(). */
    virtual RunStats doRun(const ConvSpec &spec, const tensor::Tensor *in,
                           const tensor::Tensor *w,
                           tensor::Tensor *out) const;

    std::string name_;
    Unroll unroll_;

  private:
    MacFaultHook *fault_ = nullptr;
    ScheduleRecorder *sched_rec_ = nullptr;
};

} // namespace sim
} // namespace ganacc

#endif // GANACC_SIM_ARCH_HH
