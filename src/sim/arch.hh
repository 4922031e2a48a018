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

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "sim/conv_spec.hh"
#include "sim/fault_hook.hh"
#include "sim/schedule_recorder.hh"
#include "sim/stats.hh"
#include "sim/walker.hh"
#include "tensor/tensor.hh"

namespace ganacc {
namespace sim {

struct ScheduleModel; // sim/closed_form.hh

/**
 * Loop-unrolling factors (Table II notation). Each architecture reads
 * the fields relevant to its dataflow (unrollFactors()) and ignores
 * the rest.
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

/** One Table II unroll factor: its name, its Unroll member, and
 *  whether a dataflow reads it. */
struct UnrollFactor
{
    const char *name;
    int Unroll::*member;
    bool read;
};

/**
 * The six unroll factors in report order (P_if, P_kx, P_ky, P_ox,
 * P_oy, P_of), each marked with whether `d` reads it: P_if when the
 * input maps sit on lanes, P_kx and P_ky when a pass tiles taps,
 * P_ox and P_oy when it tiles outputs on lanes, and always P_of.
 */
std::array<UnrollFactor, 6> unrollFactors(const Dataflow &d);

/** A PE-array microarchitecture executing ConvSpec jobs. */
class Architecture
{
  public:
    /** An architecture that runs the Fig. 4 descriptor `d`. The
     *  factors of `unroll` are stored as given, even non-positive
     *  ones, so the verifier can report them (GA-UNROLL-POSITIVE). */
    Architecture(std::string name, Unroll unroll, const Dataflow &d)
        : name_(std::move(name)), unroll_(unroll), dataflow_(d),
          n_pes_(d.pes()) {}
    virtual ~Architecture() = default;

    const std::string &name() const { return name_; }
    const Unroll &unroll() const { return unroll_; }

    /** Number of PEs in the array, fixed at construction: the PE count
     *  of the dataflow() descriptor (Dataflow::pes()), or the count
     *  the CNV and RST baselines pass. */
    int numPes() const { return n_pes_; }

    /**
     * The Fig. 4 descriptor of this architecture (sim/walker.hh), the
     * same for every job: doRun() walks each job through sim::walk(),
     * scheduleModel() derives its model from it, and the verifier's
     * unroll checks read it. Null for the CNV and RST baselines, which
     * override doRun() with a walk of their own.
     */
    const Dataflow *
    dataflow() const
    {
        return dataflow_ ? &*dataflow_ : nullptr;
    }

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
     * The symbolic schedule model (sim/closed_form.hh) of this job:
     * fill `model` with sim::scheduleModel() of the stored dataflow()
     * and return true, or return false when there is none (CNV and RST
     * walk only). run() answers timing-only, fault-free runs from
     * `model.stats` when the process-wide engine allows it
     * (simEngine() != Walk); verify derives its bounds and schedule
     * relations from the same model.
     */
    bool scheduleModel(const ConvSpec &spec, ScheduleModel &model) const;

  protected:
    /** A baseline with `n_pes` PEs and a walk of its own (doRun());
     *  it has no descriptor. */
    Architecture(std::string name, Unroll unroll, int n_pes)
        : name_(std::move(name)), unroll_(unroll), n_pes_(n_pes) {}

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
     *  stored dataflow(). */
    virtual RunStats doRun(const ConvSpec &spec, const tensor::Tensor *in,
                           const tensor::Tensor *w,
                           tensor::Tensor *out) const;

    std::string name_;
    Unroll unroll_;

  private:
    std::optional<Dataflow> dataflow_;
    int n_pes_;
    MacFaultHook *fault_ = nullptr;
    ScheduleRecorder *sched_rec_ = nullptr;
};

} // namespace sim
} // namespace ganacc

#endif // GANACC_SIM_ARCH_HH
