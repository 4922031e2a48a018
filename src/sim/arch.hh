/**
 * @file
 * Abstract microarchitecture interface.
 *
 * Every architecture (the traditional NLR/WST/OST baselines and the
 * paper's ZFOST/ZFWST) is a PE array with a fixed unrolling and an
 * explicit per-cycle control schedule. run() is functional *and*
 * timing: when operand tensors are supplied the modeled dataflow
 * computes the real output (checked against the golden model by the
 * tests) while counting cycles, PE-slot occupancy and on-chip buffer
 * accesses; with null operands only the counts are produced.
 */

#ifndef GANACC_SIM_ARCH_HH
#define GANACC_SIM_ARCH_HH

#include <memory>
#include <string>

#include "sim/conv_spec.hh"
#include "sim/fault_hook.hh"
#include "sim/schedule_recorder.hh"
#include "sim/stats.hh"
#include "tensor/tensor.hh"

namespace ganacc {
namespace sim {

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

  protected:
    /**
     * The shared functional MAC path: every dataflow's inner loop
     * produces its products here. Without a hook this is exactly
     * `a * b`.
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

    /**
     * The MAC path of one functional walk, built from faultHook() when
     * the walk starts: the hook, its row filter and visitIneffectual(),
     * read once. Quiet rows are tallied here and added to the filter's
     * counter when the path goes out of scope.
     */
    class MacPath
    {
      public:
        explicit MacPath(MacFaultHook *hook) : hook_(hook)
        {
            if (hook_ == nullptr)
                return;
            ineffectual_ = hook_->visitIneffectual();
            if (const MacRowFilter *f = hook_->rowFilter()) {
                filter_ = *f;
                filtered_ = true;
            }
        }
        ~MacPath()
        {
            if (quiet_ != 0)
                *filter_.quietMacs += quiet_;
        }
        MacPath(const MacPath &) = delete;
        MacPath &operator=(const MacPath &) = delete;

        /** True when a row with this effectuality must reach macRow. */
        bool visits(bool useful) const { return useful || ineffectual_; }

      private:
        friend class Architecture;

        MacFaultHook *hook_;
        bool ineffectual_ = false; ///< visit ineffectual slots
        bool filtered_ = false;    ///< false: present every MAC
        MacRowFilter filter_;
        std::uint64_t quiet_ = 0;  ///< MACs of quiet rows
    };

    /** One operand row's accumulators and kernel weights: strided runs
     *  over `of`, starting at of0. */
    struct RowOperands
    {
        float *acc;
        std::size_t accStep;
        const float *k;
        std::size_t kStep;

        RowOperands(const ConvSpec &spec, const tensor::Tensor &w,
                    tensor::Tensor &out, int of0, int c, int oy, int ox,
                    int ky, int kx)
        {
            // Four-dimension jobs index the kernel by `of` alone and
            // keep one output plane per (of, c).
            const bool four = spec.fourDimOutput;
            const tensor::Shape4 &os = out.shape(), &ks = w.shape();
            acc = out.data() + (four ? os.offset(of0, c, oy, ox)
                                     : os.offset(0, of0, oy, ox));
            accStep = std::size_t(os.d2) * os.d3 * (four ? os.d1 : 1);
            k = w.data() + ks.offset(of0, four ? 0 : c, ky, kx);
            kStep = std::size_t(ks.d1) * ks.d2 * ks.d3;
        }
    };

    /**
     * One scheduled operand row: streamed input `v` times the `of_cnt`
     * kernel weights of output maps [of0, of0 + of_cnt) at (c, ky, kx),
     * on physical lanes lane0 + f. `useful` means both operands are
     * structurally non-zero (a walk may also clear it for a zero input
     * value). Call only when path.visits(x) holds, where x may be a
     * weaker test than `useful`: OST visits every tap whose input is
     * non-zero, structural kernel zeros included, because its array
     * streams them. A row the hook does not see — no hook, or a row
     * the filter marks quiet — is multiplied only when `useful`: an
     * ineffectual one adds ±0 on finite operands, which never changes
     * an accumulator that starts at +0.
     */
    void
    macRow(MacPath &path, const ConvSpec &spec, const tensor::Tensor &w,
           tensor::Tensor &out, float v, bool useful, int lane0, int of0,
           int of_cnt, int c, int oy, int ox, int ky, int kx) const
    {
        if (path.hook_ != nullptr) {
            if (!path.filtered_ || path.filter_.loud(c, oy, ox, ky, kx)) {
                hookedRow(*path.hook_,
                          RowOperands(spec, w, out, of0, c, oy, ox, ky, kx),
                          v, MacContext{lane0, of0, c, oy, ox, ky, kx},
                          of_cnt);
                return;
            }
            path.quiet_ += std::uint64_t(of_cnt);
        }
        if (!useful)
            return;
        const RowOperands row(spec, w, out, of0, c, oy, ox, ky, kx);
        for (int f = 0; f < of_cnt; ++f)
            row.acc[f * row.accStep] += v * row.k[f * row.kStep];
    }

    /** macRow's hooked path: every MAC of the row through onMac; `ctx`
     *  holds the row's first lane and output map. */
    static void hookedRow(MacFaultHook &hook, const RowOperands &row,
                          float v, MacContext ctx, int of_cnt);

    virtual RunStats doRun(const ConvSpec &spec, const tensor::Tensor *in,
                           const tensor::Tensor *w,
                           tensor::Tensor *out) const = 0;

    /** The armed schedule recorder, or nullptr (the default). Walks
     *  test this once per site; disarmed walks are untouched. */
    ScheduleRecorder *schedRec() const { return sched_rec_; }

    std::string name_;
    Unroll unroll_;

  private:
    MacFaultHook *fault_ = nullptr;
    ScheduleRecorder *sched_rec_ = nullptr;
};

} // namespace sim
} // namespace ganacc

#endif // GANACC_SIM_ARCH_HH
