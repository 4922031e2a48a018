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

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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
     * What one cycle of a walk fixes, as five coefficients over a row
     * (c, oy, ox, ky, kx): key() is the same for every row the cycle
     * schedules, because the coordinates that vary within a cycle have
     * coefficient zero. A projection may also leave out a coordinate
     * that varies across a run of consecutive cycles (NLR's `c`), so
     * the whole run shares one key. Two cycles or runs may share a key;
     * that costs time, never bits.
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
     * The MAC path of one functional walk, built from faultHook() when
     * the walk starts: the hook, its row filter and visitIneffectual(),
     * read once. The walk calls cycle() once per cycle, or once per run
     * of consecutive cycles that share a key. When the hook
     * visits ineffectual slots and its filter lists its loud rows,
     * those rows are projected into a cycle bitmap here, so a cycle
     * holding none of them is settled without a per-row test. Quiet
     * MACs are tallied here and added to the filter's counter when the
     * path goes out of scope.
     */
    class MacPath
    {
      public:
        MacPath(MacFaultHook *hook, const CycleProjection &proj);
        ~MacPath()
        {
            if (quiet_ != 0)
                *filter_.quietMacs += quiet_;
        }
        MacPath(const MacPath &) = delete;
        MacPath &operator=(const MacPath &) = delete;

        /**
         * Open one cycle, or a run of consecutive cycles that share a
         * key: `key` under the walk's projection and the `macs`
         * scheduled MACs of the cycle or run, effectual and
         * ineffectual. True when the hook must see its rows, which then
         * take the per-row test in blockMacRow. False without a hook,
         * or when it settles: its MACs are tallied as quiet and it runs
         * exactly as the unhooked walk would.
         */
        bool
        cycle(std::uint64_t key, std::uint64_t macs)
        {
            if (!settles_)
                return presented_;
            const std::uint64_t bit = key & kCycleMask;
            presented_ = (cycleBits_[bit >> 6] >> (bit & 63) & 1) != 0;
            if (!presented_)
                quiet_ += macs;
            return presented_;
        }

        /** True when a row with this effectuality must reach
         *  blockMacRow in the open cycle. */
        bool visits(bool useful) const
        {
            return useful || (presented_ && ineffectual_);
        }

      private:
        friend class Architecture;

        /** The cycle bitmap: 2^16 bits, 8 KB. */
        static constexpr std::uint64_t kCycleMask = (1u << 16) - 1;

        /** The per-row test of the open cycle: true when the hook sees
         *  this row; a quiet row's MACs are tallied. */
        bool
        presents(int c, int oy, int ox, int ky, int kx, int of_cnt)
        {
            if (!presented_)
                return false;
            if (!filtered_ || filter_.loud(c, oy, ox, ky, kx))
                return true;
            quiet_ += std::uint64_t(of_cnt);
            return false;
        }

        MacFaultHook *hook_;
        bool ineffectual_ = false; ///< visit ineffectual slots
        bool filtered_ = false;    ///< false: present every MAC
        bool settles_ = false;     ///< cycle() reads the cycle bitmap
        bool presented_ = false;   ///< the open cycle goes row by row
        MacRowFilter filter_;
        std::uint64_t quiet_ = 0;  ///< MACs of quiet rows and cycles
        /** Bit key & kCycleMask set when a loud row projects there. */
        std::uint64_t cycleBits_[(kCycleMask + 1) / 64] = {};
    };

    /** Where a walk finds one operand row's `of` run, starting at of0,
     *  in the output and kernel tensors. */
    struct RowOperands
    {
        // Four-dimension jobs index the kernel by `of` alone and keep
        // one output plane per (of, c).
        static std::size_t
        sumOffset(const ConvSpec &spec, const tensor::Tensor &out, int of0,
                  int c, int oy, int ox)
        {
            return spec.fourDimOutput ? out.shape().offset(of0, c, oy, ox)
                                      : out.shape().offset(0, of0, oy, ox);
        }
        static std::size_t
        sumStep(const ConvSpec &spec, const tensor::Tensor &out)
        {
            const tensor::Shape4 &os = out.shape();
            return std::size_t(os.d2) * os.d3 *
                   (spec.fourDimOutput ? os.d1 : 1);
        }
        static std::size_t
        weightOffset(const ConvSpec &spec, const tensor::Tensor &w, int of0,
                     int c, int ky, int kx)
        {
            return w.shape().offset(of0, spec.fourDimOutput ? 0 : c, ky, kx);
        }
        static std::size_t
        weightStep(const tensor::Tensor &w)
        {
            const tensor::Shape4 &ks = w.shape();
            return std::size_t(ks.d1) * ks.d2 * ks.d3;
        }
    };

    /**
     * One scheduled operand row on a register block: streamed input
     * `v` times the `of_cnt` kernel weights of output maps
     * [ctx.of, ctx.of + of_cnt) at (ctx.c, ctx.ky, ctx.kx), on
     * physical lanes ctx.lane + f. `acc` is the row's block entry and
     * `k` its staged weights, both `of_cnt` contiguous floats. Each
     * entry is one accumulator that only its tile or plane touches, in
     * walk order, and the block is loaded before and stored after, so
     * the bits are those of accumulating in place. `useful` means both
     * operands are structurally non-zero (a walk may also clear it for
     * a zero input value). Call only when path.visits(x) holds, where
     * x may be a weaker test than `useful`: OST visits every tap whose
     * input is non-zero, structural kernel zeros included, because its
     * array streams them. A row the hook does not see — no hook, a
     * settled cycle, or a row the filter marks quiet — is multiplied
     * only when `useful`: an ineffectual one adds ±0 on finite
     * operands, which never changes an accumulator that starts at +0.
     * A row the hook sees gets the same (ctx, a, b) per MAC as on any
     * other path.
     */
    void
    blockMacRow(MacPath &path, float *acc, const float *k, float v,
                bool useful, const MacContext &ctx, int of_cnt) const
    {
        if (path.presents(ctx.c, ctx.oy, ctx.ox, ctx.ky, ctx.kx, of_cnt)) {
            hookedRow(*path.hook_, acc, k, v, ctx, of_cnt);
            return;
        }
        if (useful)
            blockRow(acc, k, v, of_cnt);
    }

    /**
     * The plain contiguous row: acc[f] += v * k[f] for f < n. A fixed
     * 8-wide chunk plus a scalar tail, so the default -O2 vectorizer
     * takes the chunk; each lane is its own accumulator, so the bits
     * are the scalar loop's (library code is built without FP
     * contraction).
     */
    static void
    blockRow(float *__restrict acc, const float *__restrict k, float v,
             int n)
    {
        int f = 0;
        for (; f + 8 <= n; f += 8)
            for (int j = 0; j < 8; ++j)
                acc[f + j] += v * k[f + j];
        for (; f < n; ++f)
            acc[f] += v * k[f];
    }

    /**
     * A register block: the partial sums of output maps
     * [of0, of0 + of_cnt) at a grid of output positions
     * (y0 + i * step, x0 + j * step), i < ny, j < nx, in `planes`
     * planes, held [plane][position][of]. load() copies them in from
     * the output tensor before the block's first contribution and
     * store() copies them back after its last; plane p holds input map
     * c + p on 4-D outputs, and a block of any other job has one plane.
     */
    class RegisterBlock
    {
      public:
        /** Place the block on a grid; keeps the buffer's capacity. */
        void
        place(int of0, int of_cnt, int y0, int x0, int step, int ny, int nx,
              int planes = 1)
        {
            of0_ = of0;
            ofCnt_ = of_cnt;
            y0_ = y0;
            x0_ = x0;
            step_ = step;
            ny_ = ny;
            nx_ = nx;
            planes_ = planes;
            sums_.resize(std::size_t(planes) * std::size_t(ny) *
                         std::size_t(nx) * std::size_t(of_cnt));
        }

        /** The entry of grid position (i, j) in plane p: of_cnt
         *  contiguous sums. */
        float *
        at(int i, int j, int p = 0)
        {
            return sums_.data() +
                   ((std::size_t(p) * std::size_t(ny_) + std::size_t(i)) *
                        std::size_t(nx_) +
                    std::size_t(j)) *
                       std::size_t(ofCnt_);
        }

        void load(const ConvSpec &spec, const tensor::Tensor &out, int c);
        void store(const ConvSpec &spec, tensor::Tensor &out, int c) const;

      private:
        int of0_ = 0, ofCnt_ = 0, y0_ = 0, x0_ = 0, step_ = 1, ny_ = 0,
            nx_ = 0, planes_ = 1;
        std::vector<float> sums_;
    };

    /** Stage the `of_cnt` weights of output maps [of0, ...) at
     *  (c, ky, kx) contiguously in `dst`. */
    static void
    stageWeights(const ConvSpec &spec, const tensor::Tensor &w, int of0,
                 int of_cnt, int c, int ky, int kx, float *dst)
    {
        const float *p =
            w.data() + RowOperands::weightOffset(spec, w, of0, c, ky, kx);
        const std::size_t step = RowOperands::weightStep(w);
        for (int f = 0; f < of_cnt; ++f)
            dst[f] = p[f * step];
    }

    /** The hooked path of a row: every MAC of the row through onMac;
     *  `ctx` holds the row's first lane and output map. */
    static void hookedRow(MacFaultHook &hook, float *acc, const float *k,
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
