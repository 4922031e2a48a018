/**
 * @file
 * Architecture base implementation: validation and invariant checks
 * shared by every microarchitecture.
 */

#include "sim/arch.hh"

#include <sstream>

#include "obs/probe.hh"
#include "sim/closed_form.hh"
#include "util/logging.hh"

namespace ganacc {
namespace sim {

std::string
Unroll::str() const
{
    std::ostringstream os;
    os << "Pif=" << pIf << " Pof=" << pOf << " Pk=" << pKy << "x" << pKx
       << " Po=" << pOy << "x" << pOx;
    return os.str();
}

Architecture::MacPath::MacPath(MacFaultHook *hook,
                               const CycleProjection &proj)
    : hook_(hook), presented_(hook != nullptr)
{
    if (hook_ == nullptr)
        return;
    ineffectual_ = hook_->visitIneffectual();
    const MacRowFilter *f = hook_->rowFilter();
    if (f == nullptr)
        return;
    filter_ = *f;
    filtered_ = true;
    // A settled cycle tallies its ineffectual MACs as quiet, so only a
    // walk that would visit them may settle it.
    if (!ineffectual_ || filter_.rows == nullptr)
        return;
    settles_ = true;
    const std::uint64_t *const stride = filter_.stride;
    for (const std::uint64_t row : *filter_.rows) {
        const std::uint64_t in_c = row % stride[0],
                            in_oy = in_c % stride[1],
                            in_ox = in_oy % stride[2];
        const std::uint64_t bit =
            proj.key(int(row / stride[0]), int(in_c / stride[1]),
                     int(in_oy / stride[2]), int(in_ox / stride[3]),
                     int(in_ox % stride[3])) &
            kCycleMask;
        cycleBits_[bit >> 6] |= std::uint64_t(1) << (bit & 63);
    }
}

void
Architecture::hookedRow(MacFaultHook &hook, float *acc, const float *k,
                        float v, MacContext ctx, int of_cnt)
{
    const int lane0 = ctx.lane, of0 = ctx.of;
    for (int f = 0; f < of_cnt; ++f) {
        ctx.lane = lane0 + f;
        ctx.of = of0 + f;
        acc[f] += hook.onMac(ctx, v, k[f]);
    }
}

void
Architecture::RegisterBlock::load(const ConvSpec &spec,
                                  const tensor::Tensor &out, int c)
{
    const std::size_t step = RowOperands::sumStep(spec, out);
    float *entry = sums_.data();
    for (int p = 0; p < planes_; ++p)
        for (int i = 0; i < ny_; ++i)
            for (int j = 0; j < nx_; ++j, entry += ofCnt_) {
                const float *src =
                    out.data() + RowOperands::sumOffset(spec, out, of0_,
                                                        c + p,
                                                        y0_ + i * step_,
                                                        x0_ + j * step_);
                for (int f = 0; f < ofCnt_; ++f)
                    entry[f] = src[std::size_t(f) * step];
            }
}

void
Architecture::RegisterBlock::store(const ConvSpec &spec,
                                   tensor::Tensor &out, int c) const
{
    const std::size_t step = RowOperands::sumStep(spec, out);
    const float *entry = sums_.data();
    for (int p = 0; p < planes_; ++p)
        for (int i = 0; i < ny_; ++i)
            for (int j = 0; j < nx_; ++j, entry += ofCnt_) {
                float *dst =
                    out.data() + RowOperands::sumOffset(spec, out, of0_,
                                                        c + p,
                                                        y0_ + i * step_,
                                                        x0_ + j * step_);
                for (int f = 0; f < ofCnt_; ++f)
                    dst[std::size_t(f) * step] = entry[f];
            }
}

RunStats
Architecture::run(const ConvSpec &spec, const tensor::Tensor *in,
                  const tensor::Tensor *w, tensor::Tensor *out) const
{
    spec.validate();
    const bool functional = in != nullptr;
    GANACC_ASSERT((in != nullptr) == (w != nullptr) &&
                      (in != nullptr) == (out != nullptr),
                  "run() operands must be all null or all non-null");
    GANACC_ASSERT(faultHook() == nullptr || functional,
                  name_, ": fault injection corrupts the value path and "
                         "needs functional operands (timing-only runs "
                         "have no products to corrupt)");
    if (functional) {
        GANACC_ASSERT(in->shape() ==
                          tensor::Shape4(1, spec.nif, spec.ih, spec.iw),
                      name_, ": bad streamed input shape");
        out->fill(0.0f);
    }
    // Engine dispatch: timing-only, fault-free jobs may take the
    // schedule model's fast path (bit-identical to the walk by contract;
    // the differential-fuzz parity suite keeps the contract honest).
    // Functional runs always walk — they produce real output data —
    // and so do recorded runs: a closed form has no cycles to narrate.
    RunStats stats;
    bool fast = false;
    if (!functional && fastPathEnabled() && scheduleRecorder() == nullptr) {
        ScheduleModel model;
        fast = scheduleModel(spec, model);
        if (fast)
            stats = model.stats;
    }
    if (!fast) {
        if (ScheduleRecorder *rec = scheduleRecorder()) {
            rec->onJobBegin(numPes(), spec);
            stats = doRun(spec, in, w, out);
            rec->onJobEnd();
        } else {
            stats = doRun(spec, in, w, out);
        }
    }
    stats.nPes = std::uint64_t(numPes());
    // Conservation: every PE slot of every cycle is classified exactly
    // once as effective, ineffectual or idle.
    GANACC_ASSERT(stats.effectiveMacs + stats.ineffectualMacs +
                          stats.idlePeSlots ==
                      stats.totalSlots(),
                  name_, " on ", spec.describe(),
                  ": PE-slot conservation violated: ", stats.str());
    // An architecture can never do more useful work than exists.
    GANACC_ASSERT(stats.effectiveMacs <= spec.denseMacs(),
                  name_, ": more effective MACs than the job contains");
    // Telemetry probe: one relaxed load when observation is off (the
    // default), one per-job callback when armed — never per cycle, so
    // the walk itself is untouched either way.
    if (obs::Probe *probe = obs::runProbe()) {
        obs::RunSample sample;
        sample.arch = name_;
        sample.label = spec.label;
        sample.engine = fast ? "fast" : "walk";
        sample.cycles = stats.cycles;
        sample.nPes = stats.nPes;
        sample.effectiveMacs = stats.effectiveMacs;
        sample.ineffectualMacs = stats.ineffectualMacs;
        sample.idlePeSlots = stats.idlePeSlots;
        sample.gatedSlots = stats.gatedSlots;
        sample.weightLoads = stats.weightLoads;
        sample.inputLoads = stats.inputLoads;
        sample.outputReads = stats.outputReads;
        sample.outputWrites = stats.outputWrites;
        probe->onRun(sample);
    }
    return stats;
}

} // namespace sim
} // namespace ganacc
