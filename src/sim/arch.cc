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

std::array<UnrollFactor, 6>
unrollFactors(const Dataflow &d)
{
    const bool taps = d.tileOnLanes && d.tiled == Space::Taps;
    const bool outs = d.tileOnLanes && d.tiled == Space::Outputs;
    return {{{"P_if", &Unroll::pIf, d.cLanes != 0},
             {"P_kx", &Unroll::pKx, taps},
             {"P_ky", &Unroll::pKy, taps},
             {"P_ox", &Unroll::pOx, outs},
             {"P_oy", &Unroll::pOy, outs},
             {"P_of", &Unroll::pOf, true}}};
}

RunStats
Architecture::doRun(const ConvSpec &spec, const tensor::Tensor *in,
                    const tensor::Tensor *w, tensor::Tensor *out) const
{
    return walk(*this, *dataflow_, spec, in, w, out);
}

bool
Architecture::scheduleModel(const ConvSpec &spec, ScheduleModel &model) const
{
    if (!dataflow_)
        return false;
    model = sim::scheduleModel(*dataflow_, spec);
    return true;
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
    const int n_pes = numPes();
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
            rec->onJobBegin(n_pes, spec);
            stats = doRun(spec, in, w, out);
            rec->onJobEnd();
        } else {
            stats = doRun(spec, in, w, out);
        }
    }
    stats.nPes = std::uint64_t(n_pes);
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
