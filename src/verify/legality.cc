/**
 * @file
 * Legality checks implementation.
 */

#include "verify/legality.hh"

#include <algorithm>
#include <sstream>
#include <string>

#include "sim/phase.hh"
#include "sim/walker.hh"
#include "util/logging.hh"
#include "verify/static_bounds.hh"

namespace ganacc {
namespace verify {

using gan::GanModel;
using gan::LayerSpec;
using sim::ConvSpec;
using sim::Unroll;

namespace {

std::string
layerWhere(const GanModel &model, const char *which, std::size_t i)
{
    std::ostringstream os;
    os << model.name << " " << which << " L" << i;
    return os.str();
}

/** Streamed-extent consistency of one zero-stuffed axis: the streamed
 *  size must cover the dense extent exactly, up to `zero_stride - 1`
 *  trailing output-padding zeros. */
bool
axisGeomOk(int streamed, int orig, int zero_stride)
{
    if (orig < 0)
        return true; // whole-grid pattern, no trailing crop
    int natural = (orig - 1) * zero_stride + 1;
    int extra = streamed - natural;
    return extra >= 0 && extra < zero_stride;
}

} // namespace

void
checkConvSpec(const ConvSpec &spec, Report &report)
{
    const std::string &where = spec.label;

    if (spec.nif < 1 || spec.nof < 1 || spec.ih < 1 || spec.iw < 1 ||
        spec.kh < 1 || spec.kw < 1 || spec.oh < 1 || spec.ow < 1 ||
        spec.stride < 1 || spec.pad < 0 || spec.inZeroStride < 1 ||
        spec.kZeroStride < 1) {
        report.error(codes::kSpecField, where,
                     "malformed spec fields: " + spec.describe());
        return; // everything below assumes sane fields
    }

    // The last output's receptive field must still overlap the input
    // (the simulator's validate() panics otherwise).
    if ((spec.oh - 1) * spec.stride - spec.pad >= spec.ih ||
        (spec.ow - 1) * spec.stride - spec.pad >= spec.iw)
        report.error(codes::kSpecExtent, where,
                     "output extent exceeds the input's support: " +
                         spec.describe());

    // Zero-inserted inputs only occur under stride-1 streaming in the
    // GAN phase mapping; ZFOST/ZFWST panic on the combination.
    if (spec.inZeroStride > 1 && spec.stride != 1)
        report.error(codes::kSpecZeroInsertStride, where,
                     "zero-inserted input streamed with stride " +
                         std::to_string(spec.stride) +
                         " is not a GAN pattern (T-CONV streams are "
                         "stride-1 over the stuffed map)");

    if (spec.inZeroStride > 1 &&
        (!axisGeomOk(spec.ih, spec.inOrigH, spec.inZeroStride) ||
         !axisGeomOk(spec.iw, spec.inOrigW, spec.inZeroStride)))
        report.error(codes::kSpecZeroInsertGeom, where,
                     "streamed input size disagrees with dense extent "
                     "and zero stride: " + spec.describe());

    if (spec.kZeroStride > 1 &&
        (!axisGeomOk(spec.kh, spec.kOrigH, spec.kZeroStride) ||
         !axisGeomOk(spec.kw, spec.kOrigW, spec.kZeroStride)))
        report.error(codes::kSpecKernelZeroGeom, where,
                     "dilated kernel size disagrees with dense extent "
                     "and zero stride: " + spec.describe());
}

namespace {

/** Per-layer shape arithmetic; true when the layer is sound. */
bool
checkLayerShape(const LayerSpec &l, const std::string &where,
                Report &report)
{
    if (l.inChannels < 1 || l.outChannels < 1 || l.inH < 1 ||
        l.inW < 1 || l.geom.kernel < 1 || l.geom.stride < 1 ||
        l.geom.pad < 0 || l.geom.outPad < 0) {
        // describe() derives the output shape, which panics on these
        // very fields — report the raw values instead.
        std::ostringstream os;
        os << "malformed layer fields: " << l.inChannels << "x" << l.inH
           << "x" << l.inW << " -> " << l.outChannels << " ch, k"
           << l.geom.kernel << " s" << l.geom.stride << " p"
           << l.geom.pad << " op" << l.geom.outPad;
        report.error(codes::kNetShape, where, os.str());
        return false;
    }
    if (l.kind == nn::ConvKind::Transposed) {
        // tconvJob needs outPad < stride and pad <= kernel-1.
        if (l.geom.outPad >= l.geom.stride) {
            report.error(codes::kNetShape, where,
                         "T-CONV output padding " +
                             std::to_string(l.geom.outPad) +
                             " must be smaller than stride " +
                             std::to_string(l.geom.stride));
            return false;
        }
        if (l.geom.pad > l.geom.kernel - 1) {
            report.error(codes::kNetShape, where,
                         "T-CONV padding " + std::to_string(l.geom.pad) +
                             " exceeds kernel-1 (the zero-insert "
                             "streaming pad would be negative)");
            return false;
        }
    }
    if (l.outH() < 1 || l.outW() < 1) {
        report.error(codes::kNetShape, where,
                     "layer produces an empty output map: " +
                         l.describe());
        return false;
    }
    return true;
}

/** Shape-check one network and its layer-to-layer chaining. */
bool
checkStack(const GanModel &model, const std::vector<LayerSpec> &layers,
           const char *which, Report &report)
{
    bool ok = true;
    for (std::size_t i = 0; i < layers.size(); ++i)
        ok = checkLayerShape(layers[i], layerWhere(model, which, i),
                             report) &&
             ok;
    if (!ok)
        return false;
    for (std::size_t i = 1; i < layers.size(); ++i) {
        const LayerSpec &prev = layers[i - 1];
        const LayerSpec &cur = layers[i];
        if (cur.inChannels != prev.outChannels ||
            cur.inH != prev.outH() || cur.inW != prev.outW()) {
            std::ostringstream os;
            os << "expects " << cur.inChannels << "x" << cur.inH << "x"
               << cur.inW << " but the previous layer produces "
               << prev.outChannels << "x" << prev.outH() << "x"
               << prev.outW();
            report.error(codes::kNetChain,
                         layerWhere(model, which, i), os.str());
            ok = false;
        }
    }
    return ok;
}

} // namespace

void
checkModel(const GanModel &model, Report &report)
{
    if (model.disc.empty() || model.gen.empty()) {
        report.error(codes::kNetEmpty, model.name,
                     "model needs both a discriminator and a "
                     "generator stack");
        return;
    }

    bool ok = checkStack(model, model.disc, "disc", report);
    ok = checkStack(model, model.gen, "gen", report) && ok;
    if (!ok)
        return;

    const LayerSpec &head = model.disc.back();
    if (head.outChannels != 1 || head.outH() != 1 || head.outW() != 1)
        report.warning(codes::kNetHead,
                       layerWhere(model, "disc",
                                  model.disc.size() - 1),
                       "discriminator does not end in a 1x1x1 scalar "
                       "head: " + head.describe());

    const LayerSpec &last = model.gen.back();
    const LayerSpec &first = model.disc.front();
    if (last.outChannels != first.inChannels ||
        last.outH() != first.inH || last.outW() != first.inW) {
        std::ostringstream os;
        os << "generator produces " << last.outChannels << "x"
           << last.outH() << "x" << last.outW()
           << " but the discriminator consumes " << first.inChannels
           << "x" << first.inH << "x" << first.inW;
        report.error(codes::kNetImage, model.name, os.str());
        return;
    }

    // The graph is sound: derive every phase's streamed job and check
    // the specs themselves (zero-insert geometry, extents). A failure
    // here is a phase-mapping bug, not a user error, but it is still
    // reported instead of panicking.
    try {
        for (sim::Phase p : sim::allPhases())
            for (const ConvSpec &job : sim::phaseJobs(model, p))
                checkConvSpec(job, report);
    } catch (const util::PanicError &e) {
        report.error(codes::kNetShape, model.name,
                     std::string("phase-job derivation failed: ") +
                         e.what());
    }
}

namespace {

struct DimCheck
{
    const char *name;
    int bound;
    int factor;
};

using Factors = std::vector<std::pair<const char *, int>>;

/**
 * The unroll checks shared by every dataflow: GA-UNROLL-POSITIVE for
 * each used factor below 1 and GA-UNROLL-UNUSED for each unused factor
 * other than 1; then, when every used factor is positive, for each job
 * whose `bounds` the factors do not divide, "<arch> unrolling does not
 * divide <bound names>", handed to `divide` to complete and report.
 */
template <class Bounds, class Divide>
void
reportUnroll(const std::string &arch, const Factors &used,
             const Factors &unused, const std::vector<ConvSpec> &jobs,
             Bounds bounds, Divide divide, Report &report)
{
    bool positive = true;
    for (const auto &[name, value] : used) {
        if (value < 1) {
            report.error(codes::kUnrollPositive, arch,
                         std::string(name) + " = " +
                             std::to_string(value) +
                             " must be at least 1");
            positive = false;
        }
    }
    for (const auto &[name, value] : unused)
        if (value != 1)
            report.warning(codes::kUnrollUnused, arch,
                           std::string(name) + " = " +
                               std::to_string(value) + " is ignored by "
                               "the " + arch + " dataflow");
    if (!positive)
        return;

    for (const ConvSpec &job : jobs) {
        std::vector<const char *> offending;
        for (const DimCheck &d : bounds(job))
            if (d.bound % d.factor != 0 &&
                std::find(offending.begin(), offending.end(), d.name) ==
                    offending.end())
                offending.push_back(d.name);
        if (offending.empty())
            continue;
        std::ostringstream os;
        os << arch << " unrolling does not divide";
        for (std::size_t i = 0; i < offending.size(); ++i)
            os << (i ? ", " : " ") << offending[i];
        divide(job, os.str());
    }
}

/**
 * Loop bounds the lanes of `d` must divide on `spec`: nif when the
 * input maps sit on lanes (not on 4-D outputs, which no adder tree
 * sums); when the tile is on lanes, the tiled space's extents (oh/ow
 * or kh/kw), per parity class that streams a tap when zero-free, and
 * as one count of kernel elements when flat; then nof.
 */
std::vector<DimCheck>
divideBounds(const sim::Dataflow &d, const ConvSpec &spec)
{
    std::vector<DimCheck> dims;
    if (d.cLanes != 0 && !spec.fourDimOutput)
        dims.push_back({"nif", spec.nif, d.cLanes});
    const bool taps = d.tiled == sim::Space::Taps;
    if (d.tileOnLanes) {
        for (const sim::ParityClass &cls :
             sim::parityClasses(spec, d.zeroFree)) {
            if (cls.empty())
                continue;
            const int rows = taps ? int(cls.y.taps.size()) : cls.y.count;
            const int cols = taps ? int(cls.x.taps.size()) : cls.x.count;
            if (d.flat) {
                dims.push_back({"class kernel elems", rows * cols,
                                d.tileY * d.tileX});
                continue;
            }
            dims.push_back({d.zeroFree ? "class rows" : taps ? "kh" : "oh",
                            rows, d.tileY});
            dims.push_back({d.zeroFree ? "class cols" : taps ? "kw" : "ow",
                            cols, d.tileX});
        }
    }
    dims.push_back({"nof", spec.nof, d.pOf});
    return dims;
}

} // namespace

void
checkUnroll(core::ArchKind kind, const Unroll &unroll,
            const std::vector<ConvSpec> &jobs, Report &report)
{
    const std::string arch = core::archKindName(kind);
    const auto pe_array = core::makeArch(kind, unroll);
    const sim::Dataflow &d = *pe_array->dataflow();

    // Which factors the dataflow reads is its shape, not their values
    // (a zero P_if would read as no input-map lanes): ask at unit ones.
    const auto shape = core::makeArch(kind, Unroll{});
    Factors used, unused;
    for (const sim::UnrollFactor &f : sim::unrollFactors(*shape->dataflow()))
        (f.read ? used : unused).emplace_back(f.name, unroll.*f.member);

    reportUnroll(
        arch, used, unused, jobs,
        [&](const ConvSpec &job) {
            // A stuffed input streamed with stride > 1 already fails
            // checkConvSpec (GA-SPEC-ZI-STRIDE); the zero-free
            // schedules are undefined on it.
            if (d.zeroFree && job.inZeroStride > 1 && job.stride != 1)
                return std::vector<DimCheck>{};
            return divideBounds(d, job);
        },
        [&](const ConvSpec &job, const std::string &message) {
            // Quantify the boundary cost with the closed-form schedule:
            // the fraction of offered PE slots nothing was scheduled on.
            const sim::RunStats st = staticModel(*pe_array, job).stats;
            const double idle_frac =
                st.totalSlots()
                    ? double(st.idlePeSlots) / double(st.totalSlots())
                    : 0.0;
            const std::string idle = std::to_string(int(idle_frac * 100.0));
            report.note(codes::kUnrollDivide, job.label,
                        message + "; " + idle +
                            "% of PE slots idle on this job");
            if (idle_frac > 0.5)
                report.warning(codes::kUnrollWaste, job.label,
                               arch + " boundary tiles idle more than "
                               "half the array on this job (" +
                                   idle + "%)");
        },
        report);
}

std::string
baselineName(BaselineKind kind)
{
    return kind == BaselineKind::CNV ? "CNV" : "RST";
}

void
checkBaselineUnroll(BaselineKind kind, const Unroll &unroll,
                    const std::vector<ConvSpec> &jobs, Report &report)
{
    const bool cnv = kind == BaselineKind::CNV;
    Factors used, unused;
    if (cnv) {
        used = {{"P_if", unroll.pIf}, {"P_of", unroll.pOf}};
        unused = {{"P_kx", unroll.pKx},
                  {"P_ky", unroll.pKy},
                  {"P_ox", unroll.pOx},
                  {"P_oy", unroll.pOy}};
    } else {
        used = {{"P_ky", unroll.pKy},
                {"P_oy", unroll.pOy},
                {"P_of", unroll.pOf}};
        unused = {{"P_if", unroll.pIf},
                  {"P_kx", unroll.pKx},
                  {"P_ox", unroll.pOx}};
    }
    reportUnroll(
        baselineName(kind), used, unused, jobs,
        [&](const ConvSpec &job) {
            std::vector<DimCheck> dims;
            if (cnv) {
                if (!job.fourDimOutput)
                    dims.push_back({"nif", job.nif, unroll.pIf});
            } else {
                dims.push_back({"kh", job.kh, unroll.pKy});
                dims.push_back({"oh", job.oh, unroll.pOy});
            }
            dims.push_back({"nof", job.nof, unroll.pOf});
            return dims;
        },
        [&](const ConvSpec &job, const std::string &message) {
            report.note(codes::kUnrollDivide, job.label,
                        message + "; boundary tiles idle PE slots on "
                                  "this job");
        },
        report);
}

void
checkBufferWorkingSets(const GanModel &model, const mem::BufferPlan &plan,
                       int w_pof, int bytes_per_elem, Report &report)
{
    if (model.disc.empty() || model.gen.empty())
        return; // checkModel reports GA-NET-EMPTY
    const std::uint64_t bpe = std::uint64_t(bytes_per_elem);

    auto scan = [&](const std::vector<LayerSpec> &layers,
                    const char *which) {
        for (std::size_t i = 0; i < layers.size(); ++i) {
            const LayerSpec &l = layers[i];
            const std::string where = layerWhere(model, which, i);
            std::uint64_t out_bytes = l.outputElems() * bpe;
            if (out_bytes > plan.inOutBytes)
                report.error(codes::kBufWorkset, where,
                             "layer output (" +
                                 std::to_string(out_bytes) +
                                 " B) exceeds an In&Out half (" +
                                 std::to_string(plan.inOutBytes) +
                                 " B)");
            std::uint64_t w_bytes = l.numWeights() * bpe;
            if (w_bytes > plan.weightBytes)
                report.error(codes::kBufWorkset, where,
                             "kernel set (" + std::to_string(w_bytes) +
                                 " B) exceeds the Weight buffer (" +
                                 std::to_string(plan.weightBytes) +
                                 " B)");
            std::uint64_t grad_bytes = std::uint64_t(w_pof) *
                                       std::uint64_t(l.inChannels) *
                                       std::uint64_t(l.geom.kernel) *
                                       std::uint64_t(l.geom.kernel) * bpe;
            if (grad_bytes > plan.gradWBytes)
                report.error(codes::kBufWorkset, where,
                             "W_Pof-wide partial-gradient set (" +
                                 std::to_string(grad_bytes) +
                                 " B) exceeds a gradient half (" +
                                 std::to_string(plan.gradWBytes) +
                                 " B)");
        }
    };
    scan(model.disc, "disc");
    scan(model.gen, "gen");

    std::uint64_t image = std::uint64_t(model.disc.front().inChannels) *
                          std::uint64_t(model.disc.front().inH) *
                          std::uint64_t(model.disc.front().inW);
    std::uint64_t sample_bytes =
        (std::max(model.discIntermediateElems(),
                  model.genIntermediateElems()) +
         image) *
        bpe;
    if (sample_bytes > plan.dataBytes)
        report.error(codes::kBufWorkset, model.name,
                     "per-sample forward data set (" +
                         std::to_string(sample_bytes) +
                         " B) exceeds the Data buffer (" +
                         std::to_string(plan.dataBytes) + " B)");
    if (sample_bytes > plan.errorBytes)
        report.error(codes::kBufWorkset, model.name,
                     "per-sample error set (" +
                         std::to_string(sample_bytes) +
                         " B) exceeds the Error buffer (" +
                         std::to_string(plan.errorBytes) + " B)");
}

void
checkBramBudget(const mem::BufferPlan &plan, int bram36_budget,
                Report &report)
{
    int need = plan.bram36Count();
    if (need > bram36_budget)
        report.error(codes::kBufCapacity, "buffer plan",
                     "needs " + std::to_string(need) +
                         " BRAM36 but the device provides " +
                         std::to_string(bram36_budget));
}

void
checkDesignPoint(const Report &model_report, int w_pof, int st_pof,
                 int pes_per_channel, Report &report)
{
    if (w_pof < 1 || st_pof < 1 || pes_per_channel < 1)
        report.error(codes::kDsePoint, "DSE point",
                     "degenerate parallelism (W_Pof=" +
                         std::to_string(w_pof) + ", ST_Pof=" +
                         std::to_string(st_pof) + ", PEs/channel=" +
                         std::to_string(pes_per_channel) + ")");
    if (!model_report.ok())
        report.merge(model_report);
}

} // namespace verify
} // namespace ganacc
