/**
 * @file
 * Phase-to-ConvSpec mapping.
 */

#include "sim/phase.hh"

#include "util/logging.hh"

namespace ganacc {
namespace sim {

using gan::GanModel;
using gan::LayerSpec;

std::vector<Phase>
allPhases()
{
    return {Phase::DiscForward, Phase::GenForward, Phase::DiscBackward,
            Phase::GenBackward, Phase::DiscWeight, Phase::GenWeight};
}

std::string
phaseName(Phase p)
{
    switch (p) {
      case Phase::DiscForward:
        return "D-fwd";
      case Phase::GenForward:
        return "G-fwd";
      case Phase::DiscBackward:
        return "D-bwd";
      case Phase::GenBackward:
        return "G-bwd";
      case Phase::DiscWeight:
        return "Dw";
      case Phase::GenWeight:
        return "Gw";
    }
    util::panic("unknown phase");
}

std::vector<PhaseFamily>
allPhaseFamilies()
{
    return {PhaseFamily::D, PhaseFamily::G, PhaseFamily::Dw,
            PhaseFamily::Gw};
}

std::string
phaseFamilyName(PhaseFamily f)
{
    switch (f) {
      case PhaseFamily::D:
        return "D";
      case PhaseFamily::G:
        return "G";
      case PhaseFamily::Dw:
        return "Dw";
      case PhaseFamily::Gw:
        return "Gw";
    }
    util::panic("unknown phase family");
}

PhaseFamily
phaseFamilyFromName(const std::string &name)
{
    for (PhaseFamily f : allPhaseFamilies())
        if (phaseFamilyName(f) == name)
            return f;
    util::fatal("unknown phase family \"", name, "\" (D, G, Dw, Gw)");
}

PhaseFamily
familyOf(Phase p)
{
    switch (p) {
      case Phase::DiscForward:
      case Phase::GenBackward:
        return PhaseFamily::D;
      case Phase::GenForward:
      case Phase::DiscBackward:
        return PhaseFamily::G;
      case Phase::DiscWeight:
        return PhaseFamily::Dw;
      case Phase::GenWeight:
        return PhaseFamily::Gw;
    }
    util::panic("unknown phase");
}

namespace {

/** Dense strided-conv job (D→ per discriminator layer). */
ConvSpec
sconvJob(const LayerSpec &l, const std::string &label)
{
    ConvSpec s;
    s.label = label;
    s.nif = l.inChannels;
    s.nof = l.outChannels;
    s.ih = l.inH;
    s.iw = l.inW;
    s.kh = s.kw = l.geom.kernel;
    s.stride = l.geom.stride;
    s.pad = l.geom.pad;
    s.oh = l.outH();
    s.ow = l.outW();
    return s;
}

/**
 * Zero-stuffed stride-1 job implementing a transposed convolution
 * from a (dense_c, dense_h, dense_w) map to an (out_c, out_h, out_w)
 * map with the layer's kernel.
 */
ConvSpec
tconvJob(int dense_c, int dense_h, int dense_w, int out_c, int out_h,
         int out_w, int kernel, int stride, int pad,
         const std::string &label)
{
    ConvSpec s;
    s.label = label;
    s.nif = dense_c;
    s.nof = out_c;
    s.inZeroStride = stride;
    s.inOrigH = dense_h;
    s.inOrigW = dense_w;
    // Extra trailing zeros resolve the strided conv's coverage
    // remainder so the T-CONV lands exactly on the paired map size.
    int natural_h = (dense_h - 1) * stride + kernel - 2 * pad;
    int natural_w = (dense_w - 1) * stride + kernel - 2 * pad;
    int extra_h = out_h - natural_h;
    int extra_w = out_w - natural_w;
    GANACC_ASSERT(extra_h >= 0 && extra_h < stride && extra_w >= 0 &&
                      extra_w < stride,
                  "inconsistent T-CONV geometry in ", label);
    s.ih = (dense_h - 1) * stride + 1 + extra_h;
    s.iw = (dense_w - 1) * stride + 1 + extra_w;
    s.kh = s.kw = kernel;
    s.stride = 1;
    s.pad = kernel - 1 - pad;
    GANACC_ASSERT(s.pad >= 0, "T-CONV pad exceeds kernel in ", label);
    s.oh = out_h;
    s.ow = out_w;
    return s;
}

} // namespace

std::vector<ConvSpec>
phaseJobs(const GanModel &model, Phase p)
{
    std::vector<ConvSpec> jobs;
    auto tag = [&](const std::string &what, std::size_t i) {
        return model.name + " " + phaseName(p) + " L" + std::to_string(i) +
               " " + what;
    };

    switch (p) {
      case Phase::DiscForward:
        for (std::size_t i = 0; i < model.disc.size(); ++i)
            jobs.push_back(sconvJob(model.disc[i], tag("S-CONV", i)));
        break;

      case Phase::GenForward:
        // Generators are usually pure T-CONV stacks (the Fig. 1
        // inverse architecture) but encoder-decoder generators
        // (Context Encoders, the system behind the paper's cGAN) mix
        // strided layers in; each layer streams per its own kind.
        for (std::size_t i = 0; i < model.gen.size(); ++i) {
            const LayerSpec &l = model.gen[i];
            if (l.kind == nn::ConvKind::Strided)
                jobs.push_back(sconvJob(l, tag("S-CONV", i)));
            else
                jobs.push_back(tconvJob(l.inChannels, l.inH, l.inW,
                                        l.outChannels, l.outH(),
                                        l.outW(), l.geom.kernel,
                                        l.geom.stride, l.geom.pad,
                                        tag("T-CONV", i)));
        }
        break;

      case Phase::DiscBackward:
        // delta^l at layer l's output propagates to delta at layer
        // l's input, for every layer except the first (1 <= l < L).
        for (std::size_t i = model.disc.size(); i-- > 1;) {
            const LayerSpec &l = model.disc[i];
            jobs.push_back(tconvJob(l.outChannels, l.outH(), l.outW(),
                                    l.inChannels, l.inH, l.inW,
                                    l.geom.kernel, l.geom.stride,
                                    l.geom.pad, tag("T-CONV", i)));
        }
        break;

      case Phase::GenBackward:
        // Adjoints: a T-CONV layer's backward-error is a plain
        // S-CONV; a strided layer's is a zero-stuffed T-CONV (same as
        // the discriminator's backward).
        for (std::size_t i = model.gen.size(); i-- > 1;) {
            const LayerSpec &l = model.gen[i];
            if (l.kind == nn::ConvKind::Strided) {
                jobs.push_back(tconvJob(l.outChannels, l.outH(),
                                        l.outW(), l.inChannels, l.inH,
                                        l.inW, l.geom.kernel,
                                        l.geom.stride, l.geom.pad,
                                        tag("T-CONV", i)));
                continue;
            }
            ConvSpec s;
            s.label = tag("S-CONV", i);
            s.nif = l.outChannels;
            s.nof = l.inChannels;
            s.ih = l.outH();
            s.iw = l.outW();
            s.kh = s.kw = l.geom.kernel;
            s.stride = l.geom.stride;
            s.pad = l.geom.pad;
            s.oh = l.inH;
            s.ow = l.inW;
            jobs.push_back(s);
        }
        break;

      case Phase::DiscWeight:
        // dW = input data correlated with the stride-dilated error
        // map acting as kernel (Fig. 6(c)); four-dimension output.
        for (std::size_t i = 0; i < model.disc.size(); ++i) {
            const LayerSpec &l = model.disc[i];
            ConvSpec s;
            s.label = tag("W-CONV", i);
            s.nif = l.inChannels;
            s.nof = l.outChannels;
            s.ih = l.inH;
            s.iw = l.inW;
            s.kh = (l.outH() - 1) * l.geom.stride + 1;
            s.kw = (l.outW() - 1) * l.geom.stride + 1;
            s.kZeroStride = l.geom.stride;
            s.kOrigH = l.outH();
            s.kOrigW = l.outW();
            s.stride = 1;
            s.pad = l.geom.pad;
            s.oh = s.ow = l.geom.kernel;
            s.fourDimOutput = true;
            jobs.push_back(s);
        }
        break;

      case Phase::GenWeight:
        // T-CONV layers: dW = the zero-inserted input map correlated
        // with the dense error map acting as kernel (Fig. 6(d)).
        // Strided layers in an encoder-decoder generator use the
        // discriminator form instead (dilated-error kernel).
        for (std::size_t i = 0; i < model.gen.size(); ++i) {
            const LayerSpec &l = model.gen[i];
            ConvSpec s;
            s.label = tag("W-CONV", i);
            s.nif = l.inChannels;
            s.nof = l.outChannels;
            s.fourDimOutput = true;
            if (l.kind == nn::ConvKind::Strided) {
                s.ih = l.inH;
                s.iw = l.inW;
                s.kh = (l.outH() - 1) * l.geom.stride + 1;
                s.kw = (l.outW() - 1) * l.geom.stride + 1;
                s.kZeroStride = l.geom.stride;
                s.kOrigH = l.outH();
                s.kOrigW = l.outW();
                s.stride = 1;
                s.pad = l.geom.pad;
                s.oh = s.ow = l.geom.kernel;
                jobs.push_back(s);
                continue;
            }
            int natural =
                (l.inH - 1) * l.geom.stride + l.geom.kernel -
                2 * l.geom.pad;
            int extra = l.outH() - natural;
            s.ih = (l.inH - 1) * l.geom.stride + 1 + extra;
            s.iw = (l.inW - 1) * l.geom.stride + 1 + extra;
            s.inZeroStride = l.geom.stride;
            s.inOrigH = l.inH;
            s.inOrigW = l.inW;
            s.kh = l.outH();
            s.kw = l.outW();
            s.stride = 1;
            s.pad = l.geom.kernel - 1 - l.geom.pad;
            s.oh = s.ow = l.geom.kernel;
            jobs.push_back(s);
        }
        break;
    }
    for (auto &j : jobs)
        j.validate();
    return jobs;
}

std::vector<ConvSpec>
familyJobs(const GanModel &model, PhaseFamily f)
{
    std::vector<ConvSpec> jobs;
    auto append = [&](Phase p) {
        auto more = phaseJobs(model, p);
        jobs.insert(jobs.end(), more.begin(), more.end());
    };
    switch (f) {
      case PhaseFamily::D:
        append(Phase::DiscForward);
        append(Phase::GenBackward);
        break;
      case PhaseFamily::G:
        append(Phase::GenForward);
        append(Phase::DiscBackward);
        break;
      case PhaseFamily::Dw:
        append(Phase::DiscWeight);
        break;
      case PhaseFamily::Gw:
        append(Phase::GenWeight);
        break;
    }
    return jobs;
}

std::uint64_t
totalEffectiveMacs(const std::vector<ConvSpec> &jobs)
{
    std::uint64_t total = 0;
    for (const auto &j : jobs)
        total += j.effectiveMacs();
    return total;
}

std::uint64_t
totalDenseMacs(const std::vector<ConvSpec> &jobs)
{
    std::uint64_t total = 0;
    for (const auto &j : jobs)
        total += j.denseMacs();
    return total;
}

} // namespace sim
} // namespace ganacc
