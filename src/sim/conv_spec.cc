/**
 * @file
 * ConvSpec implementation.
 */

#include "sim/conv_spec.hh"

#include <cmath>
#include <sstream>

#include "util/logging.hh"

namespace ganacc {
namespace sim {

using tensor::Shape4;
using tensor::Tensor;

namespace {

/** Structural-zero test along one axis. */
bool
axisIsZero(int c, int zero_stride, int orig)
{
    if (zero_stride <= 1)
        return false;
    if (c % zero_stride != 0)
        return true;
    if (orig >= 0 && c / zero_stride >= orig)
        return true; // trailing output-padding rows
    return false;
}

} // namespace

bool
ConvSpec::inputIsZero(int y, int x) const
{
    return inputRowZero(y) || inputColZero(x);
}

bool
ConvSpec::kernelIsZero(int ky, int kx) const
{
    return kernelRowZero(ky) || kernelColZero(kx);
}

bool
ConvSpec::inputRowZero(int y) const
{
    return axisIsZero(y, inZeroStride, inOrigH);
}

bool
ConvSpec::inputColZero(int x) const
{
    return axisIsZero(x, inZeroStride, inOrigW);
}

bool
ConvSpec::kernelRowZero(int ky) const
{
    return axisIsZero(ky, kZeroStride, kOrigH);
}

bool
ConvSpec::kernelColZero(int kx) const
{
    return axisIsZero(kx, kZeroStride, kOrigW);
}

std::uint64_t
ConvSpec::denseMacs() const
{
    return std::uint64_t(nof) * nif * oh * ow * kh * kw;
}

std::uint64_t
ConvSpec::effectiveMacs() const
{
    // For each kernel position, count output positions whose input
    // coordinate is in-bounds and non-zero; separable per axis.
    std::uint64_t total = 0;
    for (int ky = 0; ky < kh; ++ky) {
        for (int kx = 0; kx < kw; ++kx) {
            if (kernelIsZero(ky, kx))
                continue;
            int rows = countNonzeroCoords(0, oh, stride, ky, pad, ih,
                                          inZeroStride, inOrigH);
            int cols = countNonzeroCoords(0, ow, stride, kx, pad, iw,
                                          inZeroStride, inOrigW);
            total += std::uint64_t(rows) * cols;
        }
    }
    return total * std::uint64_t(nof) * nif;
}

void
ConvSpec::validate() const
{
    GANACC_ASSERT(nif > 0 && nof > 0 && ih > 0 && iw > 0 && kh > 0 &&
                      kw > 0 && oh > 0 && ow > 0 && stride > 0 &&
                      pad >= 0,
                  "malformed spec ", describe());
    GANACC_ASSERT(inZeroStride >= 1 && kZeroStride >= 1,
                  "bad zero strides in ", describe());
    // The last output's receptive field must still overlap the input
    // (cropping below the natural extent is allowed for W-CONV).
    GANACC_ASSERT((oh - 1) * stride - pad < ih,
                  "output taller than the input supports: ", describe());
    GANACC_ASSERT((ow - 1) * stride - pad < iw,
                  "output wider than the input supports: ", describe());
}

std::string
ConvSpec::describe() const
{
    std::ostringstream os;
    os << label << " [in " << nif << "x" << ih << "x" << iw;
    if (inZeroStride > 1)
        os << " (z" << inZeroStride << ")";
    os << ", k " << kh << "x" << kw;
    if (kZeroStride > 1)
        os << " (z" << kZeroStride << ")";
    os << ", out " << nof << "x" << oh << "x" << ow << ", s" << stride
       << " p" << pad << (fourDimOutput ? ", 4D" : "") << "]";
    return os.str();
}

int
countNonzeroCoords(int t0, int len, int stride, int k, int pad, int extent,
                   int zero_stride, int orig)
{
    int count = 0;
    for (int t = t0; t < t0 + len; ++t) {
        int c = t * stride + k - pad;
        if (c < 0 || c >= extent)
            continue;
        if (!axisIsZero(c, zero_stride, orig))
            ++count;
    }
    return count;
}

int
ParityClass::nonzeroRows(const ConvSpec &s, int t0, int len, int ky) const
{
    return countNonzeroCoords(t0, len, step * s.stride,
                              y.first * s.stride + ky - s.pad, 0, s.ih,
                              s.inZeroStride, s.inOrigH);
}

int
ParityClass::nonzeroCols(const ConvSpec &s, int t0, int len, int kx) const
{
    return countNonzeroCoords(t0, len, step * s.stride,
                              x.first * s.stride + kx - s.pad, 0, s.iw,
                              s.inZeroStride, s.inOrigW);
}

std::vector<ParityClass>
parityClasses(const ConvSpec &spec, bool zero_free)
{
    const int z = zero_free ? spec.inZeroStride : 1;
    GANACC_ASSERT(z == 1 || spec.stride == 1,
                  "stuffed input with strided streaming is not a GAN "
                  "pattern: ", spec.describe());
    // One axis of class offset `first`: its output count, and the taps
    // that are not structural kernel zeros and meet the stuffing's
    // parity (plain C++ `%`: negative remainders never match).
    auto axis = [&](int first, int out_extent, int k_extent, bool row) {
        ClassAxis a;
        a.first = first;
        a.count = (out_extent - first + z - 1) / z;
        for (int k = 0; k < k_extent; ++k) {
            if (zero_free &&
                (row ? spec.kernelRowZero(k) : spec.kernelColZero(k)))
                continue;
            if ((first + k - spec.pad) % z != 0)
                continue;
            a.taps.push_back(k);
        }
        return a;
    };
    std::vector<ParityClass> classes;
    for (int cy = 0; cy < z && cy < spec.oh; ++cy)
        for (int cx = 0; cx < z && cx < spec.ow; ++cx)
            classes.push_back({z, axis(cy, spec.oh, spec.kh, true),
                               axis(cx, spec.ow, spec.kw, false)});
    return classes;
}

Tensor
makeStreamedInput(const ConvSpec &spec, util::Rng &rng)
{
    Tensor in(Shape4(1, spec.nif, spec.ih, spec.iw), 0.0f);
    for (int c = 0; c < spec.nif; ++c)
        for (int y = 0; y < spec.ih; ++y)
            for (int x = 0; x < spec.iw; ++x)
                if (!spec.inputIsZero(y, x))
                    in.ref(0, c, y, x) = rng.uniformf(-1.0f, 1.0f);
    return in;
}

Tensor
makeStreamedKernel(const ConvSpec &spec, util::Rng &rng)
{
    int kif = spec.fourDimOutput ? 1 : spec.nif;
    Tensor w(Shape4(spec.nof, kif, spec.kh, spec.kw), 0.0f);
    for (int of = 0; of < spec.nof; ++of)
        for (int c = 0; c < kif; ++c)
            for (int ky = 0; ky < spec.kh; ++ky)
                for (int kx = 0; kx < spec.kw; ++kx)
                    if (!spec.kernelIsZero(ky, kx))
                        w.ref(of, c, ky, kx) = rng.uniformf(-1.0f, 1.0f);
    return w;
}

Tensor
makeOutputTensor(const ConvSpec &spec)
{
    if (spec.fourDimOutput)
        return Tensor(Shape4(spec.nof, spec.nif, spec.oh, spec.ow), 0.0f);
    return Tensor(Shape4(1, spec.nof, spec.oh, spec.ow), 0.0f);
}

EffectualTaps
effectualTaps(const ConvSpec &spec)
{
    // Along one axis: for output coordinate t, the taps k whose input
    // coordinate t*stride + k - pad is in range and neither operand
    // is a structural zero on this axis.
    auto axis = [&](int out_extent, int k_extent, int in_extent,
                    bool row) {
        auto taps = std::vector<std::vector<int>>(std::size_t(out_extent));
        for (int t = 0; t < out_extent; ++t)
            for (int k = 0; k < k_extent; ++k) {
                const int i = t * spec.stride + k - spec.pad;
                if (i < 0 || i >= in_extent)
                    continue;
                if (row ? spec.inputRowZero(i) || spec.kernelRowZero(k)
                        : spec.inputColZero(i) || spec.kernelColZero(k))
                    continue;
                taps[std::size_t(t)].push_back(k);
            }
        return taps;
    };
    return {axis(spec.oh, spec.kh, spec.ih, true),
            axis(spec.ow, spec.kw, spec.iw, false)};
}

namespace {

/**
 * True when skipping structural zeros cannot change an output bit:
 * every operand is finite and every structural-zero slot holds +-0.
 * A skipped product is then +-0, and adding +-0 leaves a double
 * accumulator that starts at +0 unchanged.
 */
bool
zeroSkipIsExact(const ConvSpec &spec, const Tensor &in, const Tensor &w)
{
    for (int c = 0; c < spec.nif; ++c)
        for (int y = 0; y < spec.ih; ++y)
            for (int x = 0; x < spec.iw; ++x) {
                const float v = in.get(0, c, y, x);
                if (!std::isfinite(v) ||
                    (v != 0.0f && spec.inputIsZero(y, x)))
                    return false;
            }
    for (int of = 0; of < w.shape().d0; ++of)
        for (int c = 0; c < w.shape().d1; ++c)
            for (int ky = 0; ky < spec.kh; ++ky)
                for (int kx = 0; kx < spec.kw; ++kx) {
                    const float v = w.get(of, c, ky, kx);
                    if (!std::isfinite(v) ||
                        (v != 0.0f && spec.kernelIsZero(ky, kx)))
                        return false;
                }
    return true;
}

/** The reference's output loop; `dot(of, c, wc, oy, ox)` sums one
 *  output's products over (ky, kx) in row-major tap order. */
template <typename Dot>
void
convLoop(const ConvSpec &spec, Tensor &out, Dot dot)
{
    for (int of = 0; of < spec.nof; ++of) {
        for (int c = 0; c < spec.nif; ++c) {
            int wc = spec.fourDimOutput ? 0 : c;
            for (int oy = 0; oy < spec.oh; ++oy)
                for (int ox = 0; ox < spec.ow; ++ox) {
                    const double acc = dot(of, c, wc, oy, ox);
                    if (spec.fourDimOutput)
                        out.ref(of, c, oy, ox) = float(acc);
                    else
                        out.ref(0, of, oy, ox) += float(acc);
                }
        }
    }
}

} // namespace

Tensor
genericConvRef(const ConvSpec &spec, const Tensor &in, const Tensor &w)
{
    spec.validate();
    GANACC_ASSERT(in.shape() == Shape4(1, spec.nif, spec.ih, spec.iw),
                  "streamed input shape mismatch for ", spec.describe());
    GANACC_ASSERT(w.shape().d2 == spec.kh && w.shape().d3 == spec.kw,
                  "streamed kernel shape mismatch for ", spec.describe());
    Tensor out = makeOutputTensor(spec);
    if (!zeroSkipIsExact(spec, in, w)) {
        // Dense loop over every slot, padding included.
        convLoop(spec, out, [&](int of, int c, int wc, int oy, int ox) {
            double acc = 0.0;
            for (int ky = 0; ky < spec.kh; ++ky)
                for (int kx = 0; kx < spec.kw; ++kx) {
                    int iy = oy * spec.stride + ky - spec.pad;
                    int ix = ox * spec.stride + kx - spec.pad;
                    acc += double(in.getPadded(0, c, iy, ix)) *
                           w.get(of, wc, ky, kx);
                }
            return acc;
        });
        return out;
    }
    // Every listed tap is in range, so no bounds test per product.
    const EffectualTaps taps = effectualTaps(spec);
    convLoop(spec, out, [&](int of, int c, int wc, int oy, int ox) {
        double acc = 0.0;
        for (int ky : taps.rows[std::size_t(oy)]) {
            const int iy = oy * spec.stride + ky - spec.pad;
            for (int kx : taps.cols[std::size_t(ox)]) {
                const int ix = ox * spec.stride + kx - spec.pad;
                acc += double(in.get(0, c, iy, ix)) *
                       w.get(of, wc, ky, kx);
            }
        }
        return acc;
    });
    return out;
}

} // namespace sim
} // namespace ganacc
