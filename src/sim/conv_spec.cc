/**
 * @file
 * ConvSpec implementation.
 */

#include "sim/conv_spec.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

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

/**
 * Fill `t`, a run of height x width planes, with uniform [-1, 1) draws
 * in row-major order over the slots `zero(y, x)` does not mark; those
 * stay 0. Planes without zeros take one fill; a patterned plane is
 * drawn into one plane of scratch and scattered.
 */
template <class Zero>
void
fillStreamed(Tensor &t, int height, int width, Zero zero, util::Rng &rng)
{
    const std::size_t plane = std::size_t(height) * std::size_t(width);
    std::vector<std::uint32_t> live;
    for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
            if (!zero(y, x))
                live.push_back(std::uint32_t(y * width + x));
    if (live.size() == plane) {
        rng.fillUniformf(t.data(), t.numel(), -1.0f, 1.0f);
        return;
    }
    std::vector<float> draws(live.size());
    for (float *p = t.data(); p != t.data() + t.numel(); p += plane) {
        rng.fillUniformf(draws.data(), draws.size(), -1.0f, 1.0f);
        for (std::size_t i = 0; i < live.size(); ++i)
            p[live[i]] = draws[i];
    }
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
    fillStreamed(in, spec.ih, spec.iw,
                 [&](int y, int x) { return spec.inputIsZero(y, x); }, rng);
    return in;
}

Tensor
makeStreamedKernel(const ConvSpec &spec, util::Rng &rng)
{
    int kif = spec.fourDimOutput ? 1 : spec.nif;
    Tensor w(Shape4(spec.nof, kif, spec.kh, spec.kw), 0.0f);
    fillStreamed(w, spec.kh, spec.kw,
                 [&](int y, int x) { return spec.kernelIsZero(y, x); }, rng);
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
    // `zero` marks the structural slots of one plane of `v`.
    auto exact = [](const float *v, std::size_t planes,
                    const std::vector<char> &zero) {
        for (std::size_t p = 0; p < planes; ++p)
            for (std::size_t i = 0; i < zero.size(); ++i, ++v)
                if (!std::isfinite(*v) || (*v != 0.0f && zero[i]))
                    return false;
        return true;
    };
    std::vector<char> in_zero, k_zero;
    for (int y = 0; y < spec.ih; ++y)
        for (int x = 0; x < spec.iw; ++x)
            in_zero.push_back(spec.inputIsZero(y, x));
    for (int ky = 0; ky < spec.kh; ++ky)
        for (int kx = 0; kx < spec.kw; ++kx)
            k_zero.push_back(spec.kernelIsZero(ky, kx));
    return exact(in.data(), std::size_t(spec.nif), in_zero) &&
           exact(w.data(), w.numel() / k_zero.size(), k_zero);
}

/** Tap lists naming every (ky, kx) of every output, padding
 *  included: the dense loop. */
EffectualTaps
everyTap(const ConvSpec &spec)
{
    auto all = [](int out_extent, int k_extent) {
        std::vector<int> ks;
        for (int k = 0; k < k_extent; ++k)
            ks.push_back(k);
        return std::vector<std::vector<int>>(std::size_t(out_extent), ks);
    };
    return {all(spec.oh, spec.kh), all(spec.ow, spec.kw)};
}

/** One product of an output's sum: its input slot within an input
 *  plane, row-major, and its kernel tap, numbered among the taps the
 *  outputs read. */
struct Tap
{
    int slot;
    int k;
};

/** Two adjacent output maps' doubles, one SSE2 register. */
using LanePair = double __attribute__((vector_size(16)));

/** Lane pairs staged before any output plane is written: a chunk of
 *  kStagePairs / Pairs outputs, so each plane takes one contiguous run
 *  per chunk. */
constexpr std::size_t kStagePairs = 512;

/**
 * The sums of outputs [p0, p1) of one input map for a group of
 * 2 * Pairs output maps (Pairs is 1, 4 or 8). Each lane pair's
 * accumulator is its own local, so all of them stay in registers for
 * the whole tap list; `wg` holds the group's widened weights, [tap]
 * [pair], and the sums land in `stage` as [output][pair].
 */
template <int Pairs>
void
sumChunk(const Tap *taps, const std::size_t *first, std::size_t p0,
         std::size_t p1, const float *in_c, const LanePair *wg,
         LanePair *stage)
{
    static_assert(Pairs == 1 || Pairs == 4 || Pairs == 8);
    for (std::size_t p = p0; p < p1; ++p) {
        LanePair a0{}, a1{}, a2{}, a3{}, a4{}, a5{}, a6{}, a7{};
        for (std::size_t t = first[p]; t < first[p + 1]; ++t) {
            const double x = in_c[taps[t].slot];
            const LanePair xx = {x, x};
            const LanePair *wr = wg + std::size_t(taps[t].k) * Pairs;
            a0 += xx * wr[0];
            if constexpr (Pairs >= 4) {
                a1 += xx * wr[1];
                a2 += xx * wr[2];
                a3 += xx * wr[3];
            }
            if constexpr (Pairs == 8) {
                a4 += xx * wr[4];
                a5 += xx * wr[5];
                a6 += xx * wr[6];
                a7 += xx * wr[7];
            }
        }
        LanePair *s = stage + (p - p0) * Pairs;
        s[0] = a0;
        if constexpr (Pairs >= 4) {
            s[1] = a1;
            s[2] = a2;
            s[3] = a3;
        }
        if constexpr (Pairs == 8) {
            s[4] = a4;
            s[5] = a5;
            s[6] = a6;
            s[7] = a7;
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
    const int nof = spec.nof;
    const int kif = spec.fourDimOutput ? 1 : spec.nif;
    GANACC_ASSERT(w.shape() == Shape4(nof, kif, spec.kh, spec.kw),
                  "streamed kernel shape mismatch for ", spec.describe());

    // The zero-skipping walk lists only in-range taps and reads the
    // input as it is. The dense fallback lists every tap and reads a
    // copy zero-padded as far as any tap reaches, because its padding
    // products stay: 0 * Inf is NaN. Neither read needs a bounds test.
    const bool skip = zeroSkipIsExact(spec, in, w);
    const EffectualTaps lists = skip ? effectualTaps(spec) : everyTap(spec);
    const int shift = skip ? spec.pad : 0;
    const int ph = skip ? spec.ih
                        : std::max(spec.pad + spec.ih,
                                   (spec.oh - 1) * spec.stride + spec.kh);
    const int pw = skip ? spec.iw
                        : std::max(spec.pad + spec.iw,
                                   (spec.ow - 1) * spec.stride + spec.kw);
    std::vector<float> padded;
    if (!skip) {
        padded.assign(std::size_t(spec.nif) * ph * pw, 0.0f);
        for (int c = 0; c < spec.nif; ++c)
            for (int y = 0; y < spec.ih; ++y)
                std::copy_n(&in.data()[in.shape().offset(0, c, y, 0)],
                            spec.iw,
                            &padded[(std::size_t(c) * ph + spec.pad + y) *
                                        pw +
                                    spec.pad]);
    }
    const float *planes = skip ? in.data() : padded.data();

    // Each output's taps in row-major (ky, kx) order, outputs in
    // raster order: output p owns taps[first[p], first[p + 1]).
    std::vector<Tap> taps;
    std::vector<std::size_t> first;
    for (int oy = 0; oy < spec.oh; ++oy)
        for (int ox = 0; ox < spec.ow; ++ox) {
            first.push_back(taps.size());
            for (int ky : lists.rows[std::size_t(oy)])
                for (int kx : lists.cols[std::size_t(ox)])
                    taps.push_back(
                        {(oy * spec.stride + ky - shift) * pw +
                             ox * spec.stride + kx - shift,
                         ky * spec.kw + kx});
        }
    first.push_back(taps.size());

    // Only the kernel taps some output reads are widened: renumber
    // them densely, ascending, so a group's weights stay compact.
    const std::size_t area = std::size_t(spec.kh) * std::size_t(spec.kw);
    std::vector<char> read(area, 0);
    for (const Tap &t : taps)
        read[std::size_t(t.k)] = 1;
    std::vector<int> rank(area), kept;
    for (std::size_t k = 0; k < area; ++k)
        if (read[k]) {
            rank[k] = int(kept.size());
            kept.push_back(int(k));
        }
    for (Tap &t : taps)
        t.k = rank[std::size_t(t.k)];

    // Output maps advance together, sixteen at a time; fewer than
    // sixteen left run as one group of two, eight or sixteen lanes
    // whose unused lanes have zero weights and are never stored. Each
    // lane's double starts at +0 and takes the output's taps in order,
    // so its operations are those of summing one output at a time.
    // Input maps go in ascending c inside each group, which is the
    // order the sums reach a non-4-D output in; a 4-D output's planes
    // fill in memory order.
    Tensor out = makeOutputTensor(spec);
    const std::size_t outputs = first.size() - 1;
    std::vector<LanePair> wg; // a group's weights as doubles, [tap][pair]
    std::vector<LanePair> stage(kStagePairs);
    for (int of0 = 0; of0 < nof; of0 += 16) {
        const int live = std::min(16, nof - of0);
        const int pairs = live > 8 ? 8 : live > 2 ? 4 : 1;
        const std::size_t chunk = kStagePairs / std::size_t(pairs);
        const auto sum = pairs == 8   ? sumChunk<8>
                         : pairs == 4 ? sumChunk<4>
                                      : sumChunk<1>;
        for (int c = 0; c < spec.nif; ++c) {
            // Input map c's weights for the group, widened once (a 4-D
            // job has one kernel plane).
            if (c < kif) {
                std::array<const float *, 16> src{};
                for (int j = 0; j < live; ++j)
                    src[std::size_t(j)] =
                        &w.data()[w.shape().offset(of0 + j, c, 0, 0)];
                auto weight = [&](int j, int k) {
                    return j < live ? double(src[std::size_t(j)][k]) : 0.0;
                };
                wg.resize(kept.size() * std::size_t(pairs));
                LanePair *dst = wg.data();
                for (int k : kept)
                    for (int v = 0; v < pairs; ++v)
                        *dst++ = LanePair{weight(2 * v, k),
                                          weight(2 * v + 1, k)};
            }
            const float *in_c = planes + std::size_t(c) * ph * pw;
            for (std::size_t p0 = 0; p0 < outputs; p0 += chunk) {
                const std::size_t p1 = std::min(outputs, p0 + chunk);
                sum(taps.data(), first.data(), p0, p1, in_c, wg.data(),
                    stage.data());
                // One contiguous run per live output plane.
                for (int j = 0; j < live; ++j) {
                    float *o = spec.fourDimOutput
                                   ? &out.ref(of0 + j, c, 0, 0)
                                   : &out.ref(0, of0 + j, 0, 0);
                    const LanePair *s = &stage[std::size_t(j / 2)];
                    for (std::size_t p = p0; p < p1; ++p, s += pairs) {
                        if (spec.fourDimOutput)
                            o[p] = float((*s)[j % 2]);
                        else
                            o[p] += float((*s)[j % 2]);
                    }
                }
            }
        }
    }
    return out;
}

} // namespace sim
} // namespace ganacc
