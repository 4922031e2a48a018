/**
 * @file
 * The fuzz-corpus generator shared by the dataflow differential suites:
 * random legal ConvSpecs over the three GAN convolution patterns
 * (dense strided S-CONV, zero-stuffed T-CONV, dilated-kernel W-CONV
 * with four-dimensional output), and jobs whose two axes differ. The
 * draw sequence is part of every pinned corpus built on it, so
 * changing it moves those corpora.
 */

#ifndef GANACC_TESTS_FUZZ_SPECS_HH
#define GANACC_TESTS_FUZZ_SPECS_HH

#include <algorithm>

#include "sim/conv_spec.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"
#include "verify/legality.hh"

namespace ganacc {
namespace tests {

/** Draw one random job over the three GAN convolution patterns. */
inline sim::ConvSpec
randomSpec(util::Rng &rng)
{
    sim::ConvSpec s;
    s.label = "fuzz";
    s.nif = rng.uniformInt(1, 4);
    s.nof = rng.uniformInt(1, 4);
    const int kind = rng.uniformInt(0, 2);
    if (kind == 0) { // dense strided S-CONV
        s.ih = s.iw = rng.uniformInt(5, 16);
        s.kh = s.kw = rng.uniformInt(1, 5);
        s.stride = rng.uniformInt(1, 3);
        s.pad = rng.uniformInt(0, s.kh / 2);
        s.oh = tensor::convOutDim(s.ih, s.kh, s.stride, s.pad);
        s.ow = tensor::convOutDim(s.iw, s.kw, s.stride, s.pad);
    } else if (kind == 1) { // zero-stuffed T-CONV
        const int dense = rng.uniformInt(2, 7);
        const int z = rng.uniformInt(2, 3);
        const int extra = rng.uniformInt(0, z - 1);
        s.inZeroStride = z;
        s.inOrigH = s.inOrigW = dense;
        s.ih = s.iw = (dense - 1) * z + 1 + extra;
        s.kh = s.kw = rng.uniformInt(2, 5);
        s.stride = 1;
        s.pad = rng.uniformInt(0, s.kh - 1);
        if (s.ih + 2 * s.pad < s.kh) // kernel overhangs padded input
            return randomSpec(rng);
        s.oh = tensor::convOutDim(s.ih, s.kh, 1, s.pad);
        s.ow = tensor::convOutDim(s.iw, s.kw, 1, s.pad);
    } else { // dilated-kernel W-CONV (4-D output)
        s.ih = s.iw = rng.uniformInt(7, 16);
        const int err = rng.uniformInt(2, 5);
        s.kZeroStride = 2;
        s.kOrigH = s.kOrigW = err;
        s.kh = s.kw = (err - 1) * 2 + 1;
        s.stride = 1;
        s.pad = rng.uniformInt(0, 2);
        s.fourDimOutput = true;
        const int natural = s.ih + 2 * s.pad - s.kh + 1;
        if (natural < 1)
            return randomSpec(rng); // degenerate draw, redo
        s.oh = s.ow = std::min(natural, rng.uniformInt(2, 6));
    }
    if (s.oh < 1 || s.ow < 1)
        return randomSpec(rng);
    return s;
}

/**
 * Draw one job whose axes differ: input, kernel and output extents
 * and the dense extents under each zero pattern are drawn per axis,
 * the kernel zero stride is up to 3, and the output is four-
 * dimensional or not. Redraws until the job is not square and passes
 * verify::checkConvSpec.
 */
inline sim::ConvSpec
randomNonSquareSpec(util::Rng &rng)
{
    for (;;) {
        sim::ConvSpec s;
        s.label = "fuzz-axes";
        s.nif = rng.uniformInt(1, 4);
        s.nof = rng.uniformInt(1, 4);
        s.fourDimOutput = rng.uniformInt(0, 1) == 1;
        s.inZeroStride = rng.uniformInt(1, 3);
        s.kZeroStride = rng.uniformInt(1, 3);
        s.stride = s.inZeroStride > 1 ? 1 : rng.uniformInt(1, 3);
        // One axis: the streamed extent over `z`-stuffed dense points
        // (`orig` of them, -1 when z is 1), `dense` drawn otherwise.
        const auto axis = [&](int z, int lo, int hi, int &orig) {
            if (z == 1) {
                orig = -1;
                return rng.uniformInt(lo, hi);
            }
            orig = rng.uniformInt(1, 5);
            return (orig - 1) * z + 1 + rng.uniformInt(0, z - 1);
        };
        s.ih = axis(s.inZeroStride, 3, 14, s.inOrigH);
        s.iw = axis(s.inZeroStride, 3, 14, s.inOrigW);
        s.kh = axis(s.kZeroStride, 1, 6, s.kOrigH);
        s.kw = axis(s.kZeroStride, 1, 6, s.kOrigW);
        s.pad = rng.uniformInt(0, std::min(s.kh, s.kw) - 1);
        if (s.ih + 2 * s.pad < s.kh || s.iw + 2 * s.pad < s.kw)
            continue; // kernel overhangs the padded input
        s.oh = tensor::convOutDim(s.ih, s.kh, s.stride, s.pad);
        s.ow = tensor::convOutDim(s.iw, s.kw, s.stride, s.pad);
        if (s.fourDimOutput) { // W-CONV crops its outputs
            s.oh = std::min(s.oh, rng.uniformInt(1, 6));
            s.ow = std::min(s.ow, rng.uniformInt(1, 6));
        }
        if (s.ih == s.iw && s.kh == s.kw && s.oh == s.ow)
            continue;
        verify::Report report;
        verify::checkConvSpec(s, report);
        if (report.ok())
            return s;
    }
}

} // namespace tests
} // namespace ganacc

#endif // GANACC_TESTS_FUZZ_SPECS_HH
