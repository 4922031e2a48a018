/**
 * @file
 * The fuzz-corpus generator shared by the dataflow differential suites:
 * random legal ConvSpecs over the three GAN convolution patterns
 * (dense strided S-CONV, zero-stuffed T-CONV, dilated-kernel W-CONV
 * with four-dimensional output). The draw sequence is part of every
 * pinned corpus built on it, so changing it moves those corpora.
 */

#ifndef GANACC_TESTS_FUZZ_SPECS_HH
#define GANACC_TESTS_FUZZ_SPECS_HH

#include <algorithm>

#include "sim/conv_spec.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"

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

} // namespace tests
} // namespace ganacc

#endif // GANACC_TESTS_FUZZ_SPECS_HH
