/**
 * @file
 * The unified convolution-job description every microarchitecture
 * executes.
 *
 * All six GAN computing phases reduce to one generalized convolution
 * over *streamed* operands — the tensors exactly as the hardware sees
 * them, with T-CONV zero-insertion already applied to the input sizes
 * and W-CONV dilation already applied to the kernel sizes:
 *
 *   out(of[,if],oy,ox) = sum_{[if],ky,kx}
 *       in(if, oy*stride+ky-pad, ox*stride+kx-pad) * w(of[,if],ky,kx)
 *
 * The structural-zero patterns (inZeroStride / kZeroStride plus the
 * original dense extents) describe which operand positions are known
 * zeros from the layer geometry alone; the zero-free architectures
 * skip them through address generation, never by inspecting data.
 *
 * fourDimOutput marks W-CONV jobs (Fig. 3): no accumulation across
 * input feature maps, one output plane per (of, if) pair, and the
 * "kernel" is the back-propagated error map (indexed by `of` only).
 */

#ifndef GANACC_SIM_CONV_SPEC_HH
#define GANACC_SIM_CONV_SPEC_HH

#include <string>
#include <vector>

#include "tensor/tensor.hh"
#include "util/random.hh"

namespace ganacc {
namespace sim {

/** A generalized convolution job in streamed form. */
struct ConvSpec
{
    std::string label;

    int nif = 1; ///< input feature maps
    int nof = 1; ///< output feature maps (error maps for W-CONV)
    int ih = 1;  ///< streamed input rows (zero-stuffed size for T-CONV)
    int iw = 1;  ///< streamed input columns
    int kh = 1;  ///< streamed kernel rows (dilated size for W-CONV-D)
    int kw = 1;  ///< streamed kernel columns
    int oh = 1;  ///< output rows (cropped to the true extent)
    int ow = 1;  ///< output columns
    int stride = 1;
    int pad = 0;

    /// Input non-zero only at coordinates that are multiples of this.
    int inZeroStride = 1;
    /// Dense extent of the input before stuffing (rows/cols); -1 if dense.
    int inOrigH = -1;
    int inOrigW = -1;

    /// Kernel non-zero only at coordinates that are multiples of this.
    int kZeroStride = 1;
    int kOrigH = -1;
    int kOrigW = -1;

    /// W-CONV: no accumulation across nif; output is (nof, nif, oh, ow).
    bool fourDimOutput = false;

    /** True when the input at streamed coordinate (y, x) is a
     *  structural zero (stuffing pattern or trailing rows). Does not
     *  include padding (callers bound-check separately). */
    bool inputIsZero(int y, int x) const;

    /** True when kernel position (ky, kx) is a structural zero. */
    bool kernelIsZero(int ky, int kx) const;

    /** Separable per-axis structural-zero tests (the zero patterns of
     *  Fig. 6 are products of per-axis patterns, which is what makes
     *  the parity-class reordering of Fig. 12 possible). */
    bool inputRowZero(int y) const;
    bool inputColZero(int x) const;
    bool kernelRowZero(int ky) const;
    bool kernelColZero(int kx) const;

    /** Dense multiply count if nothing were skipped:
     *  nof * [nif] * oh * ow * kh * kw (always includes nif). */
    std::uint64_t denseMacs() const;

    /** Multiplies with both operands structurally non-zero
     *  (in-bounds); the work an ideal zero-free machine performs. */
    std::uint64_t effectiveMacs() const;

    /** Validate internal consistency; panics on malformed specs. */
    void validate() const;

    std::string describe() const;
};

/**
 * Count output indices t in [t0, t0 + len) whose input coordinate
 * c = t*stride + k - pad is inside [0, extent) and structurally
 * non-zero for the given zero-stride/orig pattern.
 */
int countNonzeroCoords(int t0, int len, int stride, int k, int pad,
                       int extent, int zero_stride, int orig);

/** One axis of an output parity class: the outputs first, first +
 *  step, ... (count of them) and the kernel taps streamed for them. */
struct ClassAxis
{
    int first = 0;
    int count = 0;
    std::vector<int> taps;
};

/**
 * One output class of an output- or weight-stationary schedule.
 *
 * The zero-free dataflows (Fig. 12(b)) split the output map into
 * inZeroStride^2 parity classes: outputs sharing a coordinate parity
 * see the same stuffing pattern, so each class streams only the
 * kernel taps whose input operand can be non-zero — and never a
 * structural kernel zero. A dense schedule is the degenerate case:
 * one class covering every output and streaming every tap.
 */
struct ParityClass
{
    int step = 1; ///< output spacing within the class
    ClassAxis y;
    ClassAxis x;

    /** The class streams no kernel tap (and so schedules nothing). */
    bool empty() const { return y.taps.empty() || x.taps.empty(); }
};

/**
 * The output classes of `spec` in schedule order (row-major over the
 * class offsets), empty ones included. `zero_free` selects the parity
 * classing with kernel-zero filtering; without it the result is the
 * single dense class. Zero-free classing panics on a stuffed input
 * streamed with stride > 1, which is not a GAN pattern.
 */
std::vector<ParityClass> parityClasses(const ConvSpec &spec,
                                       bool zero_free);

/** Random streamed input honouring the spec's zero structure,
 *  shaped (1, nif, ih, iw). */
tensor::Tensor makeStreamedInput(const ConvSpec &spec, util::Rng &rng);

/** Random streamed kernel honouring the zero structure; shaped
 *  (nof, nif, kh, kw), or (nof, 1, kh, kw) for four-dim jobs. */
tensor::Tensor makeStreamedKernel(const ConvSpec &spec, util::Rng &rng);

/** The effectual kernel taps of every output coordinate, per axis. */
struct EffectualTaps
{
    /// Per output row oy: the kernel rows ky, ascending, whose input
    /// row is in range and neither operand row is a structural zero.
    std::vector<std::vector<int>> rows;
    /// Per output column ox: the kernel columns kx, likewise.
    std::vector<std::vector<int>> cols;
};

/**
 * The tap lists of `spec`. Both structural-zero tests are separable
 * by axis, so the pairs (ky in rows[oy], kx in cols[ox]) are exactly
 * the in-range products with both operands structurally non-zero.
 */
EffectualTaps effectualTaps(const ConvSpec &spec);

/**
 * Golden-model execution of a spec. Output is (1, nof, oh, ow), or
 * (nof, nif, oh, ow) for four-dim jobs. Each output (of, c, oy, ox)
 * sums its products in its own double, starting at +0, over (ky, kx)
 * in row-major order; a non-four-dim output then adds those sums,
 * each rounded to float, in ascending c. Nothing else fixes the bits.
 *
 * So output maps advance together: the loop runs groups of sixteen
 * maps, and in each group c -> oy -> ox -> taps. A group holds its
 * sixteen doubles as eight two-lane vector locals, so they stay in
 * registers for the whole tap list. Fewer than sixteen maps left run
 * as one group of two, eight or sixteen lanes; the unused lanes get
 * zero weights and are never stored. Each lane's operations and their
 * order are those of summing one output at a time (library code is
 * built without FP contraction, and a product of two floats is exact
 * in a double anyway). Per group and input map, the weights of the
 * kernel taps some output reads are widened to double once, into
 * [tap][lane] order. The lane sums of a chunk of outputs are staged,
 * then each output plane is written as one contiguous run, so planes
 * 4 KB apart do not fight over one L1 set.
 *
 * The taps are the effectual ones of each output (effectualTaps):
 * every structural-zero and padding product is skipped. That is
 * bit-identical to the dense loop because a skipped product is +-0
 * and adding +-0 never changes an accumulator that starts at +0 —
 * provided every operand is finite and every structural-zero slot of
 * the input and the kernel holds +-0. Both conditions are checked
 * once per call; if either fails (a NaN or an infinity anywhere, or
 * a bit-flipped structural slot), the same loop runs every tap of
 * every output over a zero-padded copy of the input, padding
 * products included.
 */
tensor::Tensor genericConvRef(const ConvSpec &spec,
                              const tensor::Tensor &in,
                              const tensor::Tensor &w);

/** Shape the output tensor for a spec. */
tensor::Tensor makeOutputTensor(const ConvSpec &spec);

} // namespace sim
} // namespace ganacc

#endif // GANACC_SIM_CONV_SPEC_HH
