/**
 * @file
 * Dense rank-4 float tensor.
 *
 * This is the single data container shared by the reference NN math
 * (nn/), the GAN training substrate (gan/) and the functional side of
 * every microarchitecture simulator (sim/, core/). Keeping one layout
 * lets the golden-model cross-checks compare buffers element-for-
 * element.
 */

#ifndef GANACC_TENSOR_TENSOR_HH
#define GANACC_TENSOR_TENSOR_HH

#include <cmath>
#include <cstddef>
#include <vector>

#include "tensor/shape.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace ganacc {
namespace tensor {

/** Row-major dense rank-4 tensor of floats. */
class Tensor
{
  public:
    Tensor() = default;

    explicit Tensor(const Shape4 &shape, float fill_value = 0.0f)
        : shape_(shape), data_(shape.numel(), fill_value)
    {
    }

    Tensor(int d0, int d1, int d2, int d3, float fill_value = 0.0f)
        : Tensor(Shape4(d0, d1, d2, d3), fill_value)
    {
    }

    const Shape4 &shape() const { return shape_; }
    std::size_t numel() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float &
    at(int i0, int i1, int i2, int i3)
    {
        return data_[checkedOffset(i0, i1, i2, i3)];
    }

    float
    at(int i0, int i1, int i2, int i3) const
    {
        return data_[checkedOffset(i0, i1, i2, i3)];
    }

    /** Unchecked fast-path accessors for inner simulator loops. */
    float &
    ref(int i0, int i1, int i2, int i3)
    {
        return data_[shape_.offset(i0, i1, i2, i3)];
    }

    float
    get(int i0, int i1, int i2, int i3) const
    {
        return data_[shape_.offset(i0, i1, i2, i3)];
    }

    /**
     * Read with zero padding: out-of-range spatial coordinates return
     * 0. The leading two indices must be in range.
     */
    float
    getPadded(int i0, int i1, int i2, int i3) const
    {
        if (i2 < 0 || i2 >= shape_.d2 || i3 < 0 || i3 >= shape_.d3)
            return 0.0f;
        return get(i0, i1, i2, i3);
    }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    void
    fill(float v)
    {
        std::fill(data_.begin(), data_.end(), v);
    }

    /** Fill i.i.d. uniform in [lo, hi) from the given RNG. */
    void
    fillUniform(util::Rng &rng, float lo = -1.0f, float hi = 1.0f)
    {
        rng.fillUniformf(data_.data(), data_.size(), lo, hi);
    }

    /** Fill i.i.d. Gaussian from the given RNG. */
    void
    fillGaussian(util::Rng &rng, float mean = 0.0f, float stddev = 1.0f)
    {
        for (auto &v : data_)
            v = float(rng.gaussian(mean, stddev));
    }

    /** Element-wise in-place scale. */
    void
    scale(float s)
    {
        for (auto &v : data_)
            v *= s;
    }

    /** Element-wise in-place add of another tensor (shapes must match). */
    void
    add(const Tensor &o)
    {
        GANACC_ASSERT(shape_ == o.shape_, "tensor add shape mismatch ",
                      shape_.str(), " vs ", o.shape_.str());
        for (std::size_t i = 0; i < data_.size(); ++i)
            data_[i] += o.data_[i];
    }

    /** Element-wise in-place axpy: this += a * x. */
    void
    axpy(float a, const Tensor &x)
    {
        GANACC_ASSERT(shape_ == x.shape_, "tensor axpy shape mismatch");
        for (std::size_t i = 0; i < data_.size(); ++i)
            data_[i] += a * x.data_[i];
    }

    /** Sum of all elements. */
    double
    sum() const
    {
        double s = 0.0;
        for (auto v : data_)
            s += v;
        return s;
    }

    /** Largest absolute element. */
    float
    absMax() const
    {
        float m = 0.0f;
        for (auto v : data_)
            m = std::max(m, std::fabs(v));
        return m;
    }

    /** Number of exactly-zero elements. */
    std::size_t
    countZeros() const
    {
        std::size_t n = 0;
        for (auto v : data_)
            if (v == 0.0f)
                ++n;
        return n;
    }

    bool operator==(const Tensor &) const = default;

  private:
    std::size_t
    checkedOffset(int i0, int i1, int i2, int i3) const
    {
        GANACC_ASSERT(i0 >= 0 && i0 < shape_.d0 && i1 >= 0 &&
                          i1 < shape_.d1 && i2 >= 0 && i2 < shape_.d2 &&
                          i3 >= 0 && i3 < shape_.d3,
                      "index (", i0, ",", i1, ",", i2, ",", i3,
                      ") out of range for ", shape_.str());
        return shape_.offset(i0, i1, i2, i3);
    }

    Shape4 shape_;
    std::vector<float> data_;
};

/**
 * Maximum absolute difference between two same-shape tensors.
 */
inline float
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    GANACC_ASSERT(a.shape() == b.shape(), "maxAbsDiff shape mismatch ",
                  a.shape().str(), " vs ", b.shape().str());
    float m = 0.0f;
    for (std::size_t i = 0; i < a.numel(); ++i)
        m = std::max(m, std::fabs(a.data()[i] - b.data()[i]));
    return m;
}

/**
 * True when every element differs by at most tol (plus a relative
 * component scaled by the larger magnitude).
 */
inline bool
approxEqual(const Tensor &a, const Tensor &b, float tol = 1e-4f)
{
    if (a.shape() != b.shape())
        return false;
    for (std::size_t i = 0; i < a.numel(); ++i) {
        float x = a.data()[i], y = b.data()[i];
        float allowed =
            tol * (1.0f + std::max(std::fabs(x), std::fabs(y)));
        if (std::fabs(x - y) > allowed)
            return false;
    }
    return true;
}

} // namespace tensor
} // namespace ganacc

#endif // GANACC_TENSOR_TENSOR_HH
