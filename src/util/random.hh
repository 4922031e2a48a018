/**
 * @file
 * Deterministic random number generation.
 *
 * All stochastic components of the simulator (synthetic data, weight
 * initialization, property-test shape sampling) draw from an Rng seeded
 * explicitly, so every experiment is exactly reproducible.
 *
 * The engine is an in-repo MT19937-64 rather than std::mt19937_64.
 * Every golden in the repository pins the standard engine's sequence,
 * so this one reproduces it draw for draw, from the same seeding. What
 * it adds is speed: it twists the state as one block and tempers from
 * it, and the operand fills temper a whole block at a time. The
 * standard distributions take any URBG, so uniform(), gaussian(),
 * uniformInt(), bernoulli() and engine() users draw exactly as they
 * did on the standard engine.
 *
 * Rng's draws are defined out of line in random.cc, which is built
 * without FP contraction, so a caller built with other flags cannot
 * link a contracted copy of one: the bits of every draw are those of
 * the default build.
 */

#ifndef GANACC_UTIL_RANDOM_HH
#define GANACC_UTIL_RANDOM_HH

#include <cstddef>
#include <cstdint>
#include <random>
#include <span>

namespace ganacc {
namespace util {

/** MT19937-64: std::mt19937_64's sequence, seeding and range. */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;
    static constexpr std::size_t kStateWords = 312;

    /** Seeded as std::mt19937_64(seed) is. */
    explicit Mt19937_64(result_type seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    result_type
    operator()()
    {
        if (next_ == kStateWords)
            twist();
        return temper(state_[next_++]);
    }

    /**
     * The next draws, at most `n` and never past the current block, as
     * state words still to be passed through temper(). Consumes them.
     */
    std::span<const result_type>
    block(std::size_t n)
    {
        if (next_ == kStateWords)
            twist();
        const std::size_t k = n < kStateWords - next_ ? n
                                                      : kStateWords - next_;
        const std::span<const result_type> words(state_ + next_, k);
        next_ += k;
        return words;
    }

    static result_type
    temper(result_type z)
    {
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        return z ^ (z >> 43);
    }

  private:
    /** Regenerate the whole state block. */
    void twist();

    result_type state_[kStateWords];
    std::size_t next_ = kStateWords;
};

/**
 * libstdc++'s std::generate_canonical<float, 24> for one 64-bit draw
 * `u` of a full-range engine: u converted to float, scaled by 2^-64,
 * results that round up to 1 clamped to the float below it.
 */
float canonicalFloat(std::uint64_t u);

/** A seedable PRNG wrapper with convenience distributions. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eedULL) : engine_(seed) {}

    /** Uniform real in [lo, hi). */
    double uniform(double lo = 0.0, double hi = 1.0);

    /** Uniform float in [lo, hi): std::uniform_real_distribution<float>'s
     *  draw. */
    float uniformf(float lo = 0.0f, float hi = 1.0f);

    /** `n` successive uniformf(lo, hi) draws into `out`. */
    void fillUniformf(float *out, std::size_t n, float lo, float hi);

    /** Gaussian with the given mean and standard deviation. */
    double gaussian(double mean = 0.0, double stddev = 1.0);

    /** Uniform integer in [lo, hi] inclusive. */
    int uniformInt(int lo, int hi);

    /** Bernoulli draw with probability p of true. */
    bool bernoulli(double p);

    Mt19937_64 &engine() { return engine_; }

  private:
    Mt19937_64 engine_;
};

} // namespace util
} // namespace ganacc

#endif // GANACC_UTIL_RANDOM_HH
