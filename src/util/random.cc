/**
 * @file
 * The MT19937-64 block twist and Rng's draws.
 *
 * The draws are defined here, in library code built with
 * -ffp-contract=off, so `canonical * (hi - lo) + lo` and the normal
 * distribution's `x * stddev + mean` round twice in every build, as
 * the standard distributions do on the default target.
 */

#include "util/random.hh"

namespace ganacc {
namespace util {

namespace {

using u64 = std::uint64_t;

constexpr std::size_t kN = Mt19937_64::kStateWords, kM = 156;
constexpr u64 kUpper = ~u64(0) << 31, kLower = ~kUpper;

/** One twisted word: `x` joined with `next`, fed back into `far`. */
inline u64
twisted(u64 x, u64 next, u64 far)
{
    const u64 y = (x & kUpper) | (next & kLower);
    return far ^ (y >> 1) ^ ((u64(0) - (y & 1)) & 0xb5026f5aa96619e9ULL);
}

} // namespace

Mt19937_64::Mt19937_64(result_type seed)
{
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
        const u64 x = state_[i - 1];
        state_[i] = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
    }
}

void
Mt19937_64::twist()
{
    u64 *const s = state_;
    std::size_t k = 0;
    for (; k < kN - kM; ++k)
        s[k] = twisted(s[k], s[k + 1], s[k + kM]);
    for (; k < kN - 1; ++k)
        s[k] = twisted(s[k], s[k + 1], s[k + kM - kN]);
    s[kN - 1] = twisted(s[kN - 1], s[0], s[kM - 1]);
    next_ = 0;
}

float
canonicalFloat(std::uint64_t u)
{
    // GCC's unsigned-to-float conversion without its branch: halve a
    // value with the top bit set, keeping the shifted-out bit as a
    // sticky bit so the signed conversion still rounds to nearest,
    // then double it back.
    const u64 b = u >> 63;
    const auto h = static_cast<std::int64_t>((u >> b) | (u & b));
    const float f = static_cast<float>(h) * static_cast<float>(1 + b) *
                    0x1p-64f;
    return f >= 1.0f ? 0x1.fffffep-1f : f;
}

double
Rng::uniform(double lo, double hi)
{
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
}

double
Rng::gaussian(double mean, double stddev)
{
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
}

int
Rng::uniformInt(int lo, int hi)
{
    std::uniform_int_distribution<int> dist(lo, hi);
    return dist(engine_);
}

bool
Rng::bernoulli(double p)
{
    std::bernoulli_distribution dist(p);
    return dist(engine_);
}

float
Rng::uniformf(float lo, float hi)
{
    return canonicalFloat(engine_()) * (hi - lo) + lo;
}

void
Rng::fillUniformf(float *out, std::size_t n, float lo, float hi)
{
    const float span = hi - lo;
    while (n != 0) {
        const std::span<const u64> words = engine_.block(n);
        for (const u64 z : words)
            *out++ = canonicalFloat(Mt19937_64::temper(z)) * span + lo;
        n -= words.size();
    }
}

} // namespace util
} // namespace ganacc
