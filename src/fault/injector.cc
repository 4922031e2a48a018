/**
 * @file
 * FaultInjector implementation.
 */

#include "fault/injector.hh"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "util/fixed_point.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace ganacc {
namespace fault {

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan))
{
    for (const auto &f : plan_.peFaults)
        GANACC_ASSERT(f.lane >= 0, "PE fault lane must be >= 0");
}

void
FaultInjector::beginJob(const sim::ConvSpec &spec,
                        std::uint64_t job_index)
{
    haveJob_ = true;
    // Row-major order over (of, c, oy, ox, ky, kx) — the same
    // factorization ConvSpec::denseMacs() counts.
    stride_[4] = std::uint64_t(spec.kw);
    stride_[3] = stride_[4] * std::uint64_t(spec.kh);
    stride_[2] = stride_[3] * std::uint64_t(spec.ow);
    stride_[1] = stride_[2] * std::uint64_t(spec.oh);
    stride_[0] = stride_[1] * std::uint64_t(spec.nif);

    // Unmark the previous job's buckets: cheaper than clearing 32 KB.
    for (const std::uint64_t site : armedSites_)
        bucketMap_[bucketOf(site) >> 6] = 0;
    armedSites_.clear();

    const std::uint64_t dense = spec.denseMacs();
    const std::uint64_t want = std::min(
        std::uint64_t(plan_.transient.sitesPerJob), dense);
    if (want == 0)
        return;

    // The arming draw is keyed on (seed, job index) alone so every
    // architecture sees the identical upset set for this job. The set
    // only dedupes; the accepted sequence is the plain draw order.
    util::Rng rng(mix64(plan_.seed ^ mix64(job_index + 1)));
    std::uniform_int_distribution<std::uint64_t> dist(0, dense - 1);
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(std::size_t(want));
    armedSites_.reserve(std::size_t(want));
    while (armedSites_.size() < std::size_t(want)) {
        const std::uint64_t site = dist(rng.engine());
        if (seen.insert(site).second)
            armedSites_.push_back(site);
    }
    std::sort(armedSites_.begin(), armedSites_.end());
    counters_.armed += want;

    // Widen the buckets until the dense lattice fits in 2^kBucketBits.
    bucketShift_ = 0;
    while (((dense - 1) >> bucketShift_) >> kBucketBits != 0)
        ++bucketShift_;
    bucketMap_.resize(std::size_t(1) << (kBucketBits - 6));
    for (const std::uint64_t site : armedSites_) {
        const std::uint64_t bucket = bucketOf(site);
        bucketMap_[bucket >> 6] |= std::uint64_t(1) << (bucket & 63);
    }
}

std::uint64_t
FaultInjector::latticeIndex(const sim::MacContext &ctx) const
{
    return std::uint64_t(ctx.of) * stride_[0] +
           std::uint64_t(ctx.c) * stride_[1] +
           std::uint64_t(ctx.oy) * stride_[2] +
           std::uint64_t(ctx.ox) * stride_[3] +
           std::uint64_t(ctx.ky) * stride_[4] + std::uint64_t(ctx.kx);
}

std::uint64_t
FaultInjector::bucketOf(std::uint64_t site) const
{
    // The mask keeps a coordinate outside the lattice in range; such a
    // site is never armed, so the exact search rejects it.
    return (site >> bucketShift_) &
           ((std::uint64_t(1) << kBucketBits) - 1);
}

float
FaultInjector::flipProductBits(float product, std::uint64_t site) const
{
    // The corrupted pattern depends only on (seed, site), never on
    // visit order, keeping parallel campaigns bit-reproducible.
    std::uint16_t raw = std::uint16_t(
        util::AccelFixed::fromDouble(double(product)).raw());
    std::uint64_t h = mix64(plan_.seed ^ mix64(site));
    std::uint16_t flipped = 0;
    for (int i = 0; i < plan_.transient.bits; ++i) {
        std::uint16_t bit;
        do {
            bit = std::uint16_t(1u << (h & 15u));
            h = mix64(h);
        } while ((flipped & bit) != 0);
        flipped = std::uint16_t(flipped | bit);
    }
    raw = std::uint16_t(raw ^ flipped);
    return float(
        util::AccelFixed::fromRaw(std::int16_t(raw)).toDouble());
}

float
FaultInjector::onMac(const sim::MacContext &ctx, float a, float b)
{
    GANACC_ASSERT(haveJob_,
                  "FaultInjector::onMac before beginJob()");
    ++counters_.macsObserved;
    float product = a * b;

    if (!armedSites_.empty()) {
        const std::uint64_t site = latticeIndex(ctx);
        const std::uint64_t bucket = bucketOf(site);
        if ((bucketMap_[bucket >> 6] >> (bucket & 63) & 1) != 0 &&
            std::binary_search(armedSites_.begin(), armedSites_.end(),
                               site)) {
            ++counters_.fired;
            product = flipProductBits(product, site);
        }
    }

    if (plan_.peFaults.empty())
        return product;
    // Stuck-at lanes override whatever the multiplier computed.
    for (const auto &f : plan_.peFaults) {
        if (f.lane != ctx.lane)
            continue;
        ++counters_.peHits;
        product = f.kind == PeFault::Kind::StuckAtZero ? 0.0f : f.value;
    }
    return product;
}

bool
FaultInjector::visitIneffectual() const
{
    // Both fault classes live on the physical multipliers, which the
    // baselines clock through zero-operand slots too — those slots
    // must be observed or a stuck lane would look artificially benign.
    return !plan_.peFaults.empty() || plan_.transient.sitesPerJob > 0;
}

} // namespace fault
} // namespace ganacc
