/**
 * @file
 * FaultInjector implementation.
 */

#include "fault/injector.hh"

#include <algorithm>
#include <utility>

#include "util/fixed_point.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace ganacc {
namespace fault {

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)),
      rowMap_(std::size_t(1) << (kBucketBits - 6))
{
    for (const auto &f : plan_.peFaults)
        GANACC_ASSERT(f.lane >= 0, "PE fault lane must be >= 0");
    // flipProductBits draws `bits` distinct bits of a 16-bit word.
    GANACC_ASSERT(plan_.transient.bits >= 1 && plan_.transient.bits <= 16,
                  "transient.bits must be in [1, 16]");
    GANACC_ASSERT(plan_.transient.sitesPerJob >= 0,
                  "transient.sitesPerJob must be >= 0");
    filter_.mask = (std::uint64_t(1) << kBucketBits) - 1;
    filter_.bits = rowMap_.data();
    filter_.quietMacs = &counters_.macsObserved;
    filter_.sites = &armedLanes_;
}

void
FaultInjector::beginJob(const sim::ConvSpec &spec,
                        std::uint64_t job_index)
{
    // Unmark the previous job's rows — cheaper than clearing 32 KB —
    // while its strides still locate them.
    for (const std::uint64_t site : armedSites_)
        markRow(site, false);
    armedSites_.clear();
    armedLanes_.clear();

    haveJob_ = true;
    // Row-major order over (of, c, oy, ox, ky, kx) — the same
    // factorization ConvSpec::denseMacs() counts. A row drops `of`.
    std::uint64_t *const stride = filter_.stride;
    stride[3] = std::uint64_t(spec.kw);
    stride[2] = stride[3] * std::uint64_t(spec.kh);
    stride[1] = stride[2] * std::uint64_t(spec.ow);
    stride[0] = stride[1] * std::uint64_t(spec.oh);
    ofStride_ = stride[0] * std::uint64_t(spec.nif);

    const std::uint64_t dense = spec.denseMacs();
    const std::uint64_t want = std::min(
        std::uint64_t(plan_.transient.sitesPerJob), dense);
    if (want == 0)
        return;

    // An open-addressed set at most a quarter full: it dedupes the draw
    // and answers onMac's exact test in about one probe.
    unsigned set_bits = 2;
    while (std::uint64_t(1) << set_bits < 4 * want)
        ++set_bits;
    armedSet_.assign(std::size_t(1) << set_bits, kNoSite);
    armedSetShift_ = 64 - set_bits;

    // The arming draw is keyed on (seed, job index) alone so every
    // architecture sees the identical upset set for this job. The set
    // only dedupes; the accepted sequence is the plain draw order.
    util::Rng rng(mix64(plan_.seed ^ mix64(job_index + 1)));
    std::uniform_int_distribution<std::uint64_t> dist(0, dense - 1);
    armedSites_.reserve(std::size_t(want));
    while (armedSites_.size() < std::size_t(want)) {
        const std::uint64_t site = dist(rng.engine());
        std::uint64_t &slot = armedSlot(site);
        if (slot == kNoSite) {
            slot = site;
            armedSites_.push_back(site);
        }
    }
    counters_.armed += want;
    for (const std::uint64_t site : armedSites_) {
        markRow(site, true);
        armedLanes_.push_back({site % ofStride_, int(site / ofStride_)});
    }
    std::sort(armedLanes_.begin(), armedLanes_.end());
}

std::uint64_t
FaultInjector::latticeIndex(const sim::MacContext &ctx) const
{
    return std::uint64_t(ctx.of) * ofStride_ +
           filter_.row(ctx.c, ctx.oy, ctx.ox, ctx.ky, ctx.kx);
}

void
FaultInjector::markRow(std::uint64_t site, bool on)
{
    const std::uint64_t bucket =
        (site % ofStride_) & filter_.mask;
    std::uint64_t &word = rowMap_[bucket >> 6];
    const std::uint64_t bit = std::uint64_t(1) << (bucket & 63);
    word = on ? word | bit : word & ~bit;
}

std::uint64_t &
FaultInjector::armedSlot(std::uint64_t site)
{
    // Fibonacci hashing, then linear probing to the site or a hole.
    const std::size_t mask = armedSet_.size() - 1;
    std::size_t i =
        std::size_t((site * 0x9E3779B97F4A7C15ULL) >> armedSetShift_);
    while (armedSet_[i] != site && armedSet_[i] != kNoSite)
        i = (i + 1) & mask;
    return armedSet_[i];
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

    // A caller that presents every MAC (a stuck-lane plan, CNV, RST)
    // has most of them rejected by the row bit. A coordinate outside
    // the lattice lands in some bucket through the mask; it is never
    // armed, so the exact test rejects it.
    if (!armedSites_.empty() &&
        filter_.loud(filter_.row(ctx.c, ctx.oy, ctx.ox, ctx.ky, ctx.kx))) {
        const std::uint64_t site = latticeIndex(ctx);
        if (armedSlot(site) == site) {
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

const sim::MacRowFilter *
FaultInjector::rowFilter() const
{
    // A stuck lane alters products on any row, so such a plan sees
    // every MAC; before beginJob() onMac must still reach its assert.
    return haveJob_ && plan_.peFaults.empty() ? &filter_ : nullptr;
}

} // namespace fault
} // namespace ganacc
