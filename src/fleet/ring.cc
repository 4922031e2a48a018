/**
 * @file
 * Consistent-hash ring implementation.
 */

#include "fleet/ring.hh"

#include <algorithm>

#include "serve/protocol.hh"
#include "util/logging.hh"

namespace ganacc {
namespace fleet {

namespace {

/**
 * The ring position of a vnode name or key: FNV-1a-64 passed through
 * murmur3's fmix64 finalizer. FNV-1a's last multiply leaves names that
 * differ in one digit ("<addr>#1", "<addr>#2") in a fixed pattern, so
 * raw hashes cut very uneven arcs; the finalizer spreads them.
 */
std::uint64_t
position(const std::string &s)
{
    std::uint64_t k = serve::fnv1a64(s);
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
}

} // namespace

Ring::Ring(const std::vector<std::string> &shards, int vnodes)
    : shardCount_(int(shards.size()))
{
    if (shards.empty())
        util::fatal("ring needs at least one shard");
    if (vnodes < 1)
        util::fatal("ring: vnodes must be positive");
    points_.reserve(shards.size() * std::size_t(vnodes));
    for (std::size_t s = 0; s < shards.size(); ++s)
        for (int v = 0; v < vnodes; ++v)
            points_.emplace_back(
                position(shards[s] + "#" + std::to_string(v)), int(s));
    // Sort by hash; break the (astronomically unlikely) hash tie by
    // shard index so placement stays deterministic regardless of the
    // construction order above.
    std::sort(points_.begin(), points_.end());
}

int
Ring::primary(const std::string &key) const
{
    const std::uint64_t h = position(key);
    auto it = std::lower_bound(
        points_.begin(), points_.end(),
        std::make_pair(h, 0),
        [](const std::pair<std::uint64_t, int> &a,
           const std::pair<std::uint64_t, int> &b) {
            return a.first < b.first;
        });
    if (it == points_.end())
        it = points_.begin(); // wrap: clockwise past the top
    return it->second;
}

std::vector<int>
Ring::replicas(const std::string &key, int rf) const
{
    if (rf > shardCount_)
        rf = shardCount_;
    if (rf < 1)
        rf = 1;
    const std::uint64_t h = position(key);
    auto it = std::lower_bound(
        points_.begin(), points_.end(),
        std::make_pair(h, 0),
        [](const std::pair<std::uint64_t, int> &a,
           const std::pair<std::uint64_t, int> &b) {
            return a.first < b.first;
        });
    std::vector<int> out;
    out.reserve(std::size_t(rf));
    for (std::size_t step = 0;
         step < points_.size() && int(out.size()) < rf; ++step) {
        if (it == points_.end())
            it = points_.begin();
        const int shard = it->second;
        if (std::find(out.begin(), out.end(), shard) == out.end())
            out.push_back(shard);
        ++it;
    }
    return out;
}

} // namespace fleet
} // namespace ganacc
