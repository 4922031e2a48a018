/**
 * @file
 * Cycle-cache implementation.
 */

#include "core/cycle_cache.hh"

#include <mutex>
#include <sstream>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace ganacc {
namespace core {

namespace {

/** Every field that shapes a timing-only run, label excluded. The
 *  engine is not one of them: every kind's schedule model is its
 *  descriptor's, bit-identical to the walk, so fast and walk runs
 *  share entries. */
std::string
keyOf(ArchKind kind, const sim::Unroll &u, const sim::ConvSpec &s)
{
    std::ostringstream os;
    os << int(kind) << '|' << u.pIf << ',' << u.pOf << ',' << u.pKx
       << ',' << u.pKy << ',' << u.pOx << ',' << u.pOy << '|' << s.nif
       << ',' << s.nof << ',' << s.ih << ',' << s.iw << ',' << s.kh
       << ',' << s.kw << ',' << s.oh << ',' << s.ow << ',' << s.stride
       << ',' << s.pad << ',' << s.inZeroStride << ',' << s.inOrigH
       << ',' << s.inOrigW << ',' << s.kZeroStride << ',' << s.kOrigH
       << ',' << s.kOrigW << ',' << int(s.fourDimOutput);
    return os.str();
}

} // namespace

std::string
cacheOutcomeName(CacheOutcome o)
{
    switch (o) {
      case CacheOutcome::MemoryHit: return "mem";
      case CacheOutcome::DiskHit: return "disk";
      case CacheOutcome::Simulated: return "sim";
    }
    return "?";
}

CycleCache::CycleCache(bool publishMetrics)
{
    if (!publishMetrics)
        return;
    collector_ = obs::Registry::instance().addCollector(
        [this](obs::Snapshot &snap) {
            const CacheStats s = cacheStats();
            snap.counter("ganacc_cache_mem_hits_total", s.hits);
            snap.counter("ganacc_cache_misses_total", s.misses);
            snap.counter("ganacc_cache_disk_hits_total", s.diskHits);
            snap.counter("ganacc_cache_simulated_total",
                         s.simulated());
            snap.gauge("ganacc_cache_entries",
                       std::int64_t(s.entries));
        });
}

CycleCache::~CycleCache()
{
    if (collector_ >= 0)
        obs::Registry::instance().removeCollector(collector_);
}

CycleCache &
CycleCache::instance()
{
    // Publishes its atomics like any publishing instance. The registry
    // is leaked, so the destructor's unregistering at exit is safe.
    static CycleCache cache(/*publishMetrics=*/true);
    return cache;
}

void
CycleCache::attachDiskTier(StatsDiskTier *tier)
{
    disk_ = tier;
}

sim::RunStats
CycleCache::stats(ArchKind kind, const sim::Unroll &u,
                  const sim::ConvSpec &spec, CacheOutcome *outcome)
{
    const std::string key = keyOf(kind, u, spec);
    {
        std::shared_lock<std::shared_mutex> lk(m_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            if (outcome)
                *outcome = CacheOutcome::MemoryHit;
            return it->second;
        }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    sim::RunStats st;
    CacheOutcome got = CacheOutcome::Simulated;
    std::optional<sim::RunStats> fromDisk =
        disk_ ? disk_->load(kind, u, spec) : std::nullopt;
    if (fromDisk) {
        diskHits_.fetch_add(1, std::memory_order_relaxed);
        got = CacheOutcome::DiskHit;
        st = *fromDisk;
    } else {
        // One span per actual cycle walk; a no-op unless --trace /
        // GANACC_TRACE armed the sink.
        obs::Span span("simulate", "sim",
                       "{\"arch\":\"" + archKindName(kind) + "\"}");
        st = makeArch(kind, u)->run(spec);
        if (disk_)
            disk_->store(kind, u, spec, st);
    }
    {
        std::unique_lock<std::shared_mutex> lk(m_);
        map_.emplace(key, st);
    }
    if (outcome)
        *outcome = got;
    return st;
}

void
CycleCache::insert(ArchKind kind, const sim::Unroll &u,
                   const sim::ConvSpec &spec,
                   const sim::RunStats &stats)
{
    {
        std::unique_lock<std::shared_mutex> lk(m_);
        map_[keyOf(kind, u, spec)] = stats;
    }
    if (disk_)
        disk_->store(kind, u, spec, stats);
}

void
CycleCache::clear()
{
    std::unique_lock<std::shared_mutex> lk(m_);
    map_.clear();
    hits_.store(0);
    misses_.store(0);
    diskHits_.store(0);
}

std::size_t
CycleCache::size() const
{
    std::shared_lock<std::shared_mutex> lk(m_);
    return map_.size();
}

CacheStats
CycleCache::cacheStats() const
{
    CacheStats s;
    s.entries = size();
    s.hits = hits();
    s.misses = misses();
    s.diskHits = diskHits();
    return s;
}

std::string
CycleCache::summary() const
{
    std::ostringstream os;
    os << "cycle cache: " << size() << " entries, " << hits()
       << " memory hits, " << misses() << " misses";
    if (disk_)
        os << " (" << diskHits() << " served by the disk tier)";
    return os.str();
}

sim::RunStats
cachedRun(ArchKind kind, const sim::Unroll &u,
          const sim::ConvSpec &spec)
{
    return CycleCache::instance().stats(kind, u, spec);
}

} // namespace core
} // namespace ganacc
