/**
 * @file
 * Process-wide telemetry registry: named counters, gauges and
 * histograms behind lock-free atomics.
 *
 * The registry is the one place every subsystem reports load and
 * progress to — the thread pool, the cycle cache, the result store,
 * the serving engine and the DSE sweeps all publish here, and the
 * Prometheus text (shutdown dump and `metrics` probe) and the
 * daemon's `stats` probe (serve::encodeTelemetry) read from here. Two
 * publication styles:
 *
 *  - *Owned metrics*: counter()/gauge()/histogram() return a stable
 *    reference the caller keeps and bumps with relaxed atomics — the
 *    per-event cost is one atomic add, never a lock.
 *  - *Collectors*: a subsystem that already keeps its own atomic
 *    counters (CycleCache, ResultStore) registers a callback that
 *    copies them into each Snapshot on demand, so snapshotting never
 *    perturbs the hot path at all. Collector values for the same name
 *    accumulate, so two attached stores sum into one series.
 *
 * Metric names follow Prometheus conventions: `ganacc_<area>_<what>`
 * with a `_total` suffix on counters; a `{key="value"}` label block
 * may be embedded directly in the name (the registry treats the whole
 * string as the series identity). See docs/observability.md.
 *
 * Telemetry is strictly observational: nothing in here feeds back
 * into simulation results, and every value is either a monotonic
 * event count or a point-in-time level — never wall-clock-derived
 * except inside histogram samples explicitly fed latencies.
 */

#ifndef GANACC_OBS_METRICS_HH
#define GANACC_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ganacc {
namespace obs {

/** A monotonically increasing event count. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/** A point-in-time level that can move both ways. */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        v_.store(v, std::memory_order_relaxed);
    }

    void
    add(std::int64_t d)
    {
        v_.fetch_add(d, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> v_{0};
};

/**
 * A trace-id exemplar: the most recent sampled trace that landed in a
 * bucket, so a latency spike in a dashboard links to one concrete
 * distributed trace (OpenMetrics-style `# {trace_id="…"} v` in the
 * text dump). Purely observational — absent from the JSON telemetry
 * snapshot, so stats-probe responses stay byte-stable.
 */
struct Exemplar
{
    std::uint64_t value = 0; ///< the sample that set the exemplar
    std::string traceId;     ///< 32-hex trace id ("" = none yet)
};

/** Point-in-time copy of one histogram (see Histogram for buckets). */
struct HistogramSnapshot
{
    /// Per-bucket (non-cumulative) sample counts; buckets[i] counts
    /// samples with value <= 2^i for i < kFiniteBuckets, the last
    /// bucket is +Inf.
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /// Per-bucket exemplars; empty when none were ever attached.
    std::vector<Exemplar> exemplars;

    /** Merge another snapshot of the same series (element-wise add;
     *  exemplars keep the first non-empty entry per bucket). */
    void merge(const HistogramSnapshot &o);
};

/**
 * A fixed-bucket histogram of non-negative integer samples (typically
 * microseconds). Buckets are powers of two — le 1, 2, 4, …, 2^20 —
 * plus +Inf, so one layout covers sub-microsecond cache hits through
 * full-network simulations without configuration.
 */
class Histogram
{
  public:
    static constexpr int kFiniteBuckets = 21; ///< le 2^0 … 2^20
    static constexpr int kBuckets = kFiniteBuckets + 1; ///< + Inf

    /** The upper bound of finite bucket i (2^i). */
    static std::uint64_t
    bucketBound(int i)
    {
        return std::uint64_t(1) << i;
    }

    /** Index of the bucket a sample lands in. */
    static int bucketIndex(std::uint64_t v);

    void
    observe(std::uint64_t v)
    {
        buckets_[std::size_t(bucketIndex(v))].fetch_add(
            1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
    }

    /**
     * Attach a trace-id exemplar to the bucket `v` lands in (last
     * writer wins). Off the hot path — called at most once per
     * *sampled* request, never when tracing is disabled — so a small
     * mutex is fine here where observe() must stay lock-free.
     */
    void exemplar(std::uint64_t v, const std::string &traceId);

    HistogramSnapshot snapshot() const;

  private:
    std::atomic<std::uint64_t> buckets_[kBuckets] = {};
    std::atomic<std::uint64_t> sum_{0};
    mutable std::mutex exemplars_m_;
    std::vector<Exemplar> exemplars_; ///< lazily sized to kBuckets
};

/**
 * One consistent view of every metric: owned metrics copied, then
 * collectors applied. Values for a repeated name accumulate, which is
 * what lets N result stores (or transient thread pools) publish one
 * combined series.
 */
class Snapshot
{
  public:
    void
    counter(const std::string &name, std::uint64_t v)
    {
        counters_[name] += v;
    }

    void
    gauge(const std::string &name, std::int64_t v)
    {
        gauges_[name] += v;
    }

    void histogram(const std::string &name, const HistogramSnapshot &h);

    const std::map<std::string, std::uint64_t> &
    counters() const
    {
        return counters_;
    }

    const std::map<std::string, std::int64_t> &
    gauges() const
    {
        return gauges_;
    }

    const std::map<std::string, HistogramSnapshot> &
    histograms() const
    {
        return histograms_;
    }

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, std::int64_t> gauges_;
    std::map<std::string, HistogramSnapshot> histograms_;
};

/** The process-wide metric registry. */
class Registry
{
  public:
    /** The singleton (leaked: usable from any static context). */
    static Registry &instance();

    /**
     * The counter registered under `name`, creating it on first use.
     * The reference stays valid for the life of the process. `help`
     * (first writer wins) feeds the # HELP line of the text dump.
     */
    Counter &counter(const std::string &name,
                     const std::string &help = "");
    Gauge &gauge(const std::string &name, const std::string &help = "");
    Histogram &histogram(const std::string &name,
                         const std::string &help = "");

    /**
     * A collector runs under the registry lock during snapshot() and
     * may only write into the Snapshot it is handed — calling back
     * into the registry from a collector deadlocks. Returns a token
     * for removeCollector (subsystems with a shorter life than the
     * process, e.g. a scoped ResultStore, must remove themselves
     * before dying).
     */
    using Collector = std::function<void(Snapshot &)>;
    int addCollector(Collector fn);
    void removeCollector(int token);

    /** Owned metrics + every collector, one consistent view. */
    Snapshot snapshot() const;

    /** Help text registered for a metric base name ("" if none). */
    std::string help(const std::string &baseName) const;

  private:
    Registry() = default;

    mutable std::mutex m_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
    std::map<std::string, std::string> help_; ///< base name -> help
    std::map<int, Collector> collectors_;
    int nextCollector_ = 0;
};

/** `name` with any embedded {label} block stripped. */
std::string metricBaseName(const std::string &name);

/**
 * Render a snapshot in the Prometheus text exposition format
 * (# HELP/# TYPE headers, cumulative histogram buckets with le=""
 * labels, one sample per line, sorted by name).
 */
std::string renderPrometheus(const Snapshot &snap);

} // namespace obs
} // namespace ganacc

#endif // GANACC_OBS_METRICS_HH
