/**
 * @file
 * The request-execution engine behind the daemon.
 *
 * Separating execution from transport means the Unix-socket daemon,
 * the CI pipe mode, the throughput bench and the bit-identity tests
 * all drive the *same* object. The engine owns:
 *
 *  - a util::ThreadPool of workers executing requests,
 *  - a bounded admission queue: submit() blocks once `maxQueue`
 *    requests are in flight, which is the backpressure that keeps a
 *    fast client from ballooning daemon memory,
 *  - single-flight dedupe: identical requests (same content key)
 *    that arrive while the first is still simulating share one
 *    execution — followers wait on the leader's result and are
 *    reported with cache status "dup",
 *  - the lookup chain: CycleCache memory tier, then the optional
 *    persistent ResultStore tier, then the cycle walk (write-through
 *    both tiers),
 *  - drain(): stop admitting, finish everything in flight — the
 *    SIGTERM path.
 *
 * Determinism: the executed RunStats are a pure function of the
 * request, so responses are bit-identical to direct in-process
 * simulation no matter which tier serves them or how requests
 * interleave (asserted by tests/test_serve_service.cc).
 */

#ifndef GANACC_SERVE_ENGINE_HH
#define GANACC_SERVE_ENGINE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/metrics.hh"
#include "serve/protocol.hh"
#include "serve/result_store.hh"
#include "util/thread_pool.hh"

namespace ganacc {
namespace serve {

/** Engine configuration. */
struct EngineOptions
{
    int jobs = 0; ///< worker threads (0 = GANACC_JOBS / hardware)
    std::size_t maxQueue = 256; ///< admission bound (backpressure)
    std::string cacheDir;       ///< persistent tier; "" = memory only
    /// Golden mode: report latencyUs as 0 so responses byte-compare.
    bool deterministic = false;

    /// Own the memory tier (a private core::CycleCache + ResultStore)
    /// instead of sharing the process singleton. Fleet shards hosted
    /// in one process (tests, the conformance harness, the bench)
    /// need this so each shard has its own tiers; a standalone
    /// ganacc-served keeps the singleton so sweeps and the daemon
    /// share warm entries.
    bool ownCache = false;

    /// Admission policy at a full queue: false = block the submitter
    /// (historical backpressure), true = shed with an immediate
    /// ok:false kOverloadedError response that the fleet router
    /// retries with backoff. Shards run with shedding so one slow
    /// client cannot wedge its peers' replication writes.
    bool shedOverload = false;

    /// Shard map answered to {"fleet":true} probes, as canonical JSON
    /// object text (see fleet/topology.hh). Empty = not part of a
    /// fleet; the probe then answers ok:false.
    std::string fleetJson;
};

/** Aggregate service counters. */
struct EngineCounters
{
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::uint64_t memHits = 0;
    std::uint64_t diskHits = 0;
    std::uint64_t simulated = 0;
    std::uint64_t deduped = 0;    ///< single-flight followers
    std::uint64_t puts = 0;       ///< replication writes acknowledged
    std::uint64_t overloaded = 0; ///< requests shed at admission
};

/** The long-lived execution core of the simulation service. */
class Engine
{
  public:
    explicit Engine(const EngineOptions &opts);
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Enqueue one request; the future resolves to its response.
     * Blocks while `maxQueue` requests are already in flight; throws
     * util::FatalError after drain() began.
     */
    std::future<Response> submit(const Request &req);

    /** Synchronous convenience: submit and wait. */
    Response handle(const Request &req);

    /** Stop admitting and wait for every in-flight request. */
    void drain();

    EngineCounters counters() const;

    /** One-line load/cache summary for logs and bench output. */
    std::string summary() const;

    ResultStore *store() const
    {
        return ownStore_ ? ownStore_.get() : cache_.store();
    }

    /** Drop every memory-tier entry of the cache this engine uses
     *  (the private one under ownCache, the singleton otherwise). */
    void clearMemoryCache();

  private:
    Response execute(const Request &req, std::uint64_t admitUs);
    Response executeSpec(const Request &req);
    Response executePut(const Request &req);
    Response statsResponse(std::uint64_t id) const;
    Response fleetResponse(std::uint64_t id) const;
    Response metricsResponse(std::uint64_t id) const;
    Response traceDrainResponse(std::uint64_t id) const;
    core::CycleCache &liveCache();

    EngineOptions opts_;
    ScopedDiskCache cache_;
    /// ownCache mode only: this engine's private tiers.
    std::unique_ptr<ResultStore> ownStore_;
    std::unique_ptr<core::CycleCache> ownCache_;
    std::unique_ptr<util::ThreadPool> pool_;

    mutable std::mutex m_;
    std::condition_variable queueCv_; ///< wakes blocked submitters
    std::size_t inFlight_ = 0;
    bool draining_ = false;
    /// content key -> leader's shared result (single-flight).
    std::map<std::string, std::shared_future<Response>> inflightByKey_;

    mutable std::mutex counters_m_;
    EngineCounters counters_;

    /// Always-on registry mirrors of the counters above (plus the
    /// latency histogram and in-flight gauge): one relaxed atomic
    /// each, resolved once here so the hot path never does a
    /// name lookup.
    obs::Counter &mRequests_;
    obs::Counter &mErrors_;
    obs::Counter &mMemHits_;
    obs::Counter &mDiskHits_;
    obs::Counter &mSimulated_;
    obs::Counter &mDeduped_;
    obs::Counter &mStatsProbes_;
    obs::Counter &mFleetProbes_;
    obs::Counter &mMetricsProbes_;
    obs::Counter &mTraceDrains_;
    obs::Counter &mPuts_;
    obs::Counter &mOverloaded_;
    obs::Gauge &mInFlight_;
    obs::Histogram &mLatencyUs_;
};

} // namespace serve
} // namespace ganacc

#endif // GANACC_SERVE_ENGINE_HH
