/**
 * @file
 * Engine implementation.
 */

#include "serve/engine.hh"

#include <chrono>
#include <exception>

#include "core/cycle_cache.hh"
#include "gan/models.hh"
#include "obs/trace.hh"
#include "sim/phase.hh"
#include "util/logging.hh"

namespace ganacc {
namespace serve {

namespace {

/** The dedupe key of a request: everything but the id. A put never
 *  coalesces with a simulation of the same triple — the "put|" prefix
 *  keeps their flights separate. */
std::string
flightKey(const Request &req)
{
    if (req.put)
        return "put|" + contentKey(req.kind, req.unroll, req.spec);
    if (req.hasSpec)
        return contentKey(req.kind, req.unroll, req.spec);
    return "net|" + core::archKindName(req.kind) + '|' +
           sim::toJson(req.unroll) + '|' + req.model + '|' +
           req.family;
}

/** sim > disk > mem: an aggregate is only as warm as its coldest job. */
int
coldness(core::CacheOutcome o)
{
    switch (o) {
      case core::CacheOutcome::MemoryHit: return 0;
      case core::CacheOutcome::DiskHit: return 1;
      case core::CacheOutcome::Simulated: return 2;
    }
    return 2;
}

} // namespace

Engine::Engine(const EngineOptions &opts)
    : opts_(opts),
      cache_(opts.ownCache ? std::string() : opts.cacheDir),
      pool_(std::make_unique<util::ThreadPool>(opts.jobs)),
      mRequests_(obs::Registry::instance().counter(
          "ganacc_serve_requests_total", "requests admitted")),
      mErrors_(obs::Registry::instance().counter(
          "ganacc_serve_errors_total", "requests answered ok:false")),
      mMemHits_(obs::Registry::instance().counter(
          "ganacc_serve_mem_hits_total",
          "responses served from the memory tier")),
      mDiskHits_(obs::Registry::instance().counter(
          "ganacc_serve_disk_hits_total",
          "responses served from the disk tier")),
      mSimulated_(obs::Registry::instance().counter(
          "ganacc_serve_simulated_total",
          "responses that ran a cycle walk")),
      mDeduped_(obs::Registry::instance().counter(
          "ganacc_serve_deduped_total", "single-flight followers")),
      mStatsProbes_(obs::Registry::instance().counter(
          "ganacc_serve_stats_probes_total",
          "telemetry probes answered")),
      mFleetProbes_(obs::Registry::instance().counter(
          "ganacc_serve_fleet_probes_total",
          "fleet-topology probes answered")),
      mMetricsProbes_(obs::Registry::instance().counter(
          "ganacc_serve_metrics_probes_total",
          "Prometheus scrape probes answered")),
      mTraceDrains_(obs::Registry::instance().counter(
          "ganacc_serve_trace_drains_total",
          "trace-drain probes answered")),
      mPuts_(obs::Registry::instance().counter(
          "ganacc_serve_puts_total",
          "replication writes acknowledged")),
      mOverloaded_(obs::Registry::instance().counter(
          "ganacc_serve_overloaded_total",
          "requests shed at admission")),
      mInFlight_(obs::Registry::instance().gauge(
          "ganacc_serve_inflight",
          "requests admitted and not yet answered")),
      mLatencyUs_(obs::Registry::instance().histogram(
          "ganacc_serve_latency_us",
          "service-side request latency in microseconds"))
{
    if (opts_.maxQueue == 0)
        util::fatal("engine: maxQueue must be positive");
    if (opts_.ownCache) {
        ownCache_ =
            std::make_unique<core::CycleCache>(/*publishMetrics=*/true);
        if (!opts_.cacheDir.empty()) {
            ownStore_ = std::make_unique<ResultStore>(opts_.cacheDir);
            ownCache_->attachDiskTier(ownStore_.get());
        }
    }
}

core::CycleCache &
Engine::liveCache()
{
    return ownCache_ ? *ownCache_ : core::CycleCache::instance();
}

void
Engine::clearMemoryCache()
{
    liveCache().clear();
}

Engine::~Engine()
{
    try {
        drain();
    } catch (...) {
        // Destruction during stack unwinding must not throw.
    }
}

Response
Engine::executeSpec(const Request &req)
{
    Response rsp;
    rsp.id = req.id;
    core::CacheOutcome worst = core::CacheOutcome::MemoryHit;
    auto &cache = liveCache();
    if (req.hasSpec) {
        req.spec.validate();
        rsp.stats = cache.stats(req.kind, req.unroll, req.spec, &worst);
    } else {
        const gan::GanModel model = gan::modelByName(req.model);
        const auto jobs =
            sim::familyJobs(model, sim::phaseFamilyFromName(req.family));
        if (jobs.empty())
            util::fatal("model \"", req.model, "\" family \"",
                        req.family, "\" has no jobs");
        for (const auto &job : jobs) {
            core::CacheOutcome o = core::CacheOutcome::Simulated;
            rsp.stats += cache.stats(req.kind, req.unroll, job, &o);
            if (coldness(o) > coldness(worst))
                worst = o;
        }
    }
    rsp.ok = true;
    rsp.simVersion = simulatorVersion();
    rsp.arch = core::archKindName(req.kind);
    rsp.unroll = req.unroll;
    rsp.cache = core::cacheOutcomeName(worst);
    return rsp;
}

Response
Engine::executePut(const Request &req)
{
    // A replication write: a peer simulated the triple and pushed the
    // finished stats. Insert into this shard's tiers (memory plus
    // write-through) without simulating; stale stamps are rejected so
    // a mixed-version fleet cannot poison a store.
    req.spec.validate();
    if (req.putSimVersion != simulatorVersion())
        util::fatal("put carries simulator version \"",
                    req.putSimVersion, "\", this daemon runs \"",
                    simulatorVersion(), "\"");
    liveCache().insert(req.kind, req.unroll, req.spec, req.putStats);
    Response rsp;
    rsp.id = req.id;
    rsp.ok = true;
    rsp.simVersion = simulatorVersion();
    rsp.arch = core::archKindName(req.kind);
    rsp.unroll = req.unroll;
    rsp.stats = req.putStats;
    rsp.cache = "put";
    return rsp;
}

Response
Engine::execute(const Request &req, std::uint64_t admitUs)
{
    obs::TraceSink &sink = obs::TraceSink::instance();
    const bool tracing = sink.enabled();
    // Resolve the hop's distributed identity: continue the sender's
    // trace when the request carries a parseable context (the hop
    // span's parent is the sender's span), start a fresh root
    // otherwise. Ids are only generated while tracing is armed.
    obs::TraceContext ctx;
    std::uint64_t parentSpan = 0;
    std::uint64_t hopTs = 0;
    if (tracing) {
        if (!req.trace.empty()) {
            try {
                ctx = obs::decodeTraceContext(req.trace);
                parentSpan = ctx.span;
                ctx.span = obs::newSpanId();
            } catch (const util::FatalError &) {
                // An unparseable context must not fail the request —
                // trace the hop as a fresh root instead.
            }
        }
        if (!ctx.valid())
            ctx = obs::newTraceContext();
        hopTs = req.decodeTs != 0 ? req.decodeTs : sink.nowUs();
    }
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t bodyTs = tracing ? sink.nowUs() : 0;
    Response rsp;
    try {
        rsp = req.put ? executePut(req) : executeSpec(req);
    } catch (const std::exception &e) {
        rsp = errorResponse(req.id, e.what());
    }
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t elapsed_us = std::uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count());
    rsp.latencyUs = opts_.deterministic ? 0 : elapsed_us;
    if (tracing) {
        // Build the hop's span batch locally, then commit it in one
        // shot iff the sampling policy keeps this request — which is
        // what makes tail-keep possible: the verdict needs the final
        // latency, so spans cannot stream into the sink as they
        // close.
        const std::uint64_t bodyEnd = sink.nowUs();
        const int lane = obs::TraceSink::threadLane();
        std::vector<obs::TraceEvent> evs;
        auto push = [&](const char *name, std::uint64_t ts,
                        std::uint64_t dur, std::uint64_t span,
                        std::uint64_t parent,
                        const std::string &extra) {
            obs::TraceEvent ev;
            ev.name = name;
            ev.cat = "serve";
            ev.pid = 0;
            ev.tid = lane;
            ev.ts = ts;
            ev.dur = dur;
            ev.args = obs::spanArgs(ctx, span, parent, extra);
            evs.push_back(std::move(ev));
        };
        const std::uint64_t hopSpan = ctx.span;
        if (req.decodeDurUs != 0)
            push("serve.decode", req.decodeTs, req.decodeDurUs,
                 obs::newSpanId(), hopSpan, "");
        if (admitUs != 0 && bodyTs >= admitUs)
            push("serve.queue_wait", admitUs, bodyTs - admitUs,
                 obs::newSpanId(), hopSpan, "");
        if (rsp.ok && req.put) {
            push("serve.put", bodyTs, bodyEnd - bodyTs,
                 obs::newSpanId(), hopSpan, "");
        } else if (rsp.ok) {
            const std::uint64_t cacheSpan = obs::newSpanId();
            push("serve.cache", bodyTs, bodyEnd - bodyTs, cacheSpan,
                 hopSpan, "\"tier\":\"" + rsp.cache + "\"");
            if (rsp.cache == "sim")
                push("serve.simulate", bodyTs, bodyEnd - bodyTs,
                     obs::newSpanId(), cacheSpan, "");
        }
        push("serve.request", hopTs,
             bodyEnd >= hopTs ? bodyEnd - hopTs : 0, hopSpan,
             parentSpan, "\"id\":" + std::to_string(req.id));
        const bool keepIt = sink.keep(ctx, elapsed_us);
        if (keepIt) {
            sink.recordBatch(std::move(evs));
            mLatencyUs_.exemplar(elapsed_us, ctx.traceIdHex());
        }
        rsp.traceKept = keepIt;
        rsp.traceId = ctx.traceIdHex();
        rsp.traceSpan = hopSpan;
    }
    {
        std::lock_guard<std::mutex> lk(counters_m_);
        ++counters_.requests;
        if (!rsp.ok)
            ++counters_.errors;
        else if (rsp.cache == "put")
            ++counters_.puts;
        else if (rsp.cache == "mem")
            ++counters_.memHits;
        else if (rsp.cache == "disk")
            ++counters_.diskHits;
        else
            ++counters_.simulated;
    }
    // Registry mirrors: observational only, never in the response.
    mRequests_.add(1);
    if (!rsp.ok)
        mErrors_.add(1);
    else if (rsp.cache == "put")
        mPuts_.add(1);
    else if (rsp.cache == "mem")
        mMemHits_.add(1);
    else if (rsp.cache == "disk")
        mDiskHits_.add(1);
    else
        mSimulated_.add(1);
    mLatencyUs_.observe(elapsed_us);
    return rsp;
}

std::future<Response>
Engine::submit(const Request &req)
{
    // Telemetry probes bypass the admission queue, the dedupe table
    // and the worker pool entirely: observability must answer even
    // when the queue is saturated, and a probe must never coalesce
    // with (or displace) simulation work.
    if (req.statsProbe) {
        mStatsProbes_.add(1);
        std::promise<Response> ready;
        ready.set_value(statsResponse(req.id));
        return ready.get_future();
    }
    // Fleet-topology probes answer from configuration the same way.
    if (req.fleetProbe) {
        mFleetProbes_.add(1);
        std::promise<Response> ready;
        ready.set_value(fleetResponse(req.id));
        return ready.get_future();
    }
    // So do the live-collection probes: a saturated queue must not
    // stop a scrape or a trace drain.
    if (req.metricsProbe) {
        mMetricsProbes_.add(1);
        std::promise<Response> ready;
        ready.set_value(metricsResponse(req.id));
        return ready.get_future();
    }
    if (req.traceDrainProbe) {
        mTraceDrains_.add(1);
        std::promise<Response> ready;
        ready.set_value(traceDrainResponse(req.id));
        return ready.get_future();
    }

    std::unique_lock<std::mutex> lk(m_);
    if (draining_)
        util::fatal("engine: submit after drain");

    // Single-flight: piggyback on an identical in-flight request.
    // The follower future is deferred — it costs no worker and only
    // re-labels the leader's response with its own id. Checked before
    // admission: a duplicate costs no queue slot, so it must neither
    // block nor shed behind a full queue.
    const std::string key = flightKey(req);
    auto it = inflightByKey_.find(key);
    if (it != inflightByKey_.end()) {
        std::shared_future<Response> leader = it->second;
        {
            std::lock_guard<std::mutex> clk(counters_m_);
            ++counters_.requests;
            ++counters_.deduped;
        }
        mRequests_.add(1);
        mDeduped_.add(1);
        const std::uint64_t id = req.id;
        return std::async(std::launch::deferred,
                          [leader, id]() mutable {
                              Response rsp = leader.get();
                              rsp.id = id;
                              rsp.cache = "dup";
                              rsp.latencyUs = 0;
                              return rsp;
                          });
    }

    if (opts_.shedOverload) {
        // Admission control for fleet shards: a full queue answers
        // immediately instead of blocking, and the caller (usually
        // fleet::Router) retries with backoff. The reader thread
        // stays live, so probes and drains keep working under load.
        if (inFlight_ >= opts_.maxQueue) {
            {
                std::lock_guard<std::mutex> clk(counters_m_);
                ++counters_.requests;
                ++counters_.overloaded;
            }
            mRequests_.add(1);
            mOverloaded_.add(1);
            std::promise<Response> shed;
            shed.set_value(errorResponse(req.id, kOverloadedError));
            return shed.get_future();
        }
    } else {
        queueCv_.wait(lk, [&] {
            return draining_ || inFlight_ < opts_.maxQueue;
        });
        if (draining_)
            util::fatal("engine: submit after drain");
    }

    ++inFlight_;
    mInFlight_.add(1);
    // Admission timestamp on the trace clock: the gap until the
    // worker picks the request up becomes the serve.queue_wait span.
    const std::uint64_t admitUs =
        obs::TraceSink::instance().enabled()
            ? obs::TraceSink::instance().nowUs()
            : 0;
    auto task = std::make_shared<std::packaged_task<Response()>>(
        [this, req, key, admitUs] {
            const Response rsp = execute(req, admitUs);
            // Unregister before the future becomes ready: a caller
            // that has already observed .get() must miss the flight
            // table on its next submit, or an immediate resubmit
            // dedupes against a finished request instead of hitting
            // the memory tier.
            std::lock_guard<std::mutex> glk(m_);
            inflightByKey_.erase(key);
            --inFlight_;
            mInFlight_.add(-1);
            queueCv_.notify_all();
            return rsp;
        });
    std::shared_future<Response> shared =
        task->get_future().share();
    inflightByKey_.emplace(key, shared);
    lk.unlock();

    pool_->submit([task] { (*task)(); });

    // Adapt the shared_future back to the unique future the caller
    // owns (deferred: just forwards the shared result).
    return std::async(std::launch::deferred,
                      [shared]() { return shared.get(); });
}

Response
Engine::handle(const Request &req)
{
    return submit(req).get();
}

void
Engine::drain()
{
    std::unique_lock<std::mutex> lk(m_);
    draining_ = true;
    queueCv_.notify_all();
    queueCv_.wait(lk, [&] { return inFlight_ == 0; });
    lk.unlock();
    pool_->wait();
}

Response
Engine::statsResponse(std::uint64_t id) const
{
    Response rsp;
    rsp.id = id;
    rsp.ok = true;
    rsp.simVersion = simulatorVersion();
    rsp.telemetry =
        encodeTelemetry(obs::Registry::instance().snapshot());
    return rsp;
}

Response
Engine::fleetResponse(std::uint64_t id) const
{
    if (opts_.fleetJson.empty())
        return errorResponse(id, "daemon is not part of a fleet");
    Response rsp;
    rsp.id = id;
    rsp.ok = true;
    rsp.simVersion = simulatorVersion();
    rsp.fleet = opts_.fleetJson;
    return rsp;
}

Response
Engine::metricsResponse(std::uint64_t id) const
{
    Response rsp;
    rsp.id = id;
    rsp.ok = true;
    rsp.simVersion = simulatorVersion();
    // Never empty: this engine's own counters are registered at
    // construction, so the encode branch always fires.
    rsp.metricsText =
        obs::renderPrometheus(obs::Registry::instance().snapshot());
    return rsp;
}

Response
Engine::traceDrainResponse(std::uint64_t id) const
{
    Response rsp;
    rsp.id = id;
    rsp.ok = true;
    rsp.simVersion = simulatorVersion();
    // With tracing off (or nothing buffered) this is {"events":[]} —
    // still non-empty text, so the response form stays a drain.
    rsp.spans =
        encodeSpanBatch(obs::TraceSink::instance().drain());
    return rsp;
}

EngineCounters
Engine::counters() const
{
    std::lock_guard<std::mutex> lk(counters_m_);
    return counters_;
}

std::string
Engine::summary() const
{
    const EngineCounters c = counters();
    std::string out =
        "served " + std::to_string(c.requests) + " requests: " +
        std::to_string(c.memHits) + " mem, " +
        std::to_string(c.diskHits) + " disk, " +
        std::to_string(c.simulated) + " simulated, " +
        std::to_string(c.deduped) + " deduped, " +
        std::to_string(c.puts) + " puts, " +
        std::to_string(c.overloaded) + " overloaded, " +
        std::to_string(c.errors) + " errors";
    if (store())
        out += "; " + store()->summary();
    return out;
}

} // namespace serve
} // namespace ganacc
