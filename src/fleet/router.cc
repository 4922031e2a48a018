/**
 * @file
 * Fleet router implementation.
 */

#include "fleet/router.hh"

#include <chrono>
#include <thread>

#include "core/unrolling.hh"
#include "obs/trace.hh"
#include "sim/json.hh"
#include "util/logging.hh"

namespace ganacc {
namespace fleet {

namespace {

/** Failure response synthesized when no replica is reachable. */
constexpr const char *kNoReplicaError =
    "fleet: no live replica reachable for this request";

bool
isOverloaded(const std::string &responseLine)
{
    // Cheap reject first; decode only plausible shed responses.
    if (responseLine.find("\"error\":\"overloaded:") ==
        std::string::npos)
        return false;
    try {
        const serve::Response rsp =
            serve::decodeResponse(responseLine);
        return !rsp.ok && rsp.error == serve::kOverloadedError;
    } catch (...) {
        return false;
    }
}

/** Salvage the id of a possibly undecodable line (same best-effort
 *  contract as the daemon's error path). */
std::uint64_t
salvageId(const std::string &line)
{
    std::uint64_t id = 0;
    const auto at = line.find("\"id\":");
    if (at != std::string::npos) {
        std::size_t p = at + 5;
        while (p < line.size() && line[p] >= '0' && line[p] <= '9')
            id = id * 10 + std::uint64_t(line[p++] - '0');
    }
    return id;
}

} // namespace

std::string
routeKeyOf(const serve::Request &req)
{
    if (req.statsProbe || req.fleetProbe || req.metricsProbe ||
        req.traceDrainProbe)
        return ""; // probes pin to shard 0 (any shard would do)
    // A put routes like the spec it carries: replication copies must
    // land on the same shard set the content key owns.
    if (req.hasSpec || req.put)
        return serve::contentKey(req.kind, req.unroll, req.spec);
    return "net|" + core::archKindName(req.kind) + '|' +
           sim::toJson(req.unroll) + '|' + req.model + '|' +
           req.family;
}

/** One batch line and where it stands in the retry/failover state
 *  machine. */
struct Router::Pending
{
    std::size_t index = 0; ///< original batch position
    std::string line;      ///< raw request line (sent verbatim)
    bool decoded = false;
    serve::Request req;     ///< valid when decoded
    std::vector<int> route; ///< failover order (distinct shards)
    std::size_t routePos = 0;
    int overloadAttempts = 0;
    bool done = false;
};

Router::Router(RouterOptions opt)
    : opt_(std::move(opt)), ring_(opt_.topology)
{
    const std::size_t n = opt_.topology.shards.size();
    clients_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        clients_.push_back(std::make_unique<serve::Client>());
    connected_.assign(n, false);
    everConnected_.assign(n, false);
    counters_.sentPerShard.assign(n, 0);
}

Router::~Router() = default;

Topology
Router::bootstrap(const std::string &seedAddr,
                  const serve::ConnectOptions &opt)
{
    serve::Client seed;
    seed.connect(seedAddr, opt);
    serve::Request probe;
    probe.id = 1;
    probe.fleetProbe = true;
    const serve::Response rsp = seed.roundTrip(probe);
    if (!rsp.ok)
        util::fatal("fleet bootstrap(", seedAddr, "): ", rsp.error);
    return topologyFromJson(rsp.fleet);
}

bool
Router::ensureConnected(int shard, std::uint64_t *reconnects)
{
    if (connected_[std::size_t(shard)])
        return true;
    try {
        clients_[std::size_t(shard)]->connect(
            opt_.topology.shards[std::size_t(shard)], opt_.connect);
    } catch (const util::FatalError &) {
        return false;
    }
    connected_[std::size_t(shard)] = 1;
    if (everConnected_[std::size_t(shard)] && reconnects)
        ++*reconnects;
    everConnected_[std::size_t(shard)] = 1;
    return true;
}

void
Router::disconnect(int shard)
{
    clients_[std::size_t(shard)]->close();
    connected_[std::size_t(shard)] = 0;
}

/**
 * One pass over every not-yet-done line: group by current target
 * shard, pipeline each group over its connection (all shards in
 * parallel), classify each outcome as answered / shed (retry next
 * round) / transport failure (reconnect or fail over).
 */
void
Router::runRound(std::vector<Pending *> &batch,
                 std::vector<std::string> &responses)
{
    const int n = int(opt_.topology.shards.size());
    std::vector<std::vector<Pending *>> byShard(
        static_cast<std::size_t>(n));
    for (Pending *p : batch)
        if (!p->done)
            byShard[std::size_t(p->route[p->routePos])].push_back(p);

    struct PassResult
    {
        std::uint64_t sent = 0;
        std::uint64_t overloadRetries = 0;
        std::uint64_t reconnects = 0;
        std::vector<Pending *> advance; ///< move to next replica
    };
    std::vector<PassResult> results(static_cast<std::size_t>(n));
    std::vector<std::thread> threads;

    for (int s = 0; s < n; ++s) {
        std::vector<Pending *> &group = byShard[std::size_t(s)];
        if (group.empty())
            continue;
        threads.emplace_back([this, s, &group, &responses,
                              &results] {
            PassResult &res = results[std::size_t(s)];
            if (!ensureConnected(s, &res.reconnects)) {
                res.advance = group;
                return;
            }
            serve::Client &client = *clients_[std::size_t(s)];
            std::size_t sent = 0, received = 0;
            try {
                while (received < group.size()) {
                    while (sent < group.size() &&
                           sent - received < opt_.window) {
                        client.sendLine(group[sent]->line);
                        ++res.sent;
                        ++sent;
                    }
                    const std::string line = client.recvLine();
                    Pending *p = group[received++];
                    if (isOverloaded(line) &&
                        p->overloadAttempts < opt_.overloadRetries) {
                        // Shed: leave pending, retry next round
                        // (after the round's backoff sleep). Past
                        // the retry budget the shed response is the
                        // final answer.
                        ++p->overloadAttempts;
                        ++res.overloadRetries;
                        continue;
                    }
                    responses[p->index] = line;
                    p->done = true;
                }
            } catch (const util::FatalError &) {
                // The connection died (shard draining or gone). The
                // unanswered tail may have been half-executed —
                // requests are idempotent, so resending is safe.
                // One immediate reconnect attempt distinguishes "the
                // shard restarted" (stay) from "the shard is down"
                // (fail over).
                client.close();
                connected_[std::size_t(s)] = 0;
                if (!ensureConnected(s, &res.reconnects))
                    res.advance.assign(group.begin() + long(received),
                                       group.end());
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (int s = 0; s < n; ++s) {
        PassResult &res = results[std::size_t(s)];
        counters_.sentPerShard[std::size_t(s)] += res.sent;
        counters_.overloadRetries += res.overloadRetries;
        counters_.reconnects += res.reconnects;
        for (Pending *p : res.advance) {
            if (p->routePos + 1 < p->route.size()) {
                ++p->routePos;
                ++counters_.failovers;
            } else {
                const std::uint64_t id =
                    p->decoded ? p->req.id : salvageId(p->line);
                responses[p->index] = serve::encodeResponse(
                    serve::errorResponse(id, kNoReplicaError));
                p->done = true;
            }
        }
    }
}

std::vector<std::string>
Router::transactLines(const std::vector<std::string> &lines)
{
    const int n = int(opt_.topology.shards.size());
    const int rf = opt_.topology.effectiveRf();

    obs::TraceSink &sink = obs::TraceSink::instance();
    const bool tracing = sink.enabled();
    /// Root trace identity + start stamp per line (invalid when the
    /// line is untraced: undecodable, a probe, or tracing is off).
    struct RootTrace
    {
        obs::TraceContext ctx;
        std::uint64_t t0 = 0;
    };
    std::vector<RootTrace> roots(lines.size());

    std::vector<Pending> pendings(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        Pending &p = pendings[i];
        p.index = i;
        p.line = lines[i];
        try {
            p.req = serve::decodeRequest(lines[i]);
            p.decoded = true;
        } catch (...) {
            p.decoded = false;
        }
        if (tracing && p.decoded && !p.req.statsProbe &&
            !p.req.fleetProbe && !p.req.metricsProbe &&
            !p.req.traceDrainProbe && p.req.trace.empty()) {
            // Open this request's trace: a fresh root context rides
            // the re-encoded line to the serving shard (and, for
            // fresh results, on to the replicas). Lines that already
            // carry a context pass through untouched.
            roots[i].ctx = obs::newTraceContext();
            roots[i].t0 = sink.nowUs();
            p.req.trace = obs::encodeTraceContext(roots[i].ctx);
            p.line = serve::encodeRequest(p.req);
        }
        if (p.decoded) {
            const std::string key = routeKeyOf(p.req);
            if (key.empty()) {
                // Probes pin to shard 0; the rest of the list is
                // only a failover order.
                for (int s = 0; s < n; ++s)
                    p.route.push_back(s);
            } else {
                p.route = ring_.replicas(key, rf);
            }
        } else {
            // Undecodable: every shard answers the same error, so
            // route on the raw bytes purely for load spreading.
            p.route = ring_.replicas(lines[i], rf);
        }
    }

    std::vector<std::string> responses(lines.size());
    std::vector<Pending *> batch;
    batch.reserve(pendings.size());
    for (Pending &p : pendings)
        batch.push_back(&p);

    // Round loop: each round handles every pending line once; sheds
    // back off exponentially, transport failures walk the replica
    // chain. The bound is generous — every line can exhaust its shed
    // budget and its whole route and still get a final answer.
    const int maxRounds = opt_.overloadRetries + n + 2;
    int backoffMs = opt_.overloadBackoffMs;
    for (int round = 0; round < maxRounds; ++round) {
        bool open = false;
        for (const Pending &p : pendings)
            open |= !p.done;
        if (!open)
            break;
        if (round > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoffMs));
            backoffMs = backoffMs < 1000 ? backoffMs * 2 : 1000;
        }
        runRound(batch, responses);
    }
    for (Pending &p : pendings) {
        if (p.done)
            continue;
        const std::uint64_t id =
            p.decoded ? p.req.id : salvageId(p.line);
        responses[p.index] = serve::encodeResponse(
            serve::errorResponse(id, kNoReplicaError));
        p.done = true;
    }

    if (tracing) {
        // Close the root spans now that every line has its answer.
        // The same head-sample hash every shard used decides here
        // too, plus the tail-keep threshold on router-side latency.
        const std::uint64_t t1 = sink.nowUs();
        for (const Pending &p : pendings) {
            const RootTrace &rt = roots[p.index];
            if (!rt.ctx.valid())
                continue;
            const std::uint64_t lat = t1 > rt.t0 ? t1 - rt.t0 : 1;
            if (!sink.keep(rt.ctx, lat))
                continue;
            obs::TraceEvent ev;
            ev.name = "fleet.request";
            ev.cat = "fleet";
            ev.tid = obs::TraceSink::threadLane();
            ev.ts = rt.t0;
            ev.dur = lat;
            ev.args = obs::spanArgs(rt.ctx, rt.ctx.span, 0,
                                    "\"id\":" +
                                        std::to_string(p.req.id));
            sink.record(std::move(ev));
        }
    }

    if (opt_.replicate && rf > 1)
        replicateFresh(pendings, responses);
    return responses;
}

/**
 * Push every freshly simulated result to the other replicas of its
 * key. Fire-and-confirm: each put is a normal pipelined request to
 * one specific shard (no failover — a down replica is repaired by
 * the next miss-and-simulate cycle, that is the read-repair path).
 */
void
Router::replicateFresh(const std::vector<Pending> &lines,
                       const std::vector<std::string> &responses)
{
    std::vector<Pending> puts;
    for (const Pending &p : lines) {
        if (!p.done || !p.decoded || !p.req.hasSpec || p.req.put)
            continue;
        serve::Response rsp;
        try {
            rsp = serve::decodeResponse(responses[p.index]);
        } catch (...) {
            continue;
        }
        if (!rsp.ok || rsp.cache != "sim")
            continue;
        const std::string key = serve::contentKey(
            p.req.kind, p.req.unroll, p.req.spec);
        const std::vector<int> replicas =
            ring_.replicas(key, opt_.topology.effectiveRf());
        const int servedBy = p.route[p.routePos];
        serve::Request put;
        put.id = p.req.id;
        // Forward the request's trace context: the replica's put
        // spans then parent under the same root as the serving
        // shard's, so a merged trace shows the whole replication fan.
        put.trace = p.req.trace;
        put.put = true;
        put.kind = p.req.kind;
        put.unroll = p.req.unroll;
        put.hasSpec = true;
        put.spec = p.req.spec;
        put.putStats = rsp.stats;
        put.putSimVersion = rsp.simVersion;
        const std::string putLine = serve::encodeRequest(put);
        for (int r : replicas) {
            if (r == servedBy)
                continue;
            Pending q;
            q.index = puts.size();
            q.line = putLine;
            q.decoded = true;
            q.req = put;
            q.route = {r};
            puts.push_back(std::move(q));
        }
    }
    if (puts.empty())
        return;

    std::vector<std::string> acks(puts.size());
    std::vector<Pending *> batch;
    batch.reserve(puts.size());
    for (Pending &p : puts)
        batch.push_back(&p);
    const int maxRounds = opt_.overloadRetries + 2;
    int backoffMs = opt_.overloadBackoffMs;
    for (int round = 0; round < maxRounds; ++round) {
        bool open = false;
        for (const Pending &p : puts)
            open |= !p.done;
        if (!open)
            break;
        if (round > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoffMs));
            backoffMs = backoffMs < 1000 ? backoffMs * 2 : 1000;
        }
        runRound(batch, acks);
    }
    for (std::size_t i = 0; i < puts.size(); ++i) {
        bool stored = false;
        if (puts[i].done && !acks[i].empty()) {
            try {
                const serve::Response rsp =
                    serve::decodeResponse(acks[i]);
                stored = rsp.ok && rsp.cache == "put";
            } catch (...) {
            }
        }
        if (stored)
            ++counters_.puts;
        else
            ++counters_.skippedPuts;
    }
}

serve::Response
Router::call(const serve::Request &req)
{
    const std::vector<std::string> out =
        transactLines({serve::encodeRequest(req)});
    return serve::decodeResponse(out.at(0));
}

std::vector<std::pair<std::string, std::string>>
Router::probeAll(bool serve::Request::*flag,
                 std::string serve::Response::*payload)
{
    std::vector<std::pair<std::string, std::string>> out;
    const int n = int(opt_.topology.shards.size());
    for (int s = 0; s < n; ++s) {
        std::string text;
        if (ensureConnected(s, &counters_.reconnects)) {
            try {
                serve::Request probe;
                probe.id = std::uint64_t(s) + 1;
                probe.*flag = true;
                ++counters_.sentPerShard[std::size_t(s)];
                const serve::Response rsp =
                    clients_[std::size_t(s)]->roundTrip(probe);
                if (rsp.ok)
                    text = rsp.*payload;
            } catch (const util::FatalError &) {
                clients_[std::size_t(s)]->close();
                connected_[std::size_t(s)] = false;
            }
        }
        out.emplace_back(opt_.topology.shards[std::size_t(s)], text);
    }
    return out;
}

std::vector<std::pair<std::string, std::string>>
Router::statsAll()
{
    return probeAll(&serve::Request::statsProbe,
                    &serve::Response::telemetry);
}

std::vector<std::pair<std::string, std::string>>
Router::scrapeAll()
{
    return probeAll(&serve::Request::metricsProbe,
                    &serve::Response::metricsText);
}

std::vector<std::pair<std::string, std::string>>
Router::drainTracesAll()
{
    return probeAll(&serve::Request::traceDrainProbe,
                    &serve::Response::spans);
}

} // namespace fleet
} // namespace ganacc
