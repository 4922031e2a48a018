/**
 * @file
 * Fleet-aware client: consistent-hash fan-out over N shards.
 *
 * The Router is the client side of the fleet contract. It owns one
 * serve::Client per shard and, per batch of request lines:
 *
 *  - routes every line to its primary shard (ring placement on the
 *    content key; network requests on their flight key; undecodable
 *    lines on their raw bytes — any shard answers those identically),
 *  - pipelines each shard's lines over that one connection in
 *    bounded windows, all shards concurrently,
 *  - retries `overloaded` responses with exponential backoff
 *    (admission control is advisory: the work is pure, so a retry is
 *    always safe),
 *  - fails over to the next replica when a shard is unreachable
 *    mid-stream — requests are idempotent, so resending a request
 *    the dying shard may have half-executed is safe, and RF=2
 *    replication means the replica usually has the result warm,
 *  - replicates: after a response computed fresh (cache "sim"), it
 *    pushes the finished stats to the key's other replicas with a
 *    `put` request — which doubles as read-repair, because a replica
 *    that lost its copy gets it back the next time the key misses
 *    anywhere and re-simulates,
 *  - traces: while the process's TraceSink is armed, every decoded
 *    non-probe line gains a fresh root trace context ("trace" field)
 *    and the router records a fleet.request root span per line;
 *    replication puts forward the same context so the replica's spans
 *    parent under the root. With tracing off, lines are forwarded
 *    byte-identically (the fleet goldens pin this).
 *
 * Responses come back in the original request order, byte-identical
 * to what the serving shard wrote (the router never rewrites a
 * response), so fleet-served replays diff cleanly against direct
 * simulation.
 */

#ifndef GANACC_FLEET_ROUTER_HH
#define GANACC_FLEET_ROUTER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/ring.hh"
#include "fleet/topology.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"

namespace ganacc {
namespace fleet {

/** Router policy. */
struct RouterOptions
{
    Topology topology;
    serve::ConnectOptions connect; ///< per-shard connect policy
    int overloadRetries = 8;       ///< rounds before giving up a line
    int overloadBackoffMs = 2;     ///< first retry delay; doubles
    bool replicate = true;  ///< push fresh results to the replicas
    std::size_t window = 64; ///< per-connection pipeline depth
};

/**
 * The routing key of a decoded request: the content key for spec
 * requests and puts, the engine's flight key composition for network
 * requests, "" for probes (pinned to shard 0). Exposed so the
 * conformance reference model can mirror placement exactly.
 */
std::string routeKeyOf(const serve::Request &req);

/** A connected view of a whole fleet. */
class Router
{
  public:
    explicit Router(RouterOptions opt);
    ~Router();

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /**
     * Learn the topology from any one live shard: connect, send a
     * {"fleet":true} probe, decode the shard map it answers.
     */
    static Topology bootstrap(const std::string &seedAddr,
                              const serve::ConnectOptions &opt =
                                  serve::ConnectOptions());

    const Topology &topology() const { return opt_.topology; }
    const Ring &ring() const { return ring_; }

    /**
     * Route, pipeline, retry, fail over and replicate one batch.
     * Returns the raw response lines in request order, one per input
     * line (a line with no reachable replica yields a local ok:false
     * response naming the outage).
     */
    std::vector<std::string>
    transactLines(const std::vector<std::string> &lines);

    /** Single-request convenience over transactLines(). */
    serve::Response call(const serve::Request &req);

    /**
     * One telemetry probe per shard: (address, telemetry JSON) pairs
     * in shard order, "" for unreachable shards — the input of
     * fleet::fleetStatsReport.
     */
    std::vector<std::pair<std::string, std::string>> statsAll();

    /**
     * One metrics probe per shard: (address, Prometheus text) pairs
     * in shard order, "" for unreachable shards — the live scrape
     * path behind `ganacc-client --scrape --fleet`.
     */
    std::vector<std::pair<std::string, std::string>> scrapeAll();

    /**
     * One trace-drain probe per shard: (address, span-batch JSON)
     * pairs in shard order, "" for unreachable shards. Feed the rows
     * plus the router's own drained events to fleet::mergeTraces for
     * one cross-process Perfetto trace.
     */
    std::vector<std::pair<std::string, std::string>> drainTracesAll();

    /** Drop the connection to one shard (before restarting it). */
    void disconnect(int shard);

    /** Cumulative router-side accounting. */
    struct Counters
    {
        std::vector<std::uint64_t> sentPerShard; ///< lines written
        std::uint64_t puts = 0;            ///< replication writes sent
        std::uint64_t skippedPuts = 0;     ///< replica down, not sent
        std::uint64_t overloadRetries = 0; ///< shed lines retried
        std::uint64_t failovers = 0; ///< lines rerouted to a replica
        std::uint64_t reconnects = 0; ///< connections re-established
    };
    const Counters &counters() const { return counters_; }

  private:
    struct Pending;

    bool ensureConnected(int shard, std::uint64_t *reconnects);
    /** One `flag` probe per shard: (address, the answer's `payload`)
     *  in shard order, "" where the shard is unreachable or refused. */
    std::vector<std::pair<std::string, std::string>>
    probeAll(bool serve::Request::*flag,
             std::string serve::Response::*payload);
    void runRound(std::vector<Pending *> &batch,
                  std::vector<std::string> &responses);
    void replicateFresh(const std::vector<Pending> &lines,
                        const std::vector<std::string> &responses);

    RouterOptions opt_;
    Ring ring_;
    std::vector<std::unique_ptr<serve::Client>> clients_;
    /// Per-shard flags as char, not vector<bool>: each round thread
    /// writes only its own shard's slot, which is only race-free
    /// with byte-addressable elements.
    std::vector<char> connected_;
    std::vector<char> everConnected_;
    Counters counters_;
};

} // namespace fleet
} // namespace ganacc

#endif // GANACC_FLEET_ROUTER_HH
