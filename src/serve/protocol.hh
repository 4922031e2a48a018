/**
 * @file
 * The versioned JSON-lines request/response protocol of the
 * simulation service.
 *
 * One request per line, one response per line, same order. A request
 * names an architecture kind, an unrolling, and either a single
 * ConvSpec or a (model, phase-family) pair whose per-layer jobs are
 * simulated and accumulated. A response carries the canonical
 * sim::RunStats (see sim/json.hh), provenance (protocol version,
 * simulator version stamp, architecture, unrolling), which cache tier
 * satisfied it, and the service-side latency.
 *
 *   {"v":1,"id":7,"arch":"ZFOST","unroll":{...},"spec":{...}}
 *   {"v":1,"id":8,"arch":"ZFWST","unroll":{...},
 *    "model":"dcgan","family":"Gw"}
 *   {"v":1,"id":12,"stats":true}
 *   {"v":1,"id":13,"metrics":true}
 *   {"v":1,"id":14,"trace-drain":true}
 *
 *   {"v":1,"id":7,"ok":true,"sim":"ganacc-1.0.0","arch":"ZFOST",
 *    "unroll":{...},"cache":"sim","latencyUs":412,"stats":{...}}
 *   {"v":1,"id":9,"ok":false,"error":"..."}
 *   {"v":1,"id":12,"ok":true,"sim":"ganacc-1.0.0",
 *    "telemetry":{"counters":{...},"gauges":{...},...}}
 *
 * The third request form is the telemetry probe: a live daemon
 * answers with a snapshot of its metric registry (cache and store
 * tiers, queue occupancy, request-latency histogram — see
 * docs/observability.md) without touching the simulation path. The
 * `metrics` and `trace-drain` probes are its live-collection
 * siblings: Prometheus text and the buffered distributed-tracing
 * span batch, also answered without touching the simulation path.
 * Any request may additionally carry an optional
 * "trace":"<32hex>-<16hex>" context (obs::TraceContext) linking the
 * spans this hop opens to the sender's trace; it is attached only
 * while tracing is armed and never affects a response.
 *
 * Requests with an unknown protocol version, unknown architecture or
 * malformed JSON produce an ok:false response carrying the parse
 * error — the stream keeps flowing; one bad line never kills the
 * daemon. Responses are bit-identical to direct in-process simulation
 * because the counters are integers end to end.
 */

#ifndef GANACC_SERVE_PROTOCOL_HH
#define GANACC_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/unrolling.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/conv_spec.hh"
#include "sim/json.hh"
#include "sim/stats.hh"

namespace ganacc {
namespace serve {

/** Wire-format generation; bump on incompatible schema changes. */
inline constexpr int kProtocolVersion = 1;

/**
 * The exact error text of a shed request. A daemon running with
 * admission shedding (fleet shards, --shed) answers with this instead
 * of blocking when its bounded queue is full; fleet::Router retries
 * with backoff on it. Pinned by tests — treat like the malformed-frame
 * table, do not rephrase.
 */
inline constexpr const char *kOverloadedError =
    "overloaded: admission queue full, retry with backoff";

/**
 * The simulator-version stamp written into every response and every
 * result-store entry. Bump the suffix whenever a change can alter any
 * counter of any cycle walk: stale store entries then self-invalidate
 * (stamp mismatch reads as a miss) instead of serving wrong numbers.
 */
const std::string &simulatorVersion();

/** One simulation request. */
struct Request
{
    std::uint64_t id = 0;
    core::ArchKind kind = core::ArchKind::NLR;
    sim::Unroll unroll;

    /// Telemetry probe ({"stats":true}): carries no simulation
    /// payload; the daemon answers with its metric snapshot.
    bool statsProbe = false;

    /// Fleet-topology probe ({"fleet":true}): the daemon answers with
    /// its shard map (see fleet/topology.hh) so a client can bootstrap
    /// a whole-fleet view from any one shard address.
    bool fleetProbe = false;

    /// Metrics probe ({"metrics":true}): the daemon answers with its
    /// registry rendered as Prometheus text — the live scrape path
    /// (ganacc-client --scrape), no signals or restarts needed.
    bool metricsProbe = false;

    /// Trace-drain probe ({"trace-drain":true}): the daemon answers
    /// with every span buffered since the last drain and keeps
    /// recording. The fleet collector stitches per-shard batches into
    /// one Perfetto trace (fleet/trace_merge.hh).
    bool traceDrainProbe = false;

    /// Distributed trace context ("trace":"<32hex>-<16hex>", see
    /// obs::TraceContext). Optional and strictly observational:
    /// absent on the wire unless the sender is tracing, and never
    /// consulted by the simulation path.
    std::string trace;

    /// Transport-side decode-span timing (never on the wire): the
    /// daemon stamps when and how long decoding this request took on
    /// the trace clock, so the engine's span batch can cover the
    /// whole hop. Zero for requests constructed in-process.
    std::uint64_t decodeTs = 0;
    std::uint64_t decodeDurUs = 0;

    /// Replication write ({"put":true,...,"result":{...},"sim":"..."}):
    /// carries a finished RunStats for (arch, unroll, spec); the
    /// daemon inserts it into its cache tiers without simulating and
    /// answers with cache:"put". fleet::Router uses this to copy
    /// freshly simulated results to the other replicas of a key.
    bool put = false;
    sim::RunStats putStats;    ///< the result being replicated
    std::string putSimVersion; ///< stamp the result was computed under

    /// Otherwise exactly one of the two payloads is set:
    bool hasSpec = false;
    sim::ConvSpec spec; ///< single-job request
    std::string model;  ///< network request: model name…
    std::string family; ///< …plus phase family (D, G, Dw, Gw)
};

/** One service response. */
struct Response
{
    std::uint64_t id = 0;
    bool ok = false;
    std::string error; ///< set when !ok

    std::string simVersion; ///< provenance: simulator stamp
    std::string arch;       ///< provenance: architecture name
    sim::Unroll unroll;     ///< provenance: unrolling executed
    sim::RunStats stats;
    /// "mem" | "disk" | "sim" | "dup" (coalesced into an identical
    /// in-flight request by the single-flight layer) | "put"
    /// (replication write acknowledged).
    std::string cache;
    std::uint64_t latencyUs = 0;

    /// Stats-probe responses only: the metric snapshot as canonical
    /// JSON object text (serve::encodeTelemetry; empty for simulation
    /// responses).
    std::string telemetry;

    /// Fleet-probe responses only: the shard map as canonical JSON
    /// object text (opaque to serve/; decoded by fleet/topology.hh).
    std::string fleet;

    /// Metrics-probe responses only: the registry as Prometheus text
    /// (exemplars included), carried as one JSON string.
    std::string metricsText;

    /// Trace-drain responses only: the drained span batch as
    /// canonical JSON object text (serve::encodeSpanBatch; always
    /// non-empty for a drain response — no buffered spans yields
    /// {"events":[]}).
    std::string spans;

    /// Trace bookkeeping (never on the wire): whether the engine kept
    /// this request's spans under the sampling policy, and the hop's
    /// identity, so the transport can parent its encode span. Unset
    /// for untraced requests and on decoded responses.
    bool traceKept = false;
    std::string traceId;        ///< 32-hex trace id
    std::uint64_t traceSpan = 0; ///< the hop span's id
};

/** Canonical one-line encodings (no trailing newline). */
std::string encodeRequest(const Request &req);
std::string encodeResponse(const Response &rsp);

/** Parse one line; throws util::FatalError on malformed input,
 *  including a spec, network or put request whose architecture reads
 *  a non-positive unroll factor (verify::checkUnroll's
 *  GA-UNROLL-POSITIVE), so nothing is simulated or stored for it. */
Request decodeRequest(const std::string &line);
Response decodeResponse(const std::string &line);

/** An ok:false response echoing the request id. */
Response errorResponse(std::uint64_t id, const std::string &message);

/**
 * The content address of a request's simulation: an FNV-1a 64 hash of
 * the canonical (simulator version, kind, unrolling, shape) encoding,
 * as 16 lowercase hex digits. Single-flight dedupe and the result
 * store both key on this.
 */
std::string contentKey(core::ArchKind kind, const sim::Unroll &u,
                       const sim::ConvSpec &spec,
                       const std::string &version = simulatorVersion());

/** FNV-1a 64-bit hash of a byte string. */
std::uint64_t fnv1a64(const std::string &bytes);

/**
 * Canonical JSON batch codec for drained span events — the payload of
 * a trace-drain probe response: {"events":[{"name":…,"cat":…,"ph":"X",
 * "tid":…,"ts":…,"dur":…,"args":{…}},…]}. Round-trips byte-identically
 * through util::json (encode(decode(encode(b))) == encode(b)). The
 * pid is deliberately absent: the collector assigns one pid per
 * drained process when merging (fleet/trace_merge.hh). Lives here
 * rather than in obs/ because it is a wire format of this protocol —
 * and obs/ stays free of non-header util dependencies.
 */
std::string encodeSpanBatch(const std::vector<obs::TraceEvent> &events);
std::vector<obs::TraceEvent> decodeSpanBatch(const std::string &text);

/**
 * Canonical JSON codec for a metric-registry snapshot — the payload of
 * a stats-probe response:
 * {"counters":{…},"gauges":{…},"histograms":{"h":{"count":…,"sum":…,
 * "buckets":[…]}}}. Names are sorted, negative gauges encode as 0 (a
 * level is never negative on the wire) and exemplars are left out, so
 * the payload is byte-stable. This is the one place that knows the
 * format: the engine encodes its registry with it, and fleet merging
 * and the conformance harness decode shard payloads into obs::Snapshot
 * structs with it. decodeTelemetry throws util::FatalError on malformed
 * input (a missing section, a non-array bucket list, a negative or
 * non-numeric count).
 */
std::string encodeTelemetry(const obs::Snapshot &snap);
obs::Snapshot decodeTelemetry(const std::string &text);

} // namespace serve
} // namespace ganacc

#endif // GANACC_SERVE_PROTOCOL_HH
