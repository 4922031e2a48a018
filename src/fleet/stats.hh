/**
 * @file
 * Fleet-level telemetry aggregation.
 *
 * Every shard answers a stats probe with its own registry snapshot
 * (serve::encodeTelemetry(): counters, gauges, histograms). This
 * module decodes N such payloads into obs::Snapshot structs and sums
 * them into one fleet view: counters and gauges add, histograms merge
 * element-wise (same power-of-2 bucket layout on every shard, so
 * bucket i + bucket i is exact).
 * The merge is pure integer arithmetic — no averaging, no doubles —
 * which is what lets a ctest pin it.
 */

#ifndef GANACC_FLEET_STATS_HH
#define GANACC_FLEET_STATS_HH

#include <string>
#include <vector>

namespace ganacc {
namespace fleet {

/**
 * Merge per-shard telemetry snapshots (canonical JSON object text as
 * produced by the stats probe) into one aggregate snapshot of the
 * same shape, names sorted as in any one shard's payload. Metric
 * names are the union across shards; a name missing on some shard
 * contributes zero. Snapshots that are empty
 * strings (unreachable shards) are skipped. Throws util::FatalError
 * on malformed input or mismatched histogram bucket layouts.
 */
std::string mergeTelemetry(const std::vector<std::string> &snapshots);

/**
 * The ganacc-client --stats --fleet report: one JSON object with the
 * shard count, a derived fleet-wide latency summary (request count,
 * total microseconds, and the smallest le bucket bounds covering
 * p50/p99 of the merged ganacc_serve_latency_us histogram — le
 * values are strings so "+Inf" is uniform, "0" when empty), a
 * per-shard array of (address, telemetry) rows — unreachable shards
 * carry "telemetry":null — and the aggregate merge of the reachable
 * ones:
 *
 *   {"fleet":{"shards":3,"reachable":3},
 *    "latency":{"count":12,"sumUs":8192,"p50Le":"512","p99Le":"4096"},
 *    "perShard":[{"shard":0,"address":"...","telemetry":{...}},...],
 *    "aggregate":{...}}
 */
std::string fleetStatsReport(
    const std::vector<std::pair<std::string, std::string>> &perShard);

} // namespace fleet
} // namespace ganacc

#endif // GANACC_FLEET_STATS_HH
