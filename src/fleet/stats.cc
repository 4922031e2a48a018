/**
 * @file
 * Telemetry merge implementation.
 */

#include "fleet/stats.hh"

#include <cstdint>

#include "obs/metrics.hh"
#include "serve/protocol.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace ganacc {
namespace fleet {

namespace {

/**
 * The smallest bucket upper bound covering `pct` percent of the
 * samples, as the Prometheus le string ("64", "+Inf", …). Exact
 * integer arithmetic (cum * 100 >= pct * count); "0" when the
 * histogram is empty. Bounds come from obs::Histogram's fixed
 * power-of-two layout — the same one every shard records under.
 */
std::string
quantileLe(const obs::HistogramSnapshot &h, std::uint64_t pct)
{
    if (h.count == 0)
        return "0";
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        cum += h.buckets[i];
        if (cum * 100 >= pct * h.count) {
            if (i + 1 == h.buckets.size())
                return "+Inf";
            return std::to_string(
                obs::Histogram::bucketBound(int(i)));
        }
    }
    return "+Inf";
}

/** Decode every reachable shard's payload once and sum them by name. */
obs::Snapshot
mergeSnapshots(const std::vector<std::string> &snapshots)
{
    obs::Snapshot total;
    for (const std::string &text : snapshots) {
        if (text.empty())
            continue; // unreachable shard: contributes nothing
        const obs::Snapshot shard = serve::decodeTelemetry(text);
        for (const auto &[name, v] : shard.counters())
            total.counter(name, v);
        for (const auto &[name, v] : shard.gauges())
            total.gauge(name, v);
        for (const auto &[name, h] : shard.histograms()) {
            // Peer input, so a layout mismatch is a FatalError here,
            // before HistogramSnapshot::merge would assert on it.
            const auto it = total.histograms().find(name);
            if (it != total.histograms().end() &&
                !it->second.buckets.empty() &&
                it->second.buckets.size() != h.buckets.size())
                util::fatal("fleet stats: histogram \"", name,
                            "\" bucket layouts differ across shards (",
                            it->second.buckets.size(), " vs ",
                            h.buckets.size(), ")");
            total.histogram(name, h);
        }
    }
    return total;
}

} // namespace

std::string
mergeTelemetry(const std::vector<std::string> &snapshots)
{
    return serve::encodeTelemetry(mergeSnapshots(snapshots));
}

std::string
fleetStatsReport(
    const std::vector<std::pair<std::string, std::string>> &perShard)
{
    std::vector<std::string> snapshots;
    std::size_t reachable = 0;
    for (const auto &[addr, telemetry] : perShard) {
        (void)addr;
        snapshots.push_back(telemetry);
        if (!telemetry.empty())
            ++reachable;
    }
    const obs::Snapshot aggregate = mergeSnapshots(snapshots);

    util::json::Object fleet;
    fleet.set("shards",
              util::json::Value(std::uint64_t(perShard.size())));
    fleet.set("reachable",
              util::json::Value(std::uint64_t(reachable)));
    util::json::Array rows;
    for (std::size_t s = 0; s < perShard.size(); ++s) {
        util::json::Object row;
        row.set("shard", util::json::Value(std::uint64_t(s)));
        row.set("address", util::json::Value(perShard[s].first));
        if (perShard[s].second.empty())
            row.set("telemetry", util::json::Value());
        else
            row.set("telemetry",
                    util::json::parse(perShard[s].second));
        rows.push_back(util::json::Value(std::move(row)));
    }
    // Derived fleet-wide latency summary from the aggregate
    // ganacc_serve_latency_us histogram: request count, total
    // microseconds, and the bucket bounds covering p50/p99. The le
    // values are strings so "+Inf" needs no special case; all
    // arithmetic is exact integers, which is what lets a ctest pin
    // this report byte-for-byte.
    const auto it = aggregate.histograms().find("ganacc_serve_latency_us");
    const obs::HistogramSnapshot latencyUs =
        it == aggregate.histograms().end() ? obs::HistogramSnapshot{}
                                           : it->second;
    util::json::Object latency;
    latency.set("count", util::json::Value(latencyUs.count));
    latency.set("sumUs", util::json::Value(latencyUs.sum));
    latency.set("p50Le", util::json::Value(quantileLe(latencyUs, 50)));
    latency.set("p99Le", util::json::Value(quantileLe(latencyUs, 99)));

    util::json::Object root;
    root.set("fleet", util::json::Value(std::move(fleet)));
    root.set("latency", util::json::Value(std::move(latency)));
    root.set("perShard", util::json::Value(std::move(rows)));
    root.set("aggregate",
             util::json::parse(serve::encodeTelemetry(aggregate)));
    return util::json::Value(std::move(root)).dump();
}

} // namespace fleet
} // namespace ganacc
