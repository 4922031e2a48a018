/**
 * @file
 * ganacc-client — batched client for ganacc-served.
 *
 * Three modes:
 *   --requests FILE   replay a JSON-lines request file through the
 *                     daemon at --socket, printing one response line
 *                     per request in order ("-" reads stdin);
 *   --emit MODE       don't contact a daemon at all; generate a
 *                     request file on stdout ("table5" emits the full
 *                     Table V matrix of a model — the request set the
 *                     golden smoke replay and the warm-cache recipes
 *                     use; "specs" emits the same matrix as per-layer
 *                     single-job spec requests, which a fleet replay
 *                     replicates to standby shards);
 *   a single ad-hoc probe: --arch/--model/--family flags build one
 *                     network request, send it, and pretty-print the
 *                     reply;
 *   --stats           send a telemetry probe ({"v":1,"id":1,
 *                     "stats":true}) and print the daemon's metric
 *                     snapshot as one JSON object on stdout — the
 *                     live-monitoring hook (see docs/observability.md).
 *
 * Requests are pipelined in windows, so a thousand-line replay is a
 * handful of syscall rounds, not a thousand round trips.
 *
 * Fleet mode (--fleet "host:port,host:port,..." or --fleet-seed
 * ADDR to bootstrap the shard list from one live shard) routes each
 * request to its owning shard by consistent hashing, pipelines per
 * connection, retries `overloaded` responses with backoff, fails
 * over to replicas, and replicates fresh results (docs/serving.md
 * "Fleet"). --stats --fleet merges every shard's telemetry snapshot
 * into one report with per-shard rows, a fleet-wide latency summary
 * and the aggregate merge.
 *
 * Live collection (docs/observability.md "Distributed tracing"):
 *   --scrape          pull the Prometheus text of a daemon (or, with
 *                     --fleet, of every live shard, each section
 *                     headed by a "# ganacc shard" comment);
 *   --trace-collect F drain every shard's buffered spans over
 *                     trace-drain probes and write one merged
 *                     Perfetto-loadable Chrome trace to F. Combined
 *                     with --requests, this process records router
 *                     root spans for the replayed lines and the merge
 *                     stitches the cross-process parentage together.
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "core/unrolling.hh"
#include "fleet/router.hh"
#include "fleet/stats.hh"
#include "fleet/trace_merge.hh"
#include "gan/models.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "sim/phase.hh"
#include "util/args.hh"
#include "util/logging.hh"

namespace {

using namespace ganacc;

/**
 * The Table V (family, bank, arch) matrix as network requests, or,
 * with `specs`, broken down into single-job spec requests: one per
 * (family, arch, layer) with the layer's ConvSpec inlined. Unlike the
 * model/family form the daemon treats each spec line as an
 * independent simulation job, so a fleet replay of that file
 * exercises the replication path (fresh spec results are `put` to
 * replica shards; model-form requests never replicate).
 */
std::vector<serve::Request>
table5Requests(const std::string &model_name, bool specs)
{
    const gan::GanModel model = gan::modelByName(model_name);
    std::vector<serve::Request> reqs;
    for (sim::PhaseFamily family : sim::allPhaseFamilies()) {
        const core::BankRole role = core::bankOf(family);
        const std::vector<sim::ConvSpec> jobs =
            sim::familyJobs(model, family);
        for (core::ArchKind kind : core::allArchKinds()) {
            serve::Request req;
            req.kind = kind;
            req.unroll = core::paperUnroll(kind, role, family,
                                           core::paperPes(role));
            if (!specs) {
                req.id = reqs.size() + 1;
                req.model = model_name;
                req.family = sim::phaseFamilyName(family);
                reqs.push_back(req);
                continue;
            }
            req.hasSpec = true;
            for (const sim::ConvSpec &job : jobs) {
                req.id = reqs.size() + 1;
                req.spec = job;
                reqs.push_back(req);
            }
        }
    }
    return reqs;
}

std::vector<std::string>
readLines(std::istream &is)
{
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(is, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

} // namespace

int
main(int argc, char **argv)
try {
    util::ArgParser args(argc, argv);
    const std::string socket_path = args.getString(
        "socket", "",
        "address of a running ganacc-served (socket path or TCP "
        "host:port)");
    const std::string fleet_csv = args.getString(
        "fleet", "",
        "comma-separated shard addresses: route requests across a "
        "fleet instead of one daemon");
    const std::string fleet_seed = args.getString(
        "fleet-seed", "",
        "bootstrap the shard list from this one live shard "
        "(fleet probe)");
    const int connect_timeout = args.getInt(
        "connect-timeout", 5000,
        "total connect budget per daemon in ms");
    const int retries = args.getInt(
        "retries", 0,
        "extra connect attempts (exponential backoff) before "
        "failing");
    const std::string requests_file = args.getString(
        "requests", "",
        "JSON-lines request file to replay (\"-\" = stdin)");
    const std::string emit = args.getString(
        "emit", "",
        "emit a request file to stdout instead of connecting: "
        "\"table5\" (model/family form) or \"specs\" (same matrix "
        "as per-layer single-job spec requests, which a fleet "
        "replay replicates)");
    const std::string model_name = args.getString(
        "model", "dcgan",
        "model for --emit or an ad-hoc probe request");
    const std::string arch_name = args.getString(
        "arch", "", "ad-hoc probe: architecture (e.g. ZFOST)");
    const std::string family_name = args.getString(
        "family", "D", "ad-hoc probe: phase family (D, G, Dw, Gw)");
    const bool stats_probe = args.getFlag(
        "stats",
        "probe a live daemon for its telemetry snapshot (JSON)");
    const bool scrape = args.getFlag(
        "scrape",
        "probe for Prometheus metrics text (with --fleet: every "
        "shard, each section headed by a comment)");
    const std::string trace_collect = args.getString(
        "trace-collect", "",
        "drain every shard's buffered spans (--fleet) and write one "
        "merged Chrome trace to FILE");
    if (args.helpRequested()) {
        args.usage(std::cout);
        return 0;
    }
    args.finish();

    if (!emit.empty()) {
        if (emit != "table5" && emit != "specs")
            util::fatal("unknown --emit mode '", emit,
                        "' (table5, specs)");
        for (const auto &req : table5Requests(model_name, emit == "specs"))
            std::cout << serve::encodeRequest(req) << "\n";
        return 0;
    }

    serve::ConnectOptions copt;
    copt.retries = retries;
    copt.timeoutMs = connect_timeout;

    if (!fleet_csv.empty() && !fleet_seed.empty())
        util::fatal("pass --fleet or --fleet-seed, not both");
    const bool fleet_mode = !fleet_csv.empty() || !fleet_seed.empty();
    if (fleet_mode && !socket_path.empty())
        util::fatal("--fleet/--fleet-seed replace --socket");
    if (!fleet_mode && socket_path.empty())
        util::fatal("--socket ADDR is required (or --fleet, "
                    "--fleet-seed, --emit)");

    if (stats_probe && scrape)
        util::fatal("pass --stats or --scrape, not both");
    if (!trace_collect.empty() && !fleet_mode)
        util::fatal("--trace-collect needs --fleet/--fleet-seed "
                    "(it drains and merges per-shard span batches)");

    // Arm live tracing before the router exists so the root spans it
    // opens for a --requests replay are buffered here and land in the
    // merged trace alongside the shards' drained batches.
    if (!trace_collect.empty()) {
        obs::TelemetryConfig tcfg;
        tcfg.traceLive = true;
        obs::enableTelemetry(tcfg);
    }

    std::unique_ptr<fleet::Router> router;
    serve::Client client;
    if (fleet_mode) {
        fleet::RouterOptions ropt;
        ropt.connect = copt;
        ropt.topology =
            fleet_seed.empty()
                ? fleet::parseShardList(fleet_csv, 64, 2)
                : fleet::Router::bootstrap(fleet_seed, copt);
        router = std::make_unique<fleet::Router>(std::move(ropt));
    } else {
        client.connect(socket_path, copt);
    }

    if (stats_probe) {
        if (router) {
            std::cout << fleet::fleetStatsReport(router->statsAll())
                      << "\n";
            return 0;
        }
        serve::Request req;
        req.id = 1;
        req.statsProbe = true;
        serve::Response rsp = client.roundTrip(req);
        if (!rsp.ok)
            util::fatal("daemon error: ", rsp.error);
        if (rsp.telemetry.empty())
            util::fatal("daemon answered without telemetry (",
                        rsp.simVersion, " predates stats probes?)");
        std::cout << rsp.telemetry << "\n";
        return 0;
    }

    if (scrape) {
        if (router) {
            const auto perShard = router->scrapeAll();
            for (std::size_t s = 0; s < perShard.size(); ++s) {
                std::cout << "# ganacc shard " << s << " ("
                          << perShard[s].first << ")"
                          << (perShard[s].second.empty()
                                  ? " unreachable"
                                  : "")
                          << "\n"
                          << perShard[s].second;
            }
            return 0;
        }
        serve::Request req;
        req.id = 1;
        req.metricsProbe = true;
        serve::Response rsp = client.roundTrip(req);
        if (!rsp.ok)
            util::fatal("daemon error: ", rsp.error);
        std::cout << rsp.metricsText;
        return 0;
    }

    // Drain + merge the fleet's span batches to FILE; done after a
    // --requests replay so the replay's own root spans are included.
    auto collectTraces = [&] {
        const auto perShard = router->drainTracesAll();
        const std::vector<obs::TraceEvent> local =
            obs::TraceSink::instance().drain();
        const std::string doc =
            fleet::mergeTraces(perShard, local);
        std::ofstream os(trace_collect, std::ios::trunc);
        if (!os)
            util::fatal("cannot write ", trace_collect);
        os << doc;
        std::cerr << "ganacc-client: merged trace -> "
                  << trace_collect << " (" << local.size()
                  << " local events)\n";
    };

    if (!requests_file.empty()) {
        std::vector<std::string> lines;
        if (requests_file == "-") {
            lines = readLines(std::cin);
        } else {
            std::ifstream is(requests_file);
            if (!is)
                util::fatal("cannot open ", requests_file);
            lines = readLines(is);
        }
        const std::vector<std::string> responses =
            router ? router->transactLines(lines)
                   : serve::replayLines(client, lines);
        for (const std::string &rsp : responses)
            std::cout << rsp << "\n";
        if (!trace_collect.empty())
            collectTraces();
        return 0;
    }

    if (!trace_collect.empty()) {
        collectTraces();
        return 0;
    }

    // Ad-hoc probe.
    if (arch_name.empty())
        util::fatal("pass --requests FILE, --emit MODE, or --arch "
                    "KIND for a single probe");
    auto kind = core::archKindFromName(arch_name);
    if (!kind)
        util::fatal("unknown architecture '", arch_name, "'");
    serve::Request req;
    req.id = 1;
    req.kind = *kind;
    const sim::PhaseFamily family =
        sim::phaseFamilyFromName(family_name);
    const core::BankRole role = core::bankOf(family);
    req.unroll =
        core::paperUnroll(*kind, role, family, core::paperPes(role));
    req.model = model_name;
    req.family = family_name;
    serve::Response rsp =
        router ? router->call(req) : client.roundTrip(req);
    if (!rsp.ok)
        util::fatal("daemon error: ", rsp.error);
    std::cout << rsp.arch << " on " << model_name << "/" << family_name
              << " (" << rsp.cache << ", " << rsp.latencyUs
              << " us, " << rsp.simVersion << "):\n  "
              << rsp.stats.str() << "\n";
    return 0;
} catch (const ganacc::util::FatalError &e) {
    std::cerr << "ganacc-client: " << e.what() << "\n";
    return 2;
}
