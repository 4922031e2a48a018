/**
 * @file
 * ganacc-served — the simulation-as-a-service daemon.
 *
 * Turns the one-shot simulator into a long-lived evaluation service:
 * clients submit (architecture, unrolling, job) requests over a
 * Unix-domain socket (or stdin/stdout in --pipe mode, which is what
 * CI's golden replay uses) and get canonical RunStats back, served
 * from the in-memory cycle cache, the persistent result store
 * (--cache-dir / GANACC_CACHE_DIR), or a fresh cycle walk — always
 * bit-identical to direct in-process simulation.
 *
 *   ganacc-served --socket /tmp/ganacc.sock --cache-dir ~/.ganacc
 *   ganacc-served --pipe --jobs 1 --deterministic < reqs.jsonl
 *   ganacc-served --tcp 127.0.0.1:7741 --announce shard0.addr \
 *       --fleet 127.0.0.1:7741,127.0.0.1:7742 --shard-index 0 \
 *       --shed --cache-dir /var/ganacc/shard0
 *
 * The third form is a fleet shard (docs/serving.md "Fleet"): TCP
 * transport, the shared shard map answered to {"fleet":true} probes,
 * and shed-mode admission so a saturated queue answers `overloaded`
 * instead of blocking. --announce writes the actually bound address
 * (resolving a ":0" port) once listening, which is what scripts wait
 * on.
 *
 * SIGTERM/SIGINT stop the socket server cleanly: stop accepting,
 * finish live connections, drain the engine, remove the socket file.
 * That drain path is also the fleet's rolling-restart contract: a
 * SIGTERMed shard finishes every buffered request before its
 * connections close, so clients lose a connection, never a response.
 */

#include <atomic>
#include <fstream>
#include <iostream>

#include "fleet/topology.hh"
#include "obs/telemetry.hh"
#include "serve/daemon.hh"
#include "serve/engine.hh"
#include "util/args.hh"
#include "util/logging.hh"

int
main(int argc, char **argv)
try {
    using namespace ganacc;
    util::ArgParser args(argc, argv);
    const std::string socket_path = args.getString(
        "socket", "", "Unix-domain socket path to listen on");
    const std::string tcp_addr = args.getString(
        "tcp", "",
        "TCP host:port to listen on (\":0\" picks a free port)");
    const std::string announce = args.getString(
        "announce", "",
        "write the bound address to FILE once listening (TCP mode)");
    const std::string fleet_csv = args.getString(
        "fleet", "",
        "comma-separated shard list this daemon is part of "
        "(answered to fleet probes)");
    const int shard_index = args.getInt(
        "shard-index", -1, "this daemon's index in --fleet");
    const int vnodes = args.getInt(
        "vnodes", 64, "ring virtual nodes per shard (--fleet)");
    const int rf = args.getInt(
        "rf", 2, "fleet replication factor (--fleet)");
    const bool shed = args.getFlag(
        "shed",
        "answer `overloaded` at a full queue instead of blocking "
        "the reader (fleet admission control)");
    const bool pipe_mode = args.getFlag(
        "pipe", "serve stdin -> stdout instead of a socket");
    const std::string cache_dir = args.getCacheDir();
    const int jobs = args.getJobs();
    const int max_queue = args.getInt(
        "max-queue", 256,
        "in-flight request bound (backpressure threshold)");
    const bool deterministic = args.getFlag(
        "deterministic",
        "report latencyUs as 0 so responses byte-compare against "
        "goldens");
    const bool quiet =
        args.getFlag("quiet", "suppress the shutdown summary");
    const std::string trace_path = args.getTracePath();
    const bool trace_live = args.getFlag(
        "trace-live",
        "buffer spans for {\"trace-drain\":true} probes instead of "
        "writing a trace file at shutdown");
    const double trace_sample = args.getDouble(
        "trace-sample", -1.0,
        "head-sampling rate for request traces, 0..1 (hash of the "
        "trace id, so every fleet process agrees; default: "
        "GANACC_TRACE_SAMPLE or 1)");
    const int trace_tail_us = args.getInt(
        "trace-tail-us", 0,
        "tail sampling: always keep spans of requests at least this "
        "slow, in microseconds (0 = off)");
    if (args.helpRequested()) {
        args.usage(std::cout);
        return 0;
    }
    args.finish();
    const int transports = int(pipe_mode) +
                           int(!socket_path.empty()) +
                           int(!tcp_addr.empty());
    if (transports != 1)
        util::fatal("pass exactly one of --pipe, --socket PATH or "
                    "--tcp HOST:PORT");
    if (max_queue <= 0)
        util::fatal("--max-queue must be positive");
    if (!announce.empty() && tcp_addr.empty())
        util::fatal("--announce needs --tcp");
    if ((shard_index >= 0) != !fleet_csv.empty())
        util::fatal("--fleet and --shard-index go together");

    // Telemetry: sinks come from env (GANACC_TRACE / GANACC_METRICS)
    // or --trace; status goes to stderr via inform so the JSONL
    // response stream on stdout stays clean in --pipe mode. Live
    // Prometheus text comes from the {"metrics":true} probe
    // (ganacc-client --scrape).
    obs::TelemetryConfig tcfg = obs::configFromEnv();
    if (!trace_path.empty())
        tcfg.tracePath = trace_path;
    if (trace_live)
        tcfg.traceLive = true;
    if (trace_sample >= 0.0) {
        if (trace_sample > 1.0)
            util::fatal("--trace-sample must be in [0, 1]");
        tcfg.traceSampleRate = trace_sample;
    }
    if (trace_tail_us < 0)
        util::fatal("--trace-tail-us must be non-negative");
    if (trace_tail_us > 0)
        tcfg.traceTailUs = std::uint64_t(trace_tail_us);
    if (tcfg.any())
        obs::enableTelemetry(tcfg);

    serve::EngineOptions opts;
    opts.jobs = jobs;
    opts.maxQueue = std::size_t(max_queue);
    opts.cacheDir = cache_dir;
    opts.deterministic = deterministic;
    opts.shedOverload = shed;
    if (!fleet_csv.empty()) {
        fleet::Topology topo =
            fleet::parseShardList(fleet_csv, vnodes, rf);
        if (shard_index >= int(topo.shards.size()))
            util::fatal("--shard-index ", shard_index,
                        " out of range for ", topo.shards.size(),
                        " shards");
        topo.self = shard_index;
        opts.fleetJson = fleet::toJson(topo);
    }
    serve::Engine engine(opts);

    serve::ServeTotals totals;
    if (pipe_mode) {
        totals = serve::runPipeServer(std::cin, std::cout, engine);
        engine.drain();
    } else if (!tcp_addr.empty()) {
        std::atomic<bool> stop{false};
        serve::installStopHandlers(stop);
        std::string bound;
        const int listener = serve::listenTcp(tcp_addr, &bound);
        if (!announce.empty()) {
            std::ofstream os(announce, std::ios::trunc);
            if (!os)
                util::fatal("cannot write ", announce);
            os << bound << "\n";
        }
        std::cerr << "ganacc-served: listening on tcp " << bound
                  << " (" << engine.summary() << ")\n";
        totals = serve::serveListener(listener, engine, stop);
    } else {
        std::atomic<bool> stop{false};
        serve::installStopHandlers(stop);
        std::cerr << "ganacc-served: listening on " << socket_path
                  << " (" << engine.summary() << ")\n";
        totals = serve::runSocketServer(socket_path, engine, stop);
    }
    if (!quiet)
        std::cerr << "ganacc-served: " << totals.lines
                  << " requests in, " << totals.responses
                  << " responses out; " << engine.summary() << "\n";
    obs::shutdownTelemetry();
    return 0;
} catch (const ganacc::util::FatalError &e) {
    std::cerr << "ganacc-served: " << e.what() << "\n";
    return 2;
}
