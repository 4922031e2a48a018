/**
 * @file
 * Wire-protocol implementation.
 */

#include "serve/protocol.hh"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/json.hh"
#include "util/logging.hh"
#include "util/strings.hh"
#include "verify/legality.hh"

namespace ganacc {
namespace serve {

namespace {

/** The unrolling of a request, refused when `kind` reads a factor
 *  below 1 (GA-UNROLL-POSITIVE): a zero would divide by zero in the
 *  simulator and a negative one wrap its counters. Also refused when
 *  the factors `kind` reads multiply past INT_MAX: the PE count is an
 *  int (sim::Dataflow::pes()), and building the array would overflow
 *  it, so the product is taken in 64 bits before anything is built. */
sim::Unroll
decodeUnroll(core::ArchKind kind, const util::json::Value &v)
{
    const sim::Unroll u = sim::unrollFromJson(v);
    // Saturating at 2^31 keeps every step below 2^62: the running
    // product meets factors of magnitude at most 2^31.
    std::int64_t pes = 1;
    for (const sim::UnrollFactor &f : sim::unrollFactors(
             *core::makeArch(kind, sim::Unroll{})->dataflow()))
        if (f.read)
            pes = std::min<std::int64_t>(
                pes * std::abs(std::int64_t(u.*f.member)),
                std::int64_t(INT_MAX) + 1);
    if (pes > INT_MAX)
        util::fatal(core::archKindName(kind),
                    " unroll: the PE count (the product of the factors "
                    "it reads) exceeds ",
                    INT_MAX);
    verify::Report report;
    verify::checkUnroll(kind, u, {}, report);
    if (const verify::Diagnostic *d =
            report.find(verify::codes::kUnrollPositive))
        util::fatal(d->where, " unroll: ", d->message, " (", d->code,
                    ")");
    return u;
}

} // namespace

const std::string &
simulatorVersion()
{
    // <project version>+<cycle-model generation>: regenerate
    // tests/golden/serve_responses.jsonl when bumping.
    static const std::string v = "ganacc-1.0.0+cycles1";
    return v;
}

std::string
encodeRequest(const Request &req)
{
    std::ostringstream os;
    os << "{\"v\":" << kProtocolVersion << ",\"id\":" << req.id;
    // The trace context rides along on any request form. Omitted
    // entirely when absent, so untraced requests encode byte-
    // identically to the pre-tracing wire format (the serve golden
    // replay pins this).
    if (!req.trace.empty())
        os << ",\"trace\":\"" << util::escapeJson(req.trace) << "\"";
    if (req.statsProbe) {
        os << ",\"stats\":true}";
        return os.str();
    }
    if (req.fleetProbe) {
        os << ",\"fleet\":true}";
        return os.str();
    }
    if (req.metricsProbe) {
        os << ",\"metrics\":true}";
        return os.str();
    }
    if (req.traceDrainProbe) {
        os << ",\"trace-drain\":true}";
        return os.str();
    }
    if (req.put) {
        os << ",\"put\":true,\"arch\":\""
           << core::archKindName(req.kind) << "\""
           << ",\"unroll\":" << sim::toJson(req.unroll)
           << ",\"spec\":" << sim::toJson(req.spec)
           << ",\"result\":" << sim::toJson(req.putStats)
           << ",\"sim\":\"" << util::escapeJson(req.putSimVersion)
           << "\"}";
        return os.str();
    }
    os << ",\"arch\":\"" << core::archKindName(req.kind) << "\""
       << ",\"unroll\":" << sim::toJson(req.unroll);
    if (req.hasSpec)
        os << ",\"spec\":" << sim::toJson(req.spec);
    else
        os << ",\"model\":\"" << util::escapeJson(req.model) << "\""
           << ",\"family\":\"" << util::escapeJson(req.family) << "\"";
    os << "}";
    return os.str();
}

Request
decodeRequest(const std::string &line)
{
    const util::json::Value doc = util::json::parse(line);
    const util::json::Object &o = doc.asObject();
    const int v = o.at("v").asInt();
    if (v != kProtocolVersion)
        util::fatal("unsupported protocol version ", v, " (this "
                    "daemon speaks v", kProtocolVersion, ")");
    Request req;
    req.id = o.at("id").asUint64();
    // The optional distributed-tracing context; legal on every form.
    if (o.contains("trace"))
        req.trace = o.at("trace").asString();
    if (o.contains("put")) {
        // Replication write: a finished result plus the full triple
        // it belongs to and the stamp it was computed under.
        if (!o.at("put").asBool())
            util::fatal("\"put\" must be true when present");
        if (o.contains("model") || o.contains("family") ||
            o.contains("stats") || o.contains("fleet") ||
            o.contains("metrics") || o.contains("trace-drain"))
            util::fatal("a put carries exactly arch, unroll, spec, "
                        "result and sim");
        req.put = true;
        const std::string arch = o.at("arch").asString();
        auto kind = core::archKindFromName(arch);
        if (!kind)
            util::fatal("unknown architecture \"", arch,
                        "\" (NLR, WST, OST, ZFOST, ZFWST)");
        req.kind = *kind;
        req.unroll = decodeUnroll(req.kind, o.at("unroll"));
        req.hasSpec = true;
        req.spec = sim::convSpecFromJson(o.at("spec"));
        req.putStats = sim::runStatsFromJson(o.at("result"));
        req.putSimVersion = o.at("sim").asString();
        return req;
    }
    if (o.contains("fleet")) {
        // Topology probe: {"v":1,"id":N,"fleet":true}, nothing else.
        if (!o.at("fleet").asBool())
            util::fatal("\"fleet\" must be true when present");
        if (o.contains("spec") || o.contains("model") ||
            o.contains("family") || o.contains("arch") ||
            o.contains("stats") || o.contains("metrics") ||
            o.contains("trace-drain"))
            util::fatal("a fleet probe carries no simulation payload");
        req.fleetProbe = true;
        return req;
    }
    if (o.contains("stats")) {
        // Telemetry probe: {"v":1,"id":N,"stats":true}, nothing else.
        if (!o.at("stats").asBool())
            util::fatal("\"stats\" must be true when present");
        if (o.contains("spec") || o.contains("model") ||
            o.contains("family") || o.contains("arch") ||
            o.contains("metrics") || o.contains("trace-drain"))
            util::fatal("a stats probe carries no simulation payload");
        req.statsProbe = true;
        return req;
    }
    if (o.contains("metrics")) {
        // Prometheus scrape probe: {"v":1,"id":N,"metrics":true}.
        if (!o.at("metrics").asBool())
            util::fatal("\"metrics\" must be true when present");
        if (o.contains("spec") || o.contains("model") ||
            o.contains("family") || o.contains("arch") ||
            o.contains("trace-drain"))
            util::fatal("a metrics probe carries no simulation "
                        "payload");
        req.metricsProbe = true;
        return req;
    }
    if (o.contains("trace-drain")) {
        // Span-batch drain probe: {"v":1,"id":N,"trace-drain":true}.
        if (!o.at("trace-drain").asBool())
            util::fatal("\"trace-drain\" must be true when present");
        if (o.contains("spec") || o.contains("model") ||
            o.contains("family") || o.contains("arch"))
            util::fatal("a trace-drain probe carries no simulation "
                        "payload");
        req.traceDrainProbe = true;
        return req;
    }
    const std::string arch = o.at("arch").asString();
    auto kind = core::archKindFromName(arch);
    if (!kind)
        util::fatal("unknown architecture \"", arch,
                    "\" (NLR, WST, OST, ZFOST, ZFWST)");
    req.kind = *kind;
    req.unroll = decodeUnroll(req.kind, o.at("unroll"));
    const bool hasSpec = o.contains("spec");
    const bool hasModel = o.contains("model") || o.contains("family");
    if (hasSpec == hasModel)
        util::fatal("request must carry exactly one of \"spec\" or "
                    "\"model\"+\"family\"");
    if (hasSpec) {
        req.hasSpec = true;
        req.spec = sim::convSpecFromJson(o.at("spec"));
    } else {
        req.model = o.at("model").asString();
        req.family = o.at("family").asString();
    }
    return req;
}

std::string
encodeResponse(const Response &rsp)
{
    std::ostringstream os;
    os << "{\"v\":" << kProtocolVersion << ",\"id\":" << rsp.id
       << ",\"ok\":" << (rsp.ok ? "true" : "false");
    if (!rsp.ok) {
        os << ",\"error\":\"" << util::escapeJson(rsp.error) << "\"}";
        return os.str();
    }
    if (!rsp.telemetry.empty()) {
        // Stats-probe responses replace the simulation payload with
        // the (already canonical JSON) metric snapshot.
        os << ",\"sim\":\"" << util::escapeJson(rsp.simVersion)
           << "\",\"telemetry\":" << rsp.telemetry << "}";
        return os.str();
    }
    if (!rsp.fleet.empty()) {
        // Fleet-probe responses carry the shard map instead.
        os << ",\"sim\":\"" << util::escapeJson(rsp.simVersion)
           << "\",\"fleet\":" << rsp.fleet << "}";
        return os.str();
    }
    if (!rsp.metricsText.empty()) {
        // Metrics-probe responses carry the Prometheus text as one
        // JSON string (it is not JSON itself).
        os << ",\"sim\":\"" << util::escapeJson(rsp.simVersion)
           << "\",\"metrics\":\"" << util::escapeJson(rsp.metricsText)
           << "\"}";
        return os.str();
    }
    if (!rsp.spans.empty()) {
        // Trace-drain responses carry the (already canonical JSON)
        // span batch.
        os << ",\"sim\":\"" << util::escapeJson(rsp.simVersion)
           << "\",\"spans\":" << rsp.spans << "}";
        return os.str();
    }
    os << ",\"sim\":\"" << util::escapeJson(rsp.simVersion) << "\""
       << ",\"arch\":\"" << util::escapeJson(rsp.arch) << "\""
       << ",\"unroll\":" << sim::toJson(rsp.unroll) << ",\"cache\":\""
       << util::escapeJson(rsp.cache) << "\",\"latencyUs\":"
       << rsp.latencyUs << ",\"stats\":" << sim::toJson(rsp.stats)
       << "}";
    return os.str();
}

Response
decodeResponse(const std::string &line)
{
    const util::json::Value doc = util::json::parse(line);
    const util::json::Object &o = doc.asObject();
    const int v = o.at("v").asInt();
    if (v != kProtocolVersion)
        util::fatal("unsupported protocol version ", v);
    Response rsp;
    rsp.id = o.at("id").asUint64();
    rsp.ok = o.at("ok").asBool();
    if (!rsp.ok) {
        rsp.error = o.at("error").asString();
        return rsp;
    }
    rsp.simVersion = o.at("sim").asString();
    if (o.contains("telemetry")) {
        // Round-trips byte-identically: util::json objects preserve
        // insertion order and the snapshot holds only exact integers.
        rsp.telemetry = o.at("telemetry").dump();
        return rsp;
    }
    if (o.contains("fleet")) {
        rsp.fleet = o.at("fleet").dump();
        return rsp;
    }
    if (o.contains("metrics")) {
        rsp.metricsText = o.at("metrics").asString();
        return rsp;
    }
    if (o.contains("spans")) {
        rsp.spans = o.at("spans").dump();
        return rsp;
    }
    rsp.arch = o.at("arch").asString();
    rsp.unroll = sim::unrollFromJson(o.at("unroll"));
    rsp.cache = o.at("cache").asString();
    rsp.latencyUs = o.at("latencyUs").asUint64();
    rsp.stats = sim::runStatsFromJson(o.at("stats"));
    return rsp;
}

Response
errorResponse(std::uint64_t id, const std::string &message)
{
    Response rsp;
    rsp.id = id;
    rsp.ok = false;
    rsp.error = message;
    return rsp;
}

std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : bytes) {
        h ^= std::uint64_t(static_cast<unsigned char>(c));
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
encodeSpanBatch(const std::vector<obs::TraceEvent> &events)
{
    util::json::Array out;
    for (const obs::TraceEvent &e : events) {
        util::json::Object ev;
        ev.set("name", util::json::Value(e.name));
        if (!e.cat.empty())
            ev.set("cat", util::json::Value(e.cat));
        ev.set("ph", util::json::Value(std::string(1, e.ph)));
        ev.set("tid", util::json::Value(
                          std::uint64_t(e.tid < 0 ? 0 : e.tid)));
        ev.set("ts", util::json::Value(e.ts));
        ev.set("dur", util::json::Value(e.dur));
        if (!e.args.empty())
            ev.set("args", util::json::parse(e.args));
        out.push_back(util::json::Value(std::move(ev)));
    }
    util::json::Object root;
    root.set("events", util::json::Value(std::move(out)));
    return util::json::Value(std::move(root)).dump();
}

std::vector<obs::TraceEvent>
decodeSpanBatch(const std::string &text)
{
    const util::json::Value doc = util::json::parse(text);
    const util::json::Array &events =
        doc.asObject().at("events").asArray();
    std::vector<obs::TraceEvent> out;
    out.reserve(events.size());
    for (const util::json::Value &v : events) {
        const util::json::Object &o = v.asObject();
        obs::TraceEvent e;
        e.name = o.at("name").asString();
        if (o.contains("cat"))
            e.cat = o.at("cat").asString();
        const std::string ph = o.at("ph").asString();
        if (ph.size() != 1)
            util::fatal("span batch event has a malformed ph \"", ph,
                        "\"");
        e.ph = ph[0];
        e.tid = int(o.at("tid").asUint64());
        e.ts = o.at("ts").asUint64();
        e.dur = o.at("dur").asUint64();
        if (o.contains("args"))
            e.args = o.at("args").dump();
        out.push_back(std::move(e));
    }
    return out;
}

std::string
encodeTelemetry(const obs::Snapshot &snap)
{
    // Built through util::json so the text is canonical: parse() +
    // dump() reproduces it byte for byte (insertion order preserved,
    // every value an exact integer), which the protocol round-trip
    // tests rely on.
    util::json::Object counters;
    for (const auto &[name, v] : snap.counters())
        counters.set(name, util::json::Value(v));
    util::json::Object gauges;
    for (const auto &[name, v] : snap.gauges())
        gauges.set(name, util::json::Value(std::uint64_t(
                             v < 0 ? 0 : v))); // levels never negative
    util::json::Object histograms;
    for (const auto &[name, h] : snap.histograms()) {
        util::json::Object hist;
        hist.set("count", util::json::Value(h.count));
        hist.set("sum", util::json::Value(h.sum));
        util::json::Array buckets;
        for (std::uint64_t b : h.buckets)
            buckets.push_back(util::json::Value(b));
        hist.set("buckets", util::json::Value(std::move(buckets)));
        histograms.set(name, util::json::Value(std::move(hist)));
    }
    util::json::Object root;
    root.set("counters", util::json::Value(std::move(counters)));
    root.set("gauges", util::json::Value(std::move(gauges)));
    root.set("histograms", util::json::Value(std::move(histograms)));
    return util::json::Value(std::move(root)).dump();
}

obs::Snapshot
decodeTelemetry(const std::string &text)
{
    const util::json::Value doc = util::json::parse(text);
    const util::json::Object &o = doc.asObject();
    obs::Snapshot snap;
    for (const auto &[name, v] : o.at("counters").asObject().entries())
        snap.counter(name, v.asUint64());
    for (const auto &[name, v] : o.at("gauges").asObject().entries())
        snap.gauge(name, std::int64_t(v.asUint64()));
    for (const auto &[name, v] :
         o.at("histograms").asObject().entries()) {
        const util::json::Object &h = v.asObject();
        obs::HistogramSnapshot hs;
        hs.count = h.at("count").asUint64();
        hs.sum = h.at("sum").asUint64();
        for (const util::json::Value &b : h.at("buckets").asArray())
            hs.buckets.push_back(b.asUint64());
        snap.histogram(name, hs);
    }
    return snap;
}

std::string
contentKey(core::ArchKind kind, const sim::Unroll &u,
           const sim::ConvSpec &spec, const std::string &version)
{
    std::ostringstream os;
    os << version << '|' << core::archKindName(kind) << '|'
       << sim::toJson(u) << '|' << sim::specShapeKey(spec);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(os.str())));
    return hex;
}

} // namespace serve
} // namespace ganacc
