/**
 * @file
 * Telemetry-lifecycle implementation.
 */

#include "obs/telemetry.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "obs/metrics.hh"
#include "obs/probe.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace ganacc {
namespace obs {

namespace {

struct TelemetryState
{
    std::mutex m;
    bool enabled = false;
    TelemetryConfig cfg;
    MetricsProbe probe;
};

TelemetryState &
state()
{
    // Leaked: the probe may be reached from worker threads that
    // unwind during static destruction.
    static TelemetryState *s = new TelemetryState;
    return *s;
}

std::string
envOr(const char *name)
{
    const char *v = std::getenv(name);
    return v ? v : "";
}

/** `text` as a finite number in [0, 1]; false if any of it is not. */
bool
parseRate(const std::string &text, double &out)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !std::isfinite(v) || v < 0.0 ||
        v > 1.0)
        return false;
    out = v;
    return true;
}

/** `text` as a non-negative decimal integer; false if any of it is
 *  not (strtoull alone would take "-5" and " 5" and "5x"). */
bool
parseCount(const std::string &text, std::uint64_t &out)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    const std::uint64_t v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE)
        return false;
    out = v;
    return true;
}

} // namespace

TelemetryConfig
configFromEnv()
{
    TelemetryConfig cfg;
    cfg.tracePath = envOr("GANACC_TRACE");
    cfg.metricsPath = envOr("GANACC_METRICS");
    const std::string rate = envOr("GANACC_TRACE_SAMPLE");
    if (!rate.empty() && !parseRate(rate, cfg.traceSampleRate))
        util::warn("GANACC_TRACE_SAMPLE must be a rate in [0, 1], got '",
                   rate, "'; keeping ", cfg.traceSampleRate);
    const std::string tail = envOr("GANACC_TRACE_TAIL_US");
    if (!tail.empty() && !parseCount(tail, cfg.traceTailUs))
        util::warn("GANACC_TRACE_TAIL_US must be a non-negative integer, "
                   "got '", tail, "'; keeping ", cfg.traceTailUs);
    return cfg;
}

bool
telemetryEnabled()
{
    TelemetryState &s = state();
    std::lock_guard<std::mutex> lk(s.m);
    return s.enabled;
}

void
enableTelemetry(const TelemetryConfig &cfg)
{
    if (!cfg.any())
        return;
    TelemetryState &s = state();
    std::lock_guard<std::mutex> lk(s.m);
    if (s.enabled)
        // Re-arming drops the previous (unflushed) trace.
        TraceSink::instance().disable();
    s.cfg = cfg;
    s.enabled = true;
    TraceSink::instance().setSampling(cfg.traceSampleRate,
                                      cfg.traceTailUs);
    if (!cfg.tracePath.empty() || cfg.traceLive)
        // An empty path is the sink's live mode: spans buffer for
        // trace-drain probes and nothing touches the filesystem.
        TraceSink::instance().enable(cfg.tracePath);
    setRunProbe(&s.probe);
}

void
shutdownTelemetry()
{
    TelemetryState &s = state();
    std::lock_guard<std::mutex> lk(s.m);
    if (!s.enabled)
        return;
    s.enabled = false;
    setRunProbe(nullptr);
    if (!s.cfg.tracePath.empty() && TraceSink::instance().flush())
        util::inform("trace written to ", s.cfg.tracePath);
    else if (s.cfg.traceLive)
        TraceSink::instance().disable(); // live mode: nothing to write
    if (!s.cfg.metricsPath.empty()) {
        std::ofstream os(s.cfg.metricsPath, std::ios::trunc);
        if (os) {
            os << renderPrometheus(Registry::instance().snapshot());
            util::inform("metrics written to ", s.cfg.metricsPath);
        } else {
            util::warn("cannot write metrics to ", s.cfg.metricsPath);
        }
    }
}

} // namespace obs
} // namespace ganacc
