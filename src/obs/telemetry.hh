/**
 * @file
 * Telemetry lifecycle: one switch that arms the trace sink, the
 * cycle-walk probe and the metrics dump.
 *
 * Configuration comes from the environment (GANACC_TRACE,
 * GANACC_METRICS, GANACC_TRACE_SAMPLE, GANACC_TRACE_TAIL_US) or the
 * --trace flag (see util::ArgParser::getTracePath); with none of them
 * set every hook in the codebase is a no-op and all outputs are
 * bit-identical to a build without telemetry (asserted by
 * tests/test_obs.cc).
 *
 * Shutdown is explicit (shutdownTelemetry(), called by the bench
 * CacheScope and the daemon) so files land deterministically before
 * process teardown; an atexit flush in the trace sink is the backstop
 * for tools that exit early.
 */

#ifndef GANACC_OBS_TELEMETRY_HH
#define GANACC_OBS_TELEMETRY_HH

#include <cstdint>
#include <string>

namespace ganacc {
namespace obs {

/** Where each telemetry stream goes ("" = stream off). */
struct TelemetryConfig
{
    std::string tracePath;   ///< Chrome trace of spans (GANACC_TRACE)
    std::string metricsPath; ///< Prometheus dump at shutdown
                             ///  (GANACC_METRICS)

    /// Buffer spans for live trace-drain probes even with no trace
    /// file configured (the daemon/router side of distributed
    /// tracing; see docs/observability.md "Distributed tracing").
    bool traceLive = false;

    /// Head-sampling rate for request traces, [0, 1]
    /// (GANACC_TRACE_SAMPLE; default keep everything).
    double traceSampleRate = 1.0;

    /// Tail-keep threshold: requests at or above this end-to-end
    /// latency keep their spans even when head sampling dropped the
    /// trace (GANACC_TRACE_TAIL_US; 0 = off).
    std::uint64_t traceTailUs = 0;

    bool
    any() const
    {
        return !tracePath.empty() || !metricsPath.empty() || traceLive;
    }
};

/**
 * The environment knobs, unset ones left at their defaults. A
 * sampling knob is taken only when the whole string parses and is in
 * range — GANACC_TRACE_SAMPLE a finite rate in [0, 1],
 * GANACC_TRACE_TAIL_US a non-negative integer — otherwise it warns
 * and keeps the default, as the matching ganacc-served flags refuse
 * such values.
 */
TelemetryConfig configFromEnv();

/** True between enableTelemetry() and shutdownTelemetry(). */
bool telemetryEnabled();

/**
 * Arm every telemetry stream named in `cfg`: the span trace sink and
 * the registry-filling cycle-walk probe (any stream arms it — the
 * counters feed both the metrics dump and the daemon's stats probe).
 * No-op when cfg.any() is false.
 */
void enableTelemetry(const TelemetryConfig &cfg);

/**
 * Flush and disarm: write the Chrome trace, dump the registry to the
 * metrics path, uninstall the probe.
 * Idempotent; a no-op when telemetry was never enabled.
 */
void shutdownTelemetry();

} // namespace obs
} // namespace ganacc

#endif // GANACC_OBS_TELEMETRY_HH
