/**
 * @file
 * Shared helpers for the reproduction benches: each bench binary
 * regenerates one table or figure of the paper and prints it in a
 * diffable plain-text format, leading with a header that names the
 * experiment (see DESIGN.md section 3 for the index).
 */

#ifndef GANACC_BENCH_BENCH_COMMON_HH
#define GANACC_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <iostream>
#include <string>

#include "core/cycle_cache.hh"
#include "obs/telemetry.hh"
#include "serve/result_store.hh"
#include "util/args.hh"
#include "util/table.hh"

namespace ganacc {
namespace bench {

/** Print the experiment banner. */
inline void
banner(const std::string &experiment, const std::string &paper_claim)
{
    std::cout << "==================================================="
                 "=====================\n";
    std::cout << "Reproduction: " << experiment << "\n";
    std::cout << "Paper claim:  " << paper_claim << "\n";
    std::cout << "==================================================="
                 "=====================\n";
}

/**
 * Standard cache wiring for a bench binary: registers --cache-dir
 * (falling back to GANACC_CACHE_DIR), attaches the persistent result
 * store under the process-wide CycleCache when a directory is given,
 * and prints the cache/store summary when the bench exits — so every
 * figure report ends with its hit/miss accounting (and a warm rerun
 * is visibly a stream of disk hits).
 *
 * Also the telemetry arming point for benches: --trace / GANACC_TRACE
 * / GANACC_METRICS turn the process-wide sinks on for the scope's
 * lifetime. All telemetry status goes through util::inform (stderr),
 * so the figure text on stdout stays byte-identical whether or not
 * tracing is enabled.
 */
class CacheScope
{
  public:
    explicit CacheScope(util::ArgParser &args)
        : disk_(args.getCacheDir())
    {
        obs::TelemetryConfig cfg = obs::configFromEnv();
        const std::string trace = args.getTracePath();
        if (!trace.empty())
            cfg.tracePath = trace;
        if (cfg.any())
            obs::enableTelemetry(cfg);
    }

    ~CacheScope()
    {
        obs::shutdownTelemetry();
        std::cout << "\n[" << core::CycleCache::instance().summary();
        if (disk_.attached())
            std::cout << "; " << disk_.store()->summary();
        std::cout << "]\n";
    }

    CacheScope(const CacheScope &) = delete;
    CacheScope &operator=(const CacheScope &) = delete;

  private:
    serve::ScopedDiskCache disk_;
};

} // namespace bench
} // namespace ganacc

#endif // GANACC_BENCH_BENCH_COMMON_HH
