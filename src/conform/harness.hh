/**
 * @file
 * The conformance harness: drive a live daemon and the reference
 * model in lockstep, diff every observable.
 *
 * The systems-under-test wrap the real transports — a Unix-domain
 *-socket daemon behind serve::Client, a pipe daemon behind real
 * pipe(2) descriptors, a loopback-TCP daemon, and a multi-shard TCP
 * fleet behind fleet::Router — all running in-process threads so the
 * harness can reach the fault seams, the caches and the obs
 * registry the daemons share. Operations are applied in lockstep
 * (every response of op N is read and checked before op N+1 is sent),
 * which is what makes every counter exactly predictable; a Restart op
 * emulates process death (drain, verify every accepted request was
 * answered, clear the memory tier, fresh engine and store session).
 *
 * A divergence is any disagreement between daemon and model:
 * response fields, exact RunStats, admissible cache tier, telemetry
 * counters at a probe, or store directory contents at the periodic
 * scan. Reports are deterministic — same sequence, same options, same
 * report — so a failing seed shrinks and replays faithfully.
 */

#ifndef GANACC_CONFORM_HARNESS_HH
#define GANACC_CONFORM_HARNESS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "conform/ops.hh"
#include "serve/result_store.hh"

namespace ganacc {
namespace conform {

/** Which transport the daemon side runs. */
enum class SutMode
{
    Unix, ///< AF_UNIX socket server + serve::Client
    Pipe, ///< pipe(2) pair through serve::runPipeServer
    Tcp,  ///< loopback TCP listener + serve::Client
};

std::string sutModeName(SutMode m);

/** Harness configuration. */
struct RunOptions
{
    SutMode mode = SutMode::Unix;
    /// Fleet width. 1 = a single daemon of `mode`. >= 2 = that many
    /// TCP shards with private caches behind a fleet::Router (RF=2,
    /// routing and replication modelled per shard; `mode` is
    /// ignored, FsFault ops are unsupported). A Restart op restarts
    /// one shard round-robin on its original address.
    int shards = 1;
    /// Scratch root for the store and the socket; wiped at run start
    /// and removed once the run returns or throws. Must be non-empty
    /// and short (AF_UNIX path limit).
    std::string scratchDir;
    /// Deliberate store bug to arm (harness self-test); None = clean.
    serve::StoreBug bug = serve::StoreBug::None;
    int maxDivergences = 8;         ///< stop the run after this many
    std::size_t storeCheckInterval = 64; ///< ops between store scans
    std::size_t maxQueue = 256;     ///< engine admission bound
};

/** One disagreement between the daemon and the reference model. */
struct Divergence
{
    std::size_t opIndex = 0; ///< index into the applied sequence
    std::string what;
};

/** The outcome of one conformance run. */
struct Report
{
    std::vector<Divergence> divergences;
    std::size_t opsApplied = 0;
    std::size_t linesSent = 0; ///< wire request lines

    bool
    clean() const
    {
        return divergences.empty();
    }

    /** Deterministic multi-line rendering (one line per divergence,
     *  plus a summary line). */
    std::string text() const;
};

/**
 * Apply `seq` to a fresh daemon of the requested mode and to a fresh
 * reference model, diffing after every operation. Resets process-wide
 * state it uses (CycleCache, fault budgets, store bug) on entry and
 * exit, so runs compose — the shrinker calls this in a loop.
 */
Report runConformance(const std::vector<Op> &seq,
                      const RunOptions &opt);

/** A default scratch directory under the system temp dir, unique per
 *  process (deterministic within one run of a tool or test). */
std::string defaultScratchDir();

} // namespace conform
} // namespace ganacc

#endif // GANACC_CONFORM_HARNESS_HH
