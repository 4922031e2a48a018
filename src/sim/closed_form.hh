/**
 * @file
 * The closed-form fast-path simulator engine.
 *
 * The one cycle walk, sim::walk(), visits each pass and step of a
 * dataflow descriptor (sim/walker.hh), but it adds its counts once per
 * pass, and a timing-only run is a pure function of (descriptor, job
 * geometry). Summed over passes, those counts factorize into per-axis
 * tallies of (tap, output) pairs and the two tile extents of each
 * axis. scheduleModel() evaluates the sums directly: cost
 * O(taps x outputs per axis) per job instead of O(simulated cycles),
 * which is what makes LSUN-scale layers and 100x-larger DSE sweeps
 * tractable.
 *
 * There is one derivation for every descriptor: the dataflow knobs
 * that change the schedule are the descriptor's fields, so an
 * architecture that states its Fig. 4 choice has its model too. It
 * yields both the RunStats totals (the fast path) and the per-cycle
 * peaks and accumulation windows verify/schedule_analysis proves
 * hazards from.
 *
 * The walk remains the golden reference, and the model must match it
 * *bit for bit*: tests/test_differential_fuzz.cc enforces RunStats
 * parity on a fuzzed corpus across all five dataflows (plus the
 * NLR-vanilla and ZFOST-raster ablations), and
 * tests/test_schedule_shadow.cc diffs the rest against a
 * recorder-armed walk.
 *
 * Engine selection: Architecture::run() consults simEngine() and uses
 * the fast path for timing-only, fault-free runs when the concrete
 * architecture has a descriptor (Architecture::scheduleModel).
 * Functional runs always walk — they produce real output data, which
 * no closed form can. Force the walk with GANACC_ENGINE=walk (or
 * `auto`, the default) or programmatically with setSimEngine().
 */

#ifndef GANACC_SIM_CLOSED_FORM_HH
#define GANACC_SIM_CLOSED_FORM_HH

#include <optional>
#include <string>

#include "sim/conv_spec.hh"
#include "sim/stats.hh"
#include "sim/walker.hh"

namespace ganacc {
namespace sim {

/** Which engine times a timing-only run. */
enum class SimEngine
{
    Auto, ///< fast path when the architecture has one (the default)
    Walk, ///< always the per-cycle walk (the golden reference)
};

/** The process-wide engine. First use reads GANACC_ENGINE
 *  (walk|auto); setSimEngine() overrides. Thread-safe. */
SimEngine simEngine();

/** Override the process-wide engine (tests, benches, tools). */
void setSimEngine(SimEngine engine);

std::string simEngineName(SimEngine engine);

/** Inverse of simEngineName (case-insensitive); nullopt if unknown. */
std::optional<SimEngine> simEngineFromName(const std::string &name);

/** True when run() would take the fast path for a timing-only run of
 *  this engine setting. */
bool fastPathEnabled();

/** RAII engine override for tests, benches and checkers: forces the
 *  given engine for its scope and restores the previous one. */
class ScopedSimEngine
{
  public:
    explicit ScopedSimEngine(SimEngine engine) : prev_(simEngine())
    {
        setSimEngine(engine);
    }
    ~ScopedSimEngine() { setSimEngine(prev_); }
    ScopedSimEngine(const ScopedSimEngine &) = delete;
    ScopedSimEngine &operator=(const ScopedSimEngine &) = delete;

  private:
    SimEngine prev_;
};

/**
 * The symbolic model of one job's schedule: what a timing-only walk of
 * the job counts (RunStats) and what a recorder-armed walk observes
 * (per-cycle port and slot peaks, accumulation windows) — derived from
 * the loop nest without stepping a cycle. scheduleModel() fills every
 * field; the fast path reads `stats`, verify reads the rest.
 */
struct ScheduleModel
{
    RunStats stats;

    std::uint64_t peakSlots = 0; ///< max lanes booked in one cycle
    std::uint64_t peakWeightLoads = 0; ///< max words in one cycle
    std::uint64_t peakInputLoads = 0;
    std::uint64_t peakOutputReads = 0;
    std::uint64_t peakOutputWrites = 0;

    std::uint64_t windows = 0;        ///< accumulation windows opened
    std::uint64_t cellsDrained = 0;   ///< cells covered by drain events
    std::uint64_t maxWindowCells = 0; ///< the largest window's cells
    std::uint64_t windowCapacity = 0; ///< cells available to hold it
};

/**
 * The model of a walk of `d` on `s`, over d.pes() PEs, equal to the
 * walk's by contract: the parity and schedule-shadow suites keep
 * "equal" honest. Panics on the malformed-spec preconditions the walk
 * asserts, and on a descriptor outside the combinations it derives
 * (see closed_form.cc); every architecture's descriptor is inside.
 */
ScheduleModel scheduleModel(const Dataflow &d, const ConvSpec &s);

} // namespace sim
} // namespace ganacc

#endif // GANACC_SIM_CLOSED_FORM_HH
