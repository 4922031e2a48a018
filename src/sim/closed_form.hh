/**
 * @file
 * The closed-form fast-path simulator engine.
 *
 * Every dataflow walk in this repository advances one cycle at a
 * time, even through long idle, drain and zero-skip stretches. But a
 * timing-only run is a pure function of (schedule, job geometry), and
 * each walk's counters are expressible as sums over *schedule
 * segments* — pass blocks, parity classes, kernel positions, resident
 * chunks — whose per-axis structure factorizes. The functions here
 * evaluate those sums directly: cost O(kernel area + parity classes)
 * per job instead of O(simulated cycles), which is what makes
 * LSUN-scale layers and 100x-larger DSE sweeps tractable.
 *
 * Each dataflow has exactly one such derivation, a ScheduleModel
 * function below, which walks the schedule's segments once and yields
 * both the RunStats totals (the fast path) and the per-cycle peaks and
 * accumulation windows verify/schedule_analysis proves hazards from.
 *
 * The cycle walks remain the golden reference. Each model is required
 * to match its walk *bit for bit*: tests/test_differential_fuzz.cc
 * enforces RunStats parity on a fuzzed corpus across all five
 * dataflows (plus the NLR-vanilla and ZFOST-raster ablations), and
 * tests/test_schedule_shadow.cc diffs the rest against a
 * recorder-armed walk.
 *
 * Engine selection: Architecture::run() consults simEngine() and uses
 * the fast path for timing-only, fault-free runs when the concrete
 * architecture provides a model (Architecture::scheduleModel).
 * Functional runs always walk — they produce real output data, which
 * no closed form can. Force the walk with GANACC_ENGINE=walk (or
 * `auto`, the default) or programmatically with setSimEngine().
 */

#ifndef GANACC_SIM_CLOSED_FORM_HH
#define GANACC_SIM_CLOSED_FORM_HH

#include <optional>
#include <string>

#include "sim/arch.hh"
#include "sim/conv_spec.hh"
#include "sim/stats.hh"

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
 * the loop nest without stepping a cycle. One derivation per dataflow
 * fills every field; the fast path reads `stats`, verify reads the
 * rest.
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
 * The models, one per dataflow, parameterized by the design knobs
 * that change the schedule. Each must match its cycle walk exactly:
 * the parity and schedule-shadow suites keep "exactly" honest. All
 * panic on the same malformed-spec preconditions the walks assert.
 */

/** NLR; `zero_skip` selects the paper's improved dataflow (true) or
 *  the vanilla DianNao-style ablation that executes structural zeros
 *  as wasted cycles (false). */
ScheduleModel nlrModel(const Unroll &u, const ConvSpec &s, bool zero_skip);

/** WST: resident kernel tile, one streamed input position per cycle. */
ScheduleModel wstModel(const Unroll &u, const ConvSpec &s);

/** The output-stationary family: a pinned output tile per pass.
 *  `zero_free` adds ZFOST's parity classes and kernel-zero filtering
 *  (Fig. 12(b)); `reordered_feed` selects the parity-grouped weight
 *  feed (Fig. 12(a)) over raster order, which reloads the input tile
 *  every cycle on strided jobs. OST is (false, false), ZFOST (true,
 *  true) and the ZFOST-raster ablation (true, false). */
ScheduleModel outputStationaryModel(const Unroll &u, const ConvSpec &s,
                                    bool zero_free, bool reordered_feed);

/** ZFWST: resident chunks of effective kernel elements, one output
 *  neuron per cycle through the adder tree. */
ScheduleModel zfwstModel(const Unroll &u, const ConvSpec &s);

} // namespace sim
} // namespace ganacc

#endif // GANACC_SIM_CLOSED_FORM_HH
