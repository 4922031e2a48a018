/**
 * @file
 * Static schedule-hazard analysis with a dynamic shadow checker.
 *
 * The closed forms of sim/closed_form prove the walks' *totals*; this
 * module proves their *schedules*. For each (arch kind, unroll, spec)
 * it derives, symbolically over the loop-nest structure and without
 * walking a single cycle, the ScheduleRelation: cycle count, total and
 * peak per-cycle PE-slot occupancy, peak per-cycle traffic on each
 * buffer port, the accumulation-window population, and the hazard
 * counters — which a well-formed schedule drives to zero:
 *
 *  - slot conflicts: two lanes booked on the same PE slot in a cycle,
 *    or a lane booked beyond the array;
 *  - WAW hazards: one register/buffer cell written twice in one cycle
 *    of an accumulation window;
 *  - RAW hazards: a non-zero-initialized partial-sum cell read before
 *    its producing pass has written it;
 *  - OOB accesses: window cells touched outside the planned extent;
 *  - undrained writes: window cells written but never drained.
 *
 * The shadow checker replays the same job through the cycle walk with
 * a sim::ScheduleRecorder armed, reconstructing the concrete relation
 * from what the hardware schedule actually does — and routing the
 * recorded port traffic through mem::OnChipBuffer instances with a
 * mem::AccessTap attached, so the relation's totals flow through the
 * same observation path the rest of the memory system uses. Static
 * and recorded relations must be bit-identical for the five paper
 * dataflows (GA-SCHED-DIVERGE otherwise); the CNV/RST baselines have
 * no closed-form schedule (value-dependent / left to the walk) and
 * are checked dynamically against a conservative envelope
 * (GA-SCHED-UNMODELED notes the gap).
 *
 * The totals, peaks and windows come from the same per-dataflow
 * schedule model (sim/closed_form.hh) the fast path reads, so one
 * derivation backs the fast path, the static bounds and this
 * relation.
 */

#ifndef GANACC_VERIFY_SCHEDULE_ANALYSIS_HH
#define GANACC_VERIFY_SCHEDULE_ANALYSIS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/unrolling.hh"
#include "sim/arch.hh"
#include "sim/conv_spec.hh"
#include "sim/phase.hh"
#include "verify/diagnostics.hh"
#include "verify/legality.hh"

namespace ganacc {
namespace verify {

/**
 * The access/occupancy relation of one job's schedule. Produced
 * symbolically by staticScheduleRelation and concretely by the
 * recorder-armed walk; the two must agree field for field.
 */
struct ScheduleRelation
{
    // Occupancy.
    std::uint64_t cycles = 0;
    std::uint64_t scheduledSlots = 0; ///< lane bookings over all cycles
    std::uint64_t peakSlots = 0;      ///< max lanes booked in one cycle

    // Peak per-cycle buffer-port traffic (words).
    std::uint64_t peakWeightLoads = 0;
    std::uint64_t peakInputLoads = 0;
    std::uint64_t peakOutputReads = 0;
    std::uint64_t peakOutputWrites = 0;

    // Port-traffic totals (words; equal to the RunStats counters).
    std::uint64_t totalWeightLoads = 0;
    std::uint64_t totalInputLoads = 0;
    std::uint64_t totalOutputReads = 0;
    std::uint64_t totalOutputWrites = 0;

    // Accumulation windows.
    std::uint64_t windows = 0;      ///< windows opened over the job
    std::uint64_t cellsDrained = 0; ///< cells covered by drain events

    // Hazards — zero for every well-formed schedule.
    std::uint64_t slotConflicts = 0;
    std::uint64_t wawHazards = 0;
    std::uint64_t rawHazards = 0;
    std::uint64_t oobAccesses = 0;
    std::uint64_t undrainedWrites = 0;

    bool operator==(const ScheduleRelation &) const = default;

    /** All five hazard counters are zero. */
    bool hazardFree() const;

    /** One-line rendering for diagnostics and test failures. */
    std::string str() const;
};

/** Per-cycle words each buffer port may move. Zero means "use the
 *  default": the PE-array width (one word per lane per port), twice
 *  that for the double-buffered weight port — which every paper
 *  schedule satisfies by construction. */
struct PortBudget
{
    std::uint64_t weight = 0;
    std::uint64_t input = 0;
    std::uint64_t output = 0; ///< applies to reads and writes each
};

/**
 * Predict the schedule relation symbolically from the architecture's
 * schedule model (sim/closed_form.hh): O(kernel area + parity
 * classes) per job, never walking cycles. Hazard counters are zero by
 * derivation — the loop nests are analyzed, not simulated. Works for
 * any configuration with a model, ablations included (NLR-vanilla,
 * ZFOST-raster). Panics on the CNV/RST baselines, which have none,
 * and on the malformed-spec preconditions the walks assert (run
 * checkConvSpec first).
 */
ScheduleRelation staticScheduleRelation(const sim::Architecture &arch,
                                        const sim::ConvSpec &spec);

/** The same for makeArch(kind, unroll): the canonical policies (NLR
 *  zero-skip, ZFOST reordered feed). */
ScheduleRelation staticScheduleRelation(core::ArchKind kind,
                                        const sim::Unroll &unroll,
                                        const sim::ConvSpec &spec);

/**
 * Record the concrete relation by walking the job with a recorder
 * armed (the arch's recorder pointer is set for the duration of the
 * run and restored to null). `arch` must not be shared with concurrent
 * runs. For CNV set `functional`: this helper builds the streamed
 * operand tensors itself. When `stats_out` is non-null the walk's
 * RunStats are copied there for envelope cross-checks.
 */
ScheduleRelation recordedScheduleRelation(sim::Architecture &arch,
                                          const sim::ConvSpec &spec,
                                          bool functional = false,
                                          sim::RunStats *stats_out =
                                              nullptr);

/**
 * Static schedule checks for one job, appending GA-SCHED-* findings:
 * GA-SCHED-SLOT when the peak booking exceeds the array (or a slot is
 * double-booked), GA-SCHED-WAW / -RAW / -DRAIN / -OOB for register-
 * array hazards, GA-SCHED-PORT when a port's peak exceeds the budget.
 */
void checkSchedule(core::ArchKind kind, const sim::Unroll &unroll,
                   const sim::ConvSpec &spec, const PortBudget &budget,
                   Report &report);

/** checkSchedule over a job set (one finding per offending job). */
void checkSchedule(core::ArchKind kind, const sim::Unroll &unroll,
                   const std::vector<sim::ConvSpec> &jobs,
                   const PortBudget &budget, Report &report);

/**
 * The differential contract: walk the job with the recorder armed and
 * diff the recorded relation against the static prediction. Appends
 * GA-SCHED-DIVERGE (error) on any field mismatch and the hazard codes
 * for any recorded hazard. Returns true when the relations agree and
 * the recorded schedule is hazard-free.
 */
bool checkScheduleAgainstShadow(core::ArchKind kind,
                                const sim::Unroll &unroll,
                                const sim::ConvSpec &spec,
                                Report &report);

/**
 * Dynamic-only check for the CNV/RST baselines: record the walk and
 * verify the relation is hazard-free and within the occupancy
 * envelope (peak slots <= array, slot totals match the RunStats
 * conservation classes). Appends a GA-SCHED-UNMODELED note for the
 * missing static model plus hazard codes for violations. Returns true
 * when the recorded schedule is clean.
 */
bool checkBaselineSchedule(BaselineKind kind, const sim::Unroll &unroll,
                           const sim::ConvSpec &spec, Report &report);

/**
 * Sweep-wide schedule pre-filter: built once per DSE sweep, applied
 * per point. Checks the ZFOST bank (ST role) and ZFWST bank (W role)
 * schedules of a candidate design point against every phase job of
 * the model with the default port budget.
 */
class SchedulePrefilter
{
  public:
    explicit SchedulePrefilter(const gan::GanModel &model);

    /** Appends GA-SCHED-* findings for an illegal point. `w_pes` and
     *  `st_pes` are the PE budgets of the two banks (pof x PEs per
     *  channel), fed to paperUnroll to recover each bank's shape. */
    void check(int w_pes, int st_pes, Report &report) const;

  private:
    struct FamilyJobs
    {
        sim::PhaseFamily family;
        std::vector<sim::ConvSpec> jobs;
    };
    std::vector<FamilyJobs> families_;
};

} // namespace verify
} // namespace ganacc

#endif // GANACC_VERIFY_SCHEDULE_ANALYSIS_HH
