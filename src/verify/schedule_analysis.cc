/**
 * @file
 * Static schedule-hazard analysis + dynamic shadow checker.
 *
 * Layout: the ShadowRecorder (a sim::ScheduleRecorder reconstructing
 * the concrete ScheduleRelation from a recorder-armed walk, with port
 * totals routed through mem::OnChipBuffer + mem::AccessTap), then the
 * per-dataflow symbolic relations, then the public checks.
 *
 * The symbolic relations are read off each dataflow's schedule model
 * (sim/closed_form), the same derivation the fast path and the static
 * bounds use; this file only reshapes it, dispatching through the
 * architecture itself (verify::staticModel).
 */

#include "verify/schedule_analysis.hh"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "mem/access_tap.hh"
#include "mem/onchip_buffer.hh"
#include "obs/metrics.hh"
#include "sim/cnv.hh"
#include "sim/rst.hh"
#include "sim/schedule_recorder.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "verify/static_bounds.hh"

namespace ganacc {
namespace verify {

using core::ArchKind;
using sim::ConvSpec;
using sim::RunStats;
using sim::Unroll;

namespace {

using u64 = std::uint64_t;

/** Location string for diagnostics. */
std::string
jobWhere(const std::string &arch, const ConvSpec &spec)
{
    return arch + " " + (spec.label.empty() ? spec.describe() : spec.label);
}

// ---------------------------------------------------------------------
// The shadow recorder.
// ---------------------------------------------------------------------

/** Counts the words an OnChipBuffer moved, through the tap path. */
class CountingTap final : public mem::AccessTap
{
  public:
    void
    onAccess(std::uint64_t bytes, bool is_write) override
    {
        (is_write ? written_ : read_) += bytes;
    }

    u64 readWords() const { return read_; }
    u64 writtenWords() const { return written_; }

  private:
    u64 read_ = 0;
    u64 written_ = 0;
};

/**
 * Reconstructs the concrete ScheduleRelation from recorder callbacks.
 * Port totals are deliberately not summed here: every onPort event is
 * replayed through an OnChipBuffer with an AccessTap armed, and the
 * relation reads the totals back from the taps — if any buffer access
 * path stopped firing its tap, the shadow totals would collapse and
 * the differential against the static model would catch it.
 */
class ShadowRecorder final : public sim::ScheduleRecorder
{
  public:
    ShadowRecorder()
        : weight_buf_("sched.weight",
                      std::numeric_limits<std::uint64_t>::max()),
          input_buf_("sched.input",
                     std::numeric_limits<std::uint64_t>::max()),
          output_buf_("sched.output",
                      std::numeric_limits<std::uint64_t>::max())
    {
        weight_buf_.setAccessTap(&weight_tap_);
        input_buf_.setAccessTap(&input_tap_);
        output_buf_.setAccessTap(&output_tap_);
    }

    void
    onJobBegin(int n_pes, const ConvSpec &) override
    {
        rel_ = ScheduleRelation{};
        n_pes_ = n_pes < 0 ? 0 : u64(n_pes);
        lane_stamp_.assign(std::size_t(n_pes_), 0);
        cycle_id_ = 0;
        cycle_open_ = false;
        cur_slots_ = 0;
        std::fill(std::begin(cur_port_), std::end(cur_port_), u64(0));
        cycle_writes_.clear();
        window_open_ = false;
    }

    void
    onCycle() override
    {
        finalizeCycle();
        cycle_open_ = true;
        ++cycle_id_;
        rel_.cycles += 1;
    }

    void
    onLanes(int base, int count) override
    {
        for (int lane = base; lane < base + count; ++lane) {
            if (lane < 0 || u64(lane) >= n_pes_) {
                rel_.slotConflicts += 1; // booked a nonexistent PE
                continue;
            }
            u64 &stamp = lane_stamp_[std::size_t(lane)];
            if (stamp == cycle_id_ && cycle_id_ != 0) {
                rel_.slotConflicts += 1; // double-booked this cycle
                continue;
            }
            stamp = cycle_id_;
            cur_slots_ += 1;
            rel_.scheduledSlots += 1;
        }
    }

    void
    onPort(sim::SchedPort port, u64 words) override
    {
        cur_port_[portIdx(port)] += words;
        // Route the traffic through the mem layer so the totals come
        // back via the AccessTap path.
        switch (port) {
          case sim::SchedPort::Weight:
            weight_buf_.read(words);
            break;
          case sim::SchedPort::Input:
            input_buf_.read(words);
            break;
          case sim::SchedPort::OutputRead:
            output_buf_.read(words);
            break;
          case sim::SchedPort::OutputWrite:
            output_buf_.write(words);
            break;
        }
    }

    void
    onWindowBegin(u64 cells, sim::WindowKind kind) override
    {
        GANACC_ASSERT(!window_open_,
                      "schedule windows must not nest within a job");
        window_open_ = true;
        window_kind_ = kind;
        window_cells_ = cells;
        if (kind != sim::WindowKind::WriteThrough)
            window_flags_.assign(std::size_t(cells), 0);
        cycle_writes_.clear();
        rel_.windows += 1;
    }

    void
    onCellWrite(u64 base, u64 count) override
    {
        const auto [b, c] = clampToWindow(base, count);
        // Same-cycle overlap with an earlier write is a WAW hazard.
        for (const auto &[eb, ec] : cycle_writes_) {
            const u64 lo = std::max(b, eb);
            const u64 hi = std::min(b + c, eb + ec);
            if (hi > lo)
                rel_.wawHazards += hi - lo;
        }
        if (c > 0)
            cycle_writes_.emplace_back(b, c);
        if (window_open_ && window_kind_ != sim::WindowKind::WriteThrough)
            for (u64 i = b; i < b + c; ++i)
                window_flags_[std::size_t(i)] |= kWritten;
    }

    void
    onCellRead(u64 base, u64 count) override
    {
        const auto [b, c] = clampToWindow(base, count);
        // Only non-zero-initialized buffers can read stale state.
        if (window_open_ && window_kind_ == sim::WindowKind::AccumBuffer)
            for (u64 i = b; i < b + c; ++i)
                if (!(window_flags_[std::size_t(i)] & kWritten))
                    rel_.rawHazards += 1;
    }

    void
    onDrain(u64 base, u64 count) override
    {
        const auto [b, c] = clampToWindow(base, count);
        rel_.cellsDrained += count;
        if (window_open_ && window_kind_ != sim::WindowKind::WriteThrough)
            for (u64 i = b; i < b + c; ++i)
                window_flags_[std::size_t(i)] |= kDrained;
    }

    void
    onWindowEnd() override
    {
        GANACC_ASSERT(window_open_, "window end without a begin");
        if (window_kind_ != sim::WindowKind::WriteThrough)
            for (std::uint8_t f : window_flags_)
                if ((f & kWritten) && !(f & kDrained))
                    rel_.undrainedWrites += 1;
        window_open_ = false;
        window_flags_.clear();
    }

    void
    onJobEnd() override
    {
        finalizeCycle();
    }

    /** The reconstructed relation (valid after onJobEnd). */
    ScheduleRelation
    relation() const
    {
        ScheduleRelation r = rel_;
        r.totalWeightLoads = weight_tap_.readWords();
        r.totalInputLoads = input_tap_.readWords();
        r.totalOutputReads = output_tap_.readWords();
        r.totalOutputWrites = output_tap_.writtenWords();
        return r;
    }

  private:
    static constexpr std::uint8_t kWritten = 1;
    static constexpr std::uint8_t kDrained = 2;

    static std::size_t
    portIdx(sim::SchedPort p)
    {
        return std::size_t(p);
    }

    /** Clamp a cell range to the open window, counting the cells that
     *  fall outside (or arrive with no window open) as OOB. */
    std::pair<u64, u64>
    clampToWindow(u64 base, u64 count)
    {
        if (!window_open_) {
            rel_.oobAccesses += count;
            return {0, 0};
        }
        if (base >= window_cells_) {
            rel_.oobAccesses += count;
            return {0, 0};
        }
        if (base + count > window_cells_) {
            rel_.oobAccesses += base + count - window_cells_;
            count = window_cells_ - base;
        }
        return {base, count};
    }

    void
    finalizeCycle()
    {
        if (!cycle_open_)
            return;
        rel_.peakSlots = std::max(rel_.peakSlots, cur_slots_);
        rel_.peakWeightLoads =
            std::max(rel_.peakWeightLoads,
                     cur_port_[portIdx(sim::SchedPort::Weight)]);
        rel_.peakInputLoads =
            std::max(rel_.peakInputLoads,
                     cur_port_[portIdx(sim::SchedPort::Input)]);
        rel_.peakOutputReads =
            std::max(rel_.peakOutputReads,
                     cur_port_[portIdx(sim::SchedPort::OutputRead)]);
        rel_.peakOutputWrites =
            std::max(rel_.peakOutputWrites,
                     cur_port_[portIdx(sim::SchedPort::OutputWrite)]);
        cycle_open_ = false;
        cur_slots_ = 0;
        std::fill(std::begin(cur_port_), std::end(cur_port_), u64(0));
        cycle_writes_.clear();
    }

    ScheduleRelation rel_;
    u64 n_pes_ = 0;
    std::vector<u64> lane_stamp_; ///< cycle id of each lane's booking
    u64 cycle_id_ = 0;
    bool cycle_open_ = false;
    u64 cur_slots_ = 0;
    u64 cur_port_[4] = {0, 0, 0, 0};
    std::vector<std::pair<u64, u64>> cycle_writes_;

    bool window_open_ = false;
    sim::WindowKind window_kind_ = sim::WindowKind::WriteThrough;
    u64 window_cells_ = 0;
    std::vector<std::uint8_t> window_flags_;

    mem::OnChipBuffer weight_buf_;
    mem::OnChipBuffer input_buf_;
    mem::OnChipBuffer output_buf_;
    CountingTap weight_tap_;
    CountingTap input_tap_;
    CountingTap output_tap_;
};

// ---------------------------------------------------------------------
// Symbolic relations.
// ---------------------------------------------------------------------

/** The relation a schedule model predicts; hazards are zero by
 *  derivation — the loop nests are analyzed, not simulated. */
ScheduleRelation
relationOf(const sim::ScheduleModel &m)
{
    ScheduleRelation r;
    r.cycles = m.stats.cycles;
    r.scheduledSlots = m.stats.effectiveMacs + m.stats.ineffectualMacs;
    r.peakSlots = m.peakSlots;
    r.peakWeightLoads = m.peakWeightLoads;
    r.peakInputLoads = m.peakInputLoads;
    r.peakOutputReads = m.peakOutputReads;
    r.peakOutputWrites = m.peakOutputWrites;
    r.totalWeightLoads = m.stats.weightLoads;
    r.totalInputLoads = m.stats.inputLoads;
    r.totalOutputReads = m.stats.outputReads;
    r.totalOutputWrites = m.stats.outputWrites;
    r.windows = m.windows;
    r.cellsDrained = m.cellsDrained;
    return r;
}

/** Append hazard findings for any non-zero hazard counter. Returns
 *  true when the relation is hazard-free. */
bool
reportHazards(const ScheduleRelation &r, const std::string &where,
              Report &report)
{
    if (r.slotConflicts > 0)
        report.error(codes::kSchedSlot, where,
                     std::to_string(r.slotConflicts) +
                         " PE-slot double-bookings in the schedule");
    if (r.wawHazards > 0)
        report.error(codes::kSchedWaw, where,
                     std::to_string(r.wawHazards) +
                         " same-cycle WAW cell writes in an "
                         "accumulation window");
    if (r.rawHazards > 0)
        report.error(codes::kSchedRaw, where,
                     std::to_string(r.rawHazards) +
                         " reads of partial-sum cells before the "
                         "producing pass wrote them");
    if (r.oobAccesses > 0)
        report.error(codes::kSchedOob, where,
                     std::to_string(r.oobAccesses) +
                         " register/buffer accesses outside the "
                         "planned working set");
    if (r.undrainedWrites > 0)
        report.error(codes::kSchedDrain, where,
                     std::to_string(r.undrainedWrites) +
                         " window cells written but never drained");
    return r.hazardFree();
}

} // namespace

// ---------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------

bool
ScheduleRelation::hazardFree() const
{
    return slotConflicts == 0 && wawHazards == 0 && rawHazards == 0 &&
           oobAccesses == 0 && undrainedWrites == 0;
}

std::string
ScheduleRelation::str() const
{
    std::ostringstream os;
    os << "cycles=" << cycles << " slots=" << scheduledSlots
       << " peakSlots=" << peakSlots << " peakW=" << peakWeightLoads
       << " peakI=" << peakInputLoads << " peakOr=" << peakOutputReads
       << " peakOw=" << peakOutputWrites << " totW=" << totalWeightLoads
       << " totI=" << totalInputLoads << " totOr=" << totalOutputReads
       << " totOw=" << totalOutputWrites << " windows=" << windows
       << " drained=" << cellsDrained << " conflicts=" << slotConflicts
       << " waw=" << wawHazards << " raw=" << rawHazards
       << " oob=" << oobAccesses << " undrained=" << undrainedWrites;
    return os.str();
}

ScheduleRelation
staticScheduleRelation(const sim::Architecture &arch, const ConvSpec &spec)
{
    return relationOf(staticModel(arch, spec));
}

ScheduleRelation
staticScheduleRelation(ArchKind kind, const Unroll &unroll,
                       const ConvSpec &spec)
{
    return staticScheduleRelation(*core::makeArch(kind, unroll), spec);
}

ScheduleRelation
recordedScheduleRelation(sim::Architecture &arch, const ConvSpec &spec,
                         bool functional, sim::RunStats *stats_out)
{
    ShadowRecorder rec;
    arch.setScheduleRecorder(&rec);
    RunStats st;
    if (functional) {
        util::Rng rng(0x5c4ed41ULL);
        tensor::Tensor in = sim::makeStreamedInput(spec, rng);
        tensor::Tensor w = sim::makeStreamedKernel(spec, rng);
        tensor::Tensor out = sim::makeOutputTensor(spec);
        st = arch.run(spec, &in, &w, &out);
    } else {
        st = arch.run(spec);
    }
    arch.setScheduleRecorder(nullptr);
    if (stats_out != nullptr)
        *stats_out = st;
    obs::Registry::instance()
        .counter("ganacc_sched_shadow_runs_total",
                 "recorder-armed shadow walks")
        .add(1);
    return rec.relation();
}

void
checkSchedule(ArchKind kind, const Unroll &unroll, const ConvSpec &spec,
              const PortBudget &budget, Report &report)
{
    const std::unique_ptr<sim::Architecture> arch =
        core::makeArch(kind, unroll);
    const u64 n_pes = u64(arch->numPes());
    const std::string where = jobWhere(arch->name(), spec);
    const sim::ScheduleModel model = staticModel(*arch, spec);
    const ScheduleRelation r = relationOf(model);

    // (a) PE-slot conflict-freedom: the peak booking fits the array
    // and the total booking fits the cycle budget.
    if (r.peakSlots > n_pes)
        report.error(codes::kSchedSlot, where,
                     "peak per-cycle PE booking " +
                         std::to_string(r.peakSlots) + " exceeds the " +
                         std::to_string(n_pes) + "-PE array");
    else if (r.cycles > 0 && r.scheduledSlots > r.cycles * n_pes)
        report.error(codes::kSchedSlot, where,
                     "scheduled slots " +
                         std::to_string(r.scheduledSlots) +
                         " exceed cycles*PEs " +
                         std::to_string(r.cycles * n_pes));

    // (b) register-array hazards: zero by derivation for the modeled
    // loop nests; any non-zero count is a broken schedule model.
    reportHazards(r, where, report);

    // (c) accesses in-bounds within the planned working set.
    if (model.maxWindowCells > model.windowCapacity)
        report.error(codes::kSchedOob, where,
                     "largest accumulation window (" +
                         std::to_string(model.maxWindowCells) +
                         " cells) exceeds the planned working set (" +
                         std::to_string(model.windowCapacity) +
                         " cells)");

    // (d) per-cycle port pressure within the budget (default: the
    // array width — one word per lane per port). The weight port is
    // double-buffered: resident-weight dataflows (WST/ZFWST) prefetch
    // the next pass's tile while the current pass computes, so on a
    // single-cycle pass both tiles cross the port in one cycle and
    // the default headroom is twice the array.
    struct PortCheck
    {
        const char *name;
        u64 peak;
        u64 cap;
    };
    const PortCheck ports[] = {
        {"weight", r.peakWeightLoads,
         budget.weight != 0 ? budget.weight : 2 * n_pes},
        {"input", r.peakInputLoads,
         budget.input != 0 ? budget.input : n_pes},
        {"output-read", r.peakOutputReads,
         budget.output != 0 ? budget.output : n_pes},
        {"output-write", r.peakOutputWrites,
         budget.output != 0 ? budget.output : n_pes},
    };
    for (const PortCheck &p : ports)
        if (p.peak > p.cap)
            report.error(codes::kSchedPort, where,
                         std::string(p.name) + " port needs " +
                             std::to_string(p.peak) +
                             " words/cycle at its peak, budget is " +
                             std::to_string(p.cap));
}

void
checkSchedule(ArchKind kind, const Unroll &unroll,
              const std::vector<ConvSpec> &jobs,
              const PortBudget &budget, Report &report)
{
    for (const ConvSpec &job : jobs)
        checkSchedule(kind, unroll, job, budget, report);
}

bool
checkScheduleAgainstShadow(ArchKind kind, const Unroll &unroll,
                           const ConvSpec &spec, Report &report)
{
    const std::unique_ptr<sim::Architecture> arch =
        core::makeArch(kind, unroll);
    const ScheduleRelation predicted = staticScheduleRelation(*arch, spec);
    const std::string where = jobWhere(arch->name(), spec);
    const ScheduleRelation recorded =
        recordedScheduleRelation(*arch, spec);
    bool ok = reportHazards(recorded, where, report);
    if (!(predicted == recorded)) {
        report.error(codes::kSchedDiverge, where,
                     "static schedule relation diverges from the "
                     "recorded walk: predicted {" +
                         predicted.str() + "} recorded {" +
                         recorded.str() + "}");
        ok = false;
    }
    return ok;
}

bool
checkBaselineSchedule(BaselineKind kind, const Unroll &unroll,
                      const ConvSpec &spec, Report &report)
{
    std::unique_ptr<sim::Architecture> arch;
    if (kind == BaselineKind::CNV)
        arch = std::make_unique<sim::Cnv>(unroll);
    else
        arch = std::make_unique<sim::Rst>(unroll);
    const std::string where = jobWhere(arch->name(), spec);
    report.note(codes::kSchedUnmodeled, where,
                baselineName(kind) +
                    " has no closed-form schedule model (" +
                    (kind == BaselineKind::CNV
                         ? "the schedule is value-dependent"
                         : "the walk is the only model") +
                    "); checked dynamically against the occupancy "
                    "envelope");
    RunStats st;
    const ScheduleRelation r = recordedScheduleRelation(
        *arch, spec, /*functional=*/kind == BaselineKind::CNV, &st);
    bool ok = reportHazards(r, where, report);
    const u64 n_pes = u64(arch->numPes());
    if (r.peakSlots > n_pes) {
        report.error(codes::kSchedSlot, where,
                     "recorded peak per-cycle booking " +
                         std::to_string(r.peakSlots) +
                         " exceeds the " + std::to_string(n_pes) +
                         "-PE array");
        ok = false;
    }
    if (r.cycles != st.cycles ||
        r.scheduledSlots != st.effectiveMacs + st.ineffectualMacs ||
        r.totalWeightLoads != st.weightLoads ||
        r.totalInputLoads != st.inputLoads ||
        r.totalOutputReads != st.outputReads ||
        r.totalOutputWrites != st.outputWrites) {
        report.error(codes::kSchedDiverge, where,
                     "recorded schedule relation disagrees with the "
                     "walk's RunStats: recorded {" +
                         r.str() + "} stats {" + st.str() + "}");
        ok = false;
    }
    return ok;
}

SchedulePrefilter::SchedulePrefilter(const gan::GanModel &model)
{
    for (sim::PhaseFamily f : sim::allPhaseFamilies())
        families_.push_back({f, sim::familyJobs(model, f)});
}

void
SchedulePrefilter::check(int w_pes, int st_pes, Report &report) const
{
    const PortBudget budget; // defaults: the array width
    for (const FamilyJobs &fam : families_) {
        checkSchedule(ArchKind::ZFOST,
                      core::paperUnroll(ArchKind::ZFOST,
                                        core::BankRole::ST, fam.family,
                                        st_pes),
                      fam.jobs, budget, report);
        checkSchedule(ArchKind::ZFWST,
                      core::paperUnroll(ArchKind::ZFWST,
                                        core::BankRole::W, fam.family,
                                        w_pes),
                      fam.jobs, budget, report);
    }
}

} // namespace verify
} // namespace ganacc
