/**
 * @file
 * Structural legality checks: the invariants the cycle-level simulator
 * *assumes* (and asserts deep inside the cycle walk), proven up front.
 *
 * Three layers of checking, from innermost to outermost:
 *
 *  - ConvSpec legality: field sanity, output-extent arithmetic, and
 *    zero-insert/stride consistency (a stuffed input streamed with
 *    stride > 1 is not a GAN pattern and panics ZFOST/ZFWST).
 *  - Network legality: per-layer shape arithmetic (S-CONV floor
 *    division, T-CONV output padding), layer-to-layer chaining, and
 *    the generator-output-matches-discriminator-input contract. When
 *    the graph is sound, every phase's streamed job is derived and
 *    spec-checked too.
 *  - Unrolling legality: factors relevant to the dataflow are
 *    positive, irrelevant ones are flagged, and non-dividing loop
 *    bounds are quantified (boundary tiles waste PE slots — the
 *    verifier reports the exact scheduled-slot utilization loss).
 *
 * Buffer-capacity checks compare a Fig. 14 buffer plan against both
 * the device Block-RAM budget and each phase's working set.
 *
 * All functions append diagnostics to a Report instead of panicking,
 * so an illegal design is rejected with a stable code before a single
 * simulated cycle is spent on it.
 */

#ifndef GANACC_VERIFY_LEGALITY_HH
#define GANACC_VERIFY_LEGALITY_HH

#include <vector>

#include "core/unrolling.hh"
#include "gan/models.hh"
#include "mem/onchip_buffer.hh"
#include "sim/arch.hh"
#include "sim/conv_spec.hh"
#include "verify/diagnostics.hh"

namespace ganacc {
namespace verify {

/** Check one streamed convolution job. Codes: GA-SPEC-*. */
void checkConvSpec(const sim::ConvSpec &spec, Report &report);

/**
 * Check a whole GAN model: layer shape arithmetic, chaining, the
 * generator/discriminator contract, and (when the graph is sound)
 * every phase's derived ConvSpec. Codes: GA-NET-*, GA-SPEC-*.
 */
void checkModel(const gan::GanModel &model, Report &report);

/**
 * Check an unrolling against a dataflow over a set of jobs:
 * positivity of the factors the dataflow reads (GA-UNROLL-POSITIVE,
 * error), factors it ignores (GA-UNROLL-UNUSED, warning), and
 * unrolling-divides-bounds legality per job (GA-UNROLL-DIVIDE, note,
 * with the scheduled-slot utilization; GA-UNROLL-WASTE, warning, when
 * boundary tiles idle more than half the scheduled slots). Which
 * factors the dataflow reads and which bounds they must divide are
 * read off its Fig. 4 descriptor (docs/static_analysis.md).
 */
void checkUnroll(core::ArchKind kind, const sim::Unroll &unroll,
                 const std::vector<sim::ConvSpec> &jobs, Report &report);

/** The extension baselines outside core::ArchKind (sim/cnv, sim/rst). */
enum class BaselineKind
{
    CNV, ///< Cnvlutin-style value-inspecting array (P_if x P_of)
    RST, ///< Eyeriss-style row-stationary array (P_ky x P_oy x P_of)
};

std::string baselineName(BaselineKind kind);

/**
 * checkUnroll for the extension baselines. Same codes
 * (GA-UNROLL-POSITIVE / -UNUSED / -DIVIDE), but the non-dividing note
 * carries no idle percentage: CNV's schedule is value-dependent by
 * construction (no closed form exists), and RST is left to its cycle
 * walk.
 */
void checkBaselineUnroll(BaselineKind kind, const sim::Unroll &unroll,
                         const std::vector<sim::ConvSpec> &jobs,
                         Report &report);

/**
 * Check each phase's working set against an explicit buffer plan:
 * every layer output must fit an In&Out half, every kernel set the
 * Weight buffer, the per-sample intermediate sets the Data and Error
 * buffers, and the W_Pof-wide ZFWST partial-gradient set the ∇W
 * halves. Code: GA-BUF-WORKSET.
 */
void checkBufferWorkingSets(const gan::GanModel &model,
                            const mem::BufferPlan &plan, int w_pof,
                            int bytes_per_elem, Report &report);

/** Check a buffer plan against a Block-RAM budget.
 *  Code: GA-BUF-CAPACITY. */
void checkBramBudget(const mem::BufferPlan &plan, int bram36_budget,
                     Report &report);

/**
 * Pre-filter one DSE frontier point without simulating it: degenerate
 * parallelism parameters (GA-DSE-POINT) and full network legality.
 * `model_report` is the cached result of checkModel on the swept
 * model, so a sweep validates the network once, not once per point.
 */
void checkDesignPoint(const Report &model_report, int w_pof, int st_pof,
                      int pes_per_channel, Report &report);

} // namespace verify
} // namespace ganacc

#endif // GANACC_VERIFY_LEGALITY_HH
