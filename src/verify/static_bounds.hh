/**
 * @file
 * Closed-form performance bounds.
 *
 * Every dataflow in the simulator walks its schedule cycle by cycle,
 * but each walk's counters are expressible in closed form: cycles,
 * PE-slot occupancy, and buffer accesses are sums over loop bounds
 * whose per-axis structure factorizes. staticRunStats() reads them
 * from the dataflow's schedule model (sim/closed_form.hh) — no
 * per-cycle loop over the output map — and is required to match the
 * cycle walk of makeArch(kind, unroll) *bit for bit*. A divergence on
 * any counter is, by construction, a bug in one of the two
 * derivations; the randomized property test in
 * tests/test_static_bounds.cc enforces the equivalence, and
 * checkBoundsAgainstSim() reports divergence as GA-BOUNDS-DIVERGE.
 *
 * The closed forms are what make the DSE pre-filter and the
 * GA-UNROLL-DIVIDE utilization figures cheap: deriving a design
 * point's bounds costs O(kernel area + parity classes), not
 * O(simulated cycles).
 */

#ifndef GANACC_VERIFY_STATIC_BOUNDS_HH
#define GANACC_VERIFY_STATIC_BOUNDS_HH

#include "core/unrolling.hh"
#include "sim/arch.hh"
#include "sim/closed_form.hh"
#include "sim/conv_spec.hh"
#include "sim/stats.hh"
#include "verify/diagnostics.hh"

namespace ganacc {
namespace verify {

/**
 * The symbolic schedule model of `arch` on `spec` — the one place the
 * verifier reaches a dataflow's derivation. Panics when the
 * architecture has no model (the CNV/RST baselines) and on the same
 * preconditions the simulator asserts (zero-free dataflows reject
 * stuffed inputs streamed with stride > 1) — run checkConvSpec first.
 */
sim::ScheduleModel staticModel(const sim::Architecture &arch,
                               const sim::ConvSpec &spec);

/**
 * The exact RunStats makeArch(kind, unroll)->run(spec) would return,
 * derived without simulating (default configurations: ZFOST reordered
 * weight feed, NLR zero skipping).
 */
sim::RunStats staticRunStats(core::ArchKind kind,
                             const sim::Unroll &unroll,
                             const sim::ConvSpec &spec);

/**
 * Cross-check a simulated run against the closed forms; every counter
 * that diverges gets a GA-BOUNDS-DIVERGE error naming both values.
 * Returns true when all counters agree.
 */
bool checkBoundsAgainstSim(core::ArchKind kind,
                           const sim::Unroll &unroll,
                           const sim::ConvSpec &spec,
                           const sim::RunStats &simulated,
                           Report &report);

} // namespace verify
} // namespace ganacc

#endif // GANACC_VERIFY_STATIC_BOUNDS_HH
