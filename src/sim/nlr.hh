/**
 * @file
 * NLR — the No-Local-Reuse architecture (Fig. 5(a), DianNao-style),
 * *improved* with zero skipping as the paper's evaluation grants it
 * ("we optimize the dataflow of NLR so that it can skip over zeros in
 * its input data and kernel weights", Section VI-A).
 *
 * P_if input lanes feed an adder tree per output channel; P_of output
 * channels run in parallel. Operands stream from the buffers every
 * cycle (no register reuse), so NLR matches the zero-free designs in
 * throughput on S-CONV/T-CONV but pays far more on-chip accesses
 * (Fig. 16) — and on W-CONV its adder tree is useless because
 * four-dimension outputs accumulate nothing across input maps, idling
 * P_of x (P_if - 1) multipliers (Section III-C1).
 */

#ifndef GANACC_SIM_NLR_HH
#define GANACC_SIM_NLR_HH

#include "sim/arch.hh"

namespace ganacc {
namespace sim {

/** Improved (zero-skipping) no-local-reuse array. */
class Nlr : public Architecture
{
  public:
    /** Whether structural zeros are skipped (the paper's "improved"
     *  NLR) or executed (the vanilla DianNao-style dataflow — kept as
     *  an ablation to show what the evaluation granted the baseline). */
    enum class ZeroPolicy
    {
        Skip,
        Execute,
    };

    // P_if x P_of lanes: each output position and tap in turn, its
    // input maps pIf a cycle through the adder tree, weights and inputs
    // read every cycle, partial sums read-modify-written in the buffer.
    // Address-generation zero skipping never schedules a structural-zero
    // tap (improved NLR); the vanilla dataflow burns its cycles.
    explicit Nlr(Unroll unroll, ZeroPolicy policy = ZeroPolicy::Skip)
        : Architecture(policy == ZeroPolicy::Skip ? "NLR" : "NLR-vanilla",
                       unroll,
                       Dataflow{.pOf = unroll.pOf,
                                .tiled = Space::Outputs,
                                .tileOnLanes = false,
                                .cLanes = unroll.pIf,
                                .walked = Space::Taps,
                                .skipZeros = policy == ZeroPolicy::Skip,
                                .weights = WeightReuse::PerCycle,
                                .inputs = InputReuse::Broadcast,
                                .psums = WindowKind::WriteThrough}) {}
};

} // namespace sim
} // namespace ganacc

#endif // GANACC_SIM_NLR_HH
