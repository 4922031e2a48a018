/**
 * @file
 * Unrolling strategies (Table V) and the strategy solver.
 *
 * The paper sizes two PE banks — ST-ARCH with 1200 PEs and W-ARCH
 * with 480 — and gives every architecture its best unrolling on each
 * bank so the Fig. 15 comparison is fair. This module encodes those
 * published configurations, scales them to arbitrary PE budgets for
 * the Fig. 18 sweep, and provides an exhaustive solver that rederives
 * Table V by minimizing simulated cycles.
 */

#ifndef GANACC_CORE_UNROLLING_HH
#define GANACC_CORE_UNROLLING_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/arch.hh"
#include "sim/conv_spec.hh"
#include "sim/phase.hh"

namespace ganacc {
namespace core {

/** The five evaluated microarchitectures. */
enum class ArchKind
{
    NLR,
    WST,
    OST,
    ZFOST,
    ZFWST,
};

/** All kinds in Table V order. */
std::vector<ArchKind> allArchKinds();

std::string archKindName(ArchKind k);

/** Inverse of archKindName (case-insensitive); nullopt if unknown. */
std::optional<ArchKind> archKindFromName(const std::string &name);

/** Which PE bank a comparison runs on. */
enum class BankRole
{
    ST, ///< the S-CONV/T-CONV bank (1200 PEs in the paper)
    W,  ///< the W-CONV bank (480 PEs)
};

/** The bank that runs a phase family in the paper's design (Table V):
 *  D and G on the ST bank, Dw and Gw on the W bank. */
BankRole bankOf(sim::PhaseFamily family);

/** The paper's PE count of a bank: 1200 for ST, 480 for W. */
int paperPes(BankRole role);

/** "ST" or "W". */
std::string bankRoleName(BankRole role);

/** Instantiate an architecture with a given unrolling. */
std::unique_ptr<sim::Architecture> makeArch(ArchKind kind,
                                            sim::Unroll unroll);

/**
 * The published Table V unrolling for (architecture, bank), scaled to
 * `pe_budget` PEs by adjusting the channel unrolling P_of while
 * keeping the per-channel shape. Some entries are phase-dependent
 * (ZFOST on W-CONV, ZFWST on ST phases); pass the family being run.
 */
sim::Unroll paperUnroll(ArchKind kind, BankRole role,
                        sim::PhaseFamily family, int pe_budget);

/** Result of the exhaustive strategy search. */
struct UnrollChoice
{
    sim::Unroll unroll;
    std::uint64_t cycles = 0;       ///< over the probe job set
    std::uint64_t accesses = 0;     ///< tie-breaker
    int pes = 0;                    ///< PEs actually used
};

/**
 * Exhaustively search per-channel shapes (kernel/output/input-map
 * unrollings up to `max_side`) under a PE budget, minimizing total
 * cycles over the probe jobs; ties break on on-chip accesses. This is
 * the procedure that regenerates Table V.
 */
UnrollChoice solveUnrolling(ArchKind kind, int pe_budget,
                            const std::vector<sim::ConvSpec> &jobs,
                            int max_side = 8);

} // namespace core
} // namespace ganacc

#endif // GANACC_CORE_UNROLLING_HH
