/**
 * @file
 * The six computing phases of GAN training (Fig. 2 / Table I) and
 * their mapping onto streamed convolution jobs.
 *
 *   D-fwd  (D→)  S-CONV over dense images
 *   G-fwd  (G→)  T-CONV over zero-inserted noise-side maps
 *   D-bwd  (D←)  T-CONV over zero-inserted error maps
 *   G-bwd  (G←)  S-CONV over dense error maps
 *   D-wu   (Dw)  W-CONV with the stride-dilated error as kernel
 *   G-wu   (Gw)  W-CONV with zero-inserted inputs
 *
 * The paper groups these into the four phase families of Fig. 15
 * (D: D→/G←, G: G→/D←, Dw, Gw) because paired phases share the same
 * convolution pattern.
 */

#ifndef GANACC_SIM_PHASE_HH
#define GANACC_SIM_PHASE_HH

#include <string>
#include <vector>

#include "gan/models.hh"
#include "sim/conv_spec.hh"

namespace ganacc {
namespace sim {

/** One of the six computing phases. */
enum class Phase
{
    DiscForward,   ///< D→ : S-CONV
    GenForward,    ///< G→ : T-CONV
    DiscBackward,  ///< D← : T-CONV (error back through D)
    GenBackward,   ///< G← : S-CONV (error back through G)
    DiscWeight,    ///< Dw : W-CONV (zero-inserted kernel)
    GenWeight,     ///< Gw : W-CONV (zero-inserted input)
};

/** All six phases in schedule order. */
std::vector<Phase> allPhases();

/** Short display name, e.g. "D-fwd". */
std::string phaseName(Phase p);

/** The four comparison families of Fig. 15. */
enum class PhaseFamily
{
    D,  ///< S-CONV phases: D→ and G←
    G,  ///< T-CONV phases: G→ and D←
    Dw, ///< discriminator weight update
    Gw, ///< generator weight update
};

/** All four families in Fig. 15 order: D, G, Dw, Gw. */
std::vector<PhaseFamily> allPhaseFamilies();

std::string phaseFamilyName(PhaseFamily f);

/** Inverse of phaseFamilyName (exact spelling); fails with
 *  `unknown phase family "x" (D, G, Dw, Gw)` otherwise. */
PhaseFamily phaseFamilyFromName(const std::string &name);

/** Which family a phase belongs to. */
PhaseFamily familyOf(Phase p);

/**
 * Streamed convolution jobs (one per layer) that a phase executes for
 * a single sample of the given model. Backward phases skip the
 * first layer's data-error (no earlier layer consumes it).
 */
std::vector<ConvSpec> phaseJobs(const gan::GanModel &model, Phase p);

/** Convenience: jobs of every layer for one family's representative
 *  phase (used by the Fig. 15 per-phase comparison). */
std::vector<ConvSpec> familyJobs(const gan::GanModel &model,
                                 PhaseFamily f);

/** Total effective (non-zero) MACs across a set of jobs. */
std::uint64_t totalEffectiveMacs(const std::vector<ConvSpec> &jobs);

/** Total dense MACs across a set of jobs. */
std::uint64_t totalDenseMacs(const std::vector<ConvSpec> &jobs);

} // namespace sim
} // namespace ganacc

#endif // GANACC_SIM_PHASE_HH
