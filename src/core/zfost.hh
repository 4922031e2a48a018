/**
 * @file
 * ZFOST — Zero-Free Output-STationary microarchitecture (Fig. 11),
 * the paper's design for ST-ARCH (phases D→, G→, D←, G←).
 *
 * ZFOST is OST with zero-free scheduling (Fig. 12(b)) and the
 * parity-grouped weight feed (Fig. 12(a)); both are knobs of the
 * shared output-stationary descriptor of sim/output_stationary.hh,
 * which documents the two additions.
 */

#ifndef GANACC_CORE_ZFOST_HH
#define GANACC_CORE_ZFOST_HH

#include "sim/output_stationary.hh"

namespace ganacc {
namespace core {

/** The paper's zero-free output-stationary array. */
class Zfost : public sim::Architecture
{
  public:
    /** Weight feed order — the Fig. 12(a) design choice. */
    enum class WeightOrder
    {
        Reordered, ///< parity-grouped feed; register array shifts
        Raster,    ///< plain raster feed (ablation): zero skipping
                   ///< still works, but strided convolutions lose the
                   ///< register-array reuse and reload the input tile
                   ///< every cycle, like OST
    };

    explicit Zfost(sim::Unroll unroll,
                   WeightOrder order = WeightOrder::Reordered)
        : sim::Architecture(
              order == WeightOrder::Reordered ? "ZFOST" : "ZFOST-raster",
              unroll,
              sim::outputStationary(unroll, /*zero_free=*/true,
                                    order == WeightOrder::Reordered
                                        ? sim::InputReuse::Shift
                                        : sim::InputReuse::RasterShift))
    {}
};

} // namespace core
} // namespace ganacc

#endif // GANACC_CORE_ZFOST_HH
