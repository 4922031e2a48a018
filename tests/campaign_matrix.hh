/**
 * @file
 * The MNIST-GAN resilience campaign's matrix, as fault/campaign.cc
 * builds it: four Table V rows (a phase family on its PE bank, 16
 * jobs in all) times six columns at the paper unrolls, with the
 * campaign's default PE budgets. Suites that check the walks on the
 * campaign's own shapes share it from here.
 */

#ifndef GANACC_TESTS_CAMPAIGN_MATRIX_HH
#define GANACC_TESTS_CAMPAIGN_MATRIX_HH

#include <memory>
#include <vector>

#include "core/unrolling.hh"
#include "sim/arch.hh"
#include "sim/nlr.hh"
#include "sim/phase.hh"

namespace ganacc {
namespace tests {

/** One Table V row of the campaign. */
struct CampaignRow
{
    sim::PhaseFamily family;
    core::BankRole role;
    const char *name;
};

inline constexpr CampaignRow kCampaignRows[] = {
    {sim::PhaseFamily::D, core::BankRole::ST, "D/ST"},
    {sim::PhaseFamily::G, core::BankRole::ST, "G/ST"},
    {sim::PhaseFamily::Dw, core::BankRole::W, "Dw/W"},
    {sim::PhaseFamily::Gw, core::BankRole::W, "Gw/W"},
};

/** The row's six columns — NLR (zeros executed), NLR-skip, WST, OST,
 *  ZFOST, ZFWST — at the paper unrolls on the row's bank. */
inline std::vector<std::unique_ptr<sim::Architecture>>
campaignRowColumns(const CampaignRow &row)
{
    const int budget = row.role == core::BankRole::ST ? 1200 : 480;
    const auto unroll = [&](core::ArchKind kind) {
        return core::paperUnroll(kind, row.role, row.family, budget);
    };
    std::vector<std::unique_ptr<sim::Architecture>> v;
    v.push_back(std::make_unique<sim::Nlr>(unroll(core::ArchKind::NLR),
                                           sim::Nlr::ZeroPolicy::Execute));
    for (core::ArchKind kind :
         {core::ArchKind::NLR, core::ArchKind::WST, core::ArchKind::OST,
          core::ArchKind::ZFOST, core::ArchKind::ZFWST})
        v.push_back(core::makeArch(kind, unroll(kind)));
    return v;
}

} // namespace tests
} // namespace ganacc

#endif // GANACC_TESTS_CAMPAIGN_MATRIX_HH
