/**
 * @file
 * Unrolling strategy implementation.
 */

#include "core/unrolling.hh"

#include <algorithm>
#include <cctype>

#include "core/zfost.hh"
#include "core/zfwst.hh"
#include "sim/nlr.hh"
#include "sim/output_stationary.hh"
#include "sim/wst.hh"
#include "util/logging.hh"

namespace ganacc {
namespace core {

using sim::Architecture;
using sim::ConvSpec;
using sim::PhaseFamily;
using sim::Unroll;

std::vector<ArchKind>
allArchKinds()
{
    return {ArchKind::NLR, ArchKind::WST, ArchKind::OST, ArchKind::ZFOST,
            ArchKind::ZFWST};
}

std::string
archKindName(ArchKind k)
{
    switch (k) {
      case ArchKind::NLR:
        return "NLR";
      case ArchKind::WST:
        return "WST";
      case ArchKind::OST:
        return "OST";
      case ArchKind::ZFOST:
        return "ZFOST";
      case ArchKind::ZFWST:
        return "ZFWST";
    }
    util::panic("unknown arch kind");
}

std::optional<ArchKind>
archKindFromName(const std::string &name)
{
    std::string up;
    up.reserve(name.size());
    for (char c : name)
        up += char(std::toupper(static_cast<unsigned char>(c)));
    for (ArchKind k : allArchKinds())
        if (archKindName(k) == up)
            return k;
    return std::nullopt;
}

BankRole
bankOf(PhaseFamily family)
{
    return family == PhaseFamily::Dw || family == PhaseFamily::Gw
               ? BankRole::W
               : BankRole::ST;
}

int
paperPes(BankRole role)
{
    return role == BankRole::ST ? 1200 : 480;
}

std::string
bankRoleName(BankRole role)
{
    return role == BankRole::ST ? "ST" : "W";
}

std::unique_ptr<Architecture>
makeArch(ArchKind kind, Unroll unroll)
{
    switch (kind) {
      case ArchKind::NLR:
        return std::make_unique<sim::Nlr>(unroll);
      case ArchKind::WST:
        return std::make_unique<sim::Wst>(unroll);
      case ArchKind::OST:
        return std::make_unique<sim::Ost>(unroll);
      case ArchKind::ZFOST:
        return std::make_unique<Zfost>(unroll);
      case ArchKind::ZFWST:
        return std::make_unique<Zfwst>(unroll);
    }
    util::panic("unknown arch kind");
}

Unroll
paperUnroll(ArchKind kind, BankRole role, PhaseFamily family,
            int pe_budget)
{
    GANACC_ASSERT(pe_budget >= 1, "PE budget must be positive");
    Unroll u;
    switch (kind) {
      case ArchKind::NLR:
        u.pIf = 16;
        break;
      case ArchKind::WST:
        if (role == BankRole::ST) {
            u.pKx = u.pKy = 5;
        } else {
            u.pKx = u.pKy = 4;
        }
        break;
      case ArchKind::OST:
        if (role == BankRole::ST) {
            u.pOx = u.pOy = 4;
        } else {
            u.pOx = u.pOy = 5;
        }
        break;
      case ArchKind::ZFOST:
        if (role == BankRole::ST) {
            u.pOx = u.pOy = 4;
        } else if (family == PhaseFamily::Gw) {
            // Gw output tiles are the parity classes of the kernel
            // patch (3x3 for a 5x5 kernel).
            u.pOx = u.pOy = 3;
        } else {
            u.pOx = u.pOy = 5;
        }
        break;
      case ArchKind::ZFWST:
        if (role == BankRole::W) {
            u.pKx = u.pKy = 4;
        } else if (family == PhaseFamily::G) {
            // T-CONV parity classes need at most ceil(5/2)^2 = 3x3
            // resident weights.
            u.pKx = u.pKy = 3;
        } else {
            u.pKx = u.pKy = 5;
        }
        break;
    }
    // At P_of = 1 the PE count is the per-channel count.
    u.pOf = std::max(1, pe_budget / makeArch(kind, u)->numPes());
    return u;
}

UnrollChoice
solveUnrolling(ArchKind kind, int pe_budget,
               const std::vector<ConvSpec> &jobs, int max_side)
{
    GANACC_ASSERT(!jobs.empty(), "solver needs at least one probe job");
    std::vector<Unroll> candidates;
    auto add = [&](Unroll u) {
        int per_channel = makeArch(kind, u)->numPes(); // at P_of = 1
        if (per_channel > pe_budget)
            return;
        u.pOf = std::max(1, pe_budget / per_channel);
        candidates.push_back(u);
    };

    // The per-channel factors the dataflow reads: P_if alone, or a
    // tile's P_kx, P_ky or P_ox, P_oy (rows in the outer loop).
    const auto unit = makeArch(kind, Unroll{});
    std::vector<int Unroll::*> lanes;
    for (const sim::UnrollFactor &f : sim::unrollFactors(*unit->dataflow()))
        if (f.read && f.member != &Unroll::pOf)
            lanes.push_back(f.member);
    if (lanes.size() == 1) {
        for (int p : {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}) {
            Unroll u;
            u.*lanes[0] = p;
            add(u);
        }
    } else {
        for (int y = 1; y <= max_side; ++y)
            for (int x = 1; x <= max_side; ++x) {
                Unroll u;
                u.*lanes[1] = y;
                u.*lanes[0] = x;
                add(u);
            }
    }

    UnrollChoice best;
    bool have = false;
    for (const Unroll &u : candidates) {
        auto arch = makeArch(kind, u);
        std::uint64_t cycles = 0, accesses = 0;
        for (const ConvSpec &job : jobs) {
            sim::RunStats st = arch->run(job);
            cycles += st.cycles;
            accesses += st.totalAccesses();
        }
        bool better = !have || cycles < best.cycles ||
                      (cycles == best.cycles &&
                       accesses < best.accesses);
        if (better) {
            best.unroll = u;
            best.cycles = cycles;
            best.accesses = accesses;
            best.pes = arch->numPes();
            have = true;
        }
    }
    GANACC_ASSERT(have, "no feasible unrolling under budget ", pe_budget);
    return best;
}

} // namespace core
} // namespace ganacc
