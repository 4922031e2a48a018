/**
 * @file
 * Tests for the core design layer: Table V unrollings and the
 * strategy solver, the Table III resource model, and the Fig. 14
 * accelerator facade.
 */

#include <gtest/gtest.h>

#include "core/accelerator.hh"
#include "core/resource_model.hh"
#include "core/unrolling.hh"
#include "gan/models.hh"
#include "sim/phase.hh"

namespace {

using namespace ganacc;
using core::ArchKind;
using core::BankRole;
using sim::PhaseFamily;

// ---------------------------------------------------------------------
// Table V unrollings
// ---------------------------------------------------------------------

TEST(Unrolling, PaperTable5EntriesAtPaperBudgets)
{
    // ST bank: 1200 PEs.
    auto nlr = core::paperUnroll(ArchKind::NLR, BankRole::ST,
                                 PhaseFamily::D, 1200);
    EXPECT_EQ(nlr.pIf, 16);
    EXPECT_EQ(nlr.pOf, 75);

    auto wst = core::paperUnroll(ArchKind::WST, BankRole::ST,
                                 PhaseFamily::D, 1200);
    EXPECT_EQ(wst.pKx, 5);
    EXPECT_EQ(wst.pOf, 48);

    auto ost = core::paperUnroll(ArchKind::OST, BankRole::ST,
                                 PhaseFamily::D, 1200);
    EXPECT_EQ(ost.pOx, 4);
    EXPECT_EQ(ost.pOf, 75);

    auto zfost = core::paperUnroll(ArchKind::ZFOST, BankRole::ST,
                                   PhaseFamily::G, 1200);
    EXPECT_EQ(zfost.pOx, 4);
    EXPECT_EQ(zfost.pOf, 75);

    // ZFWST on the ST bank is family-dependent (Table V last row).
    auto zfwst_d = core::paperUnroll(ArchKind::ZFWST, BankRole::ST,
                                     PhaseFamily::D, 1200);
    EXPECT_EQ(zfwst_d.pKx, 5);
    EXPECT_EQ(zfwst_d.pOf, 48);
    auto zfwst_g = core::paperUnroll(ArchKind::ZFWST, BankRole::ST,
                                     PhaseFamily::G, 1200);
    EXPECT_EQ(zfwst_g.pKx, 3);
    EXPECT_EQ(zfwst_g.pOf, 133);

    // W bank: 480 PEs.
    auto nlr_w = core::paperUnroll(ArchKind::NLR, BankRole::W,
                                   PhaseFamily::Dw, 480);
    EXPECT_EQ(nlr_w.pIf, 16);
    EXPECT_EQ(nlr_w.pOf, 30);
    auto ost_w = core::paperUnroll(ArchKind::OST, BankRole::W,
                                   PhaseFamily::Dw, 480);
    EXPECT_EQ(ost_w.pOx, 5);
    EXPECT_EQ(ost_w.pOf, 19);
    auto zfost_gw = core::paperUnroll(ArchKind::ZFOST, BankRole::W,
                                      PhaseFamily::Gw, 480);
    EXPECT_EQ(zfost_gw.pOx, 3);
    EXPECT_EQ(zfost_gw.pOf, 53);
    auto zfwst_w = core::paperUnroll(ArchKind::ZFWST, BankRole::W,
                                     PhaseFamily::Gw, 480);
    EXPECT_EQ(zfwst_w.pKx, 4);
    EXPECT_EQ(zfwst_w.pOf, 30);
}

TEST(Unrolling, BudgetScalingKeepsShape)
{
    auto half = core::paperUnroll(ArchKind::ZFOST, BankRole::ST,
                                  PhaseFamily::D, 600);
    EXPECT_EQ(half.pOx, 4);
    EXPECT_EQ(half.pOf, 37);
    auto tiny = core::paperUnroll(ArchKind::ZFOST, BankRole::ST,
                                  PhaseFamily::D, 8);
    EXPECT_GE(tiny.pOf, 1);
}

TEST(Unrolling, MakeArchProducesRightPeCounts)
{
    auto a = core::makeArch(ArchKind::ZFWST,
                            core::paperUnroll(ArchKind::ZFWST,
                                              BankRole::W,
                                              PhaseFamily::Dw, 480));
    EXPECT_EQ(a->numPes(), 480);
    EXPECT_EQ(a->name(), "ZFWST");
}

TEST(Unrolling, SolverFindsNoWorseThanPaperChoice)
{
    // On DCGAN's T-CONV family jobs with 1200 PEs, the exhaustive
    // solver must do at least as well as the published unrolling.
    gan::GanModel m = gan::makeDcgan();
    auto jobs = sim::familyJobs(m, PhaseFamily::G);
    auto choice = core::solveUnrolling(ArchKind::ZFOST, 1200, jobs, 6);

    auto paper_arch = core::makeArch(
        ArchKind::ZFOST,
        core::paperUnroll(ArchKind::ZFOST, BankRole::ST, PhaseFamily::G,
                          1200));
    std::uint64_t paper_cycles = 0;
    for (const auto &j : jobs)
        paper_cycles += paper_arch->run(j).cycles;
    EXPECT_LE(choice.cycles, paper_cycles);
    EXPECT_LE(choice.pes, 1200);
}

TEST(Unrolling, SolverRespectsBudget)
{
    gan::GanModel m = gan::makeMnistGan();
    auto jobs = sim::familyJobs(m, PhaseFamily::Dw);
    for (int budget : {64, 256, 480}) {
        auto c = core::solveUnrolling(ArchKind::ZFWST, budget, jobs, 6);
        EXPECT_LE(c.pes, budget);
        EXPECT_GT(c.cycles, 0u);
    }
}

TEST(Unrolling, ArchKindNamesRoundTrip)
{
    for (ArchKind k : core::allArchKinds())
        EXPECT_FALSE(core::archKindName(k).empty());
    EXPECT_EQ(core::allArchKinds().size(), 5u);
}

TEST(Unrolling, FamiliesRunOnTheirTable5Bank)
{
    EXPECT_EQ(core::bankOf(PhaseFamily::D), BankRole::ST);
    EXPECT_EQ(core::bankOf(PhaseFamily::G), BankRole::ST);
    EXPECT_EQ(core::bankOf(PhaseFamily::Dw), BankRole::W);
    EXPECT_EQ(core::bankOf(PhaseFamily::Gw), BankRole::W);
    EXPECT_EQ(core::bankRoleName(BankRole::ST), "ST");
    EXPECT_EQ(core::bankRoleName(BankRole::W), "W");
}

TEST(Unrolling, PaperPesAreTheEq7And8Split)
{
    // The bank sizes the accelerator derives from eqs. (7)-(8).
    const auto design = core::GanAccelerator{}.design();
    EXPECT_EQ(core::paperPes(BankRole::ST), design.stPes());
    EXPECT_EQ(core::paperPes(BankRole::W), design.wPes());
}

// ---------------------------------------------------------------------
// Resource model (Table III)
// ---------------------------------------------------------------------

TEST(ResourceModel, ReproducesTable3AtPaperDesignPoint)
{
    gan::GanModel m = gan::makeDcgan();
    auto plan = mem::planBuffers(m, 30, 2);
    auto r = core::estimateResources(1680, plan);
    // Table III: 254523 LUTs, 79668 FFs, 2008 BRAM, 1694 DSP.
    EXPECT_EQ(r.luts, 254523u);
    EXPECT_EQ(r.flipFlops, 79668u);
    EXPECT_EQ(r.dsp, 1694);
    EXPECT_NEAR(double(r.bram36), 2008.0, 0.15 * 2008);
    EXPECT_TRUE(core::fits(r, core::vcu9pBudget()));
}

TEST(ResourceModel, BudgetComparisons)
{
    auto budget = core::vcu9pBudget();
    core::FpgaResources small{1000, 1000, 10, 10};
    EXPECT_TRUE(core::fits(small, budget));
    core::FpgaResources too_many_dsp{1000, 1000, 10, 7000};
    EXPECT_FALSE(core::fits(too_many_dsp, budget));
    EXPECT_GT(core::worstUtilization(too_many_dsp, budget), 1.0);
}

TEST(ResourceModel, DspScalesWithPes)
{
    gan::GanModel m = gan::makeMnistGan();
    auto plan = mem::planBuffers(m, 30, 2);
    auto a = core::estimateResources(512, plan);
    auto b = core::estimateResources(1024, plan);
    EXPECT_EQ(b.dsp - a.dsp, 512);
    EXPECT_EQ(a.bram36, b.bram36); // buffers independent of PEs
}

// ---------------------------------------------------------------------
// Accelerator facade
// ---------------------------------------------------------------------

TEST(Accelerator, PaperConfiguration)
{
    core::GanAccelerator acc;
    EXPECT_EQ(acc.wPof(), 30);
    EXPECT_EQ(acc.stPof(), 75);
    EXPECT_EQ(acc.totalPes(), 1680);
    auto d = acc.design();
    EXPECT_TRUE(d.isCombo());
    EXPECT_EQ(d.stPes(), 1200);
    EXPECT_EQ(d.wPes(), 480);
    EXPECT_EQ(d.name(), "ZFOST-ZFWST");
}

TEST(Accelerator, EvaluatesAllModelsWithinDevice)
{
    core::GanAccelerator acc;
    for (const auto &m : gan::allModels()) {
        auto rep = acc.evaluate(m);
        EXPECT_TRUE(rep.fitsDevice) << m.name;
        EXPECT_GT(rep.gopsDeferred, 50.0) << m.name;
        EXPECT_LT(rep.gopsDeferred, 2.0 * 1680 * 0.2) << m.name;
        EXPECT_GT(rep.samplesPerSecond, 10.0) << m.name;
        // Deferred synchronization must help end to end.
        EXPECT_LT(rep.iterationCyclesDeferred, rep.iterationCyclesSync)
            << m.name;
    }
}

TEST(Accelerator, DeferredSpeedupIsSubstantial)
{
    // Fig. 17: the combination design gains most of the W-bank
    // overlap; sync/deferred ratio approaches (ST+W)/max(ST,W).
    core::GanAccelerator acc;
    auto rep = acc.evaluate(gan::makeDcgan());
    double ratio = double(rep.iterationCyclesSync) /
                   double(rep.iterationCyclesDeferred);
    EXPECT_GT(ratio, 1.5);
    EXPECT_LT(ratio, 2.0);
}

TEST(Accelerator, ScalesWithBandwidth)
{
    core::AcceleratorConfig cfg;
    cfg.offchip.bandwidthBitsPerSec = 96e9; // half the DDR4 channels
    core::GanAccelerator acc(cfg);
    EXPECT_EQ(acc.wPof(), 15);
    // ST_Pof = floor(2.5 * 15) = 37 -> (37 + 15) * 16 PEs.
    EXPECT_EQ(acc.totalPes(), 832);
    auto rep = acc.evaluate(gan::makeDcgan());
    core::GanAccelerator full;
    auto rep_full = full.evaluate(gan::makeDcgan());
    EXPECT_LT(rep.gopsDeferred, rep_full.gopsDeferred);
}

} // namespace
