/**
 * @file
 * Negative-path tests of the static verifier: every seeded-illegal
 * spec must be rejected with its documented stable code, every
 * bundled network must pass clean, and the DSE pre-filter must reject
 * points instead of letting the sweep panic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/dse.hh"
#include "core/unrolling.hh"
#include "gan/models.hh"
#include "mem/onchip_buffer.hh"
#include "sim/phase.hh"
#include "verify/diagnostics.hh"
#include "verify/legality.hh"
#include "verify/range_analysis.hh"
#include "verify/verifier.hh"

namespace {

using namespace ganacc;
using verify::Report;

/** A dense, legal 3x3 stride-1 job used as the mutation base. */
sim::ConvSpec
legalSpec()
{
    sim::ConvSpec s;
    s.label = "test job";
    s.nif = 2;
    s.nof = 6;
    s.ih = 8;
    s.iw = 8;
    s.kh = 3;
    s.kw = 3;
    s.oh = 6;
    s.ow = 6;
    return s;
}

// ---------------------------------------------------------------------
// ConvSpec legality (GA-SPEC-*)

TEST(ConvSpecLegality, LegalSpecIsClean)
{
    Report r;
    verify::checkConvSpec(legalSpec(), r);
    EXPECT_TRUE(r.empty()) << "unexpected diagnostics";
}

TEST(ConvSpecLegality, MalformedFieldsAreRejected)
{
    sim::ConvSpec s = legalSpec();
    s.oh = 0;
    Report r;
    verify::checkConvSpec(s, r);
    EXPECT_TRUE(r.has(verify::codes::kSpecField));
    EXPECT_FALSE(r.ok());
}

TEST(ConvSpecLegality, OutputExtentBeyondInputIsRejected)
{
    sim::ConvSpec s = legalSpec();
    s.oh = 9; // (9-1)*1 - 0 >= ih=8: last row reads past the input
    Report r;
    verify::checkConvSpec(s, r);
    EXPECT_TRUE(r.has(verify::codes::kSpecExtent));
    EXPECT_FALSE(r.ok());
}

TEST(ConvSpecLegality, StuffedInputWithStrideIsRejected)
{
    sim::ConvSpec s = legalSpec();
    s.inZeroStride = 2;
    s.inOrigH = 4;
    s.inOrigW = 4;
    s.stride = 2;
    s.oh = 3;
    s.ow = 3;
    Report r;
    verify::checkConvSpec(s, r);
    EXPECT_TRUE(r.has(verify::codes::kSpecZeroInsertStride));
    EXPECT_FALSE(r.ok());
}

TEST(ConvSpecLegality, StuffedGeometryMismatchIsRejected)
{
    sim::ConvSpec s = legalSpec();
    s.inZeroStride = 2;
    s.inOrigH = 4; // natural streamed size 7; 9 leaves 2 >= z extras
    s.inOrigW = 4;
    s.ih = 9;
    s.iw = 7;
    Report r;
    verify::checkConvSpec(s, r);
    EXPECT_TRUE(r.has(verify::codes::kSpecZeroInsertGeom));
    EXPECT_FALSE(r.ok());
}

TEST(ConvSpecLegality, DilatedKernelGeometryMismatchIsRejected)
{
    sim::ConvSpec s = legalSpec();
    s.kZeroStride = 2;
    s.kOrigH = 2; // natural dilated size 3; kh=6 leaves 3 >= z extras
    s.kOrigW = 2;
    s.kh = 6;
    s.kw = 3;
    s.oh = 3;
    s.ow = 6;
    Report r;
    verify::checkConvSpec(s, r);
    EXPECT_TRUE(r.has(verify::codes::kSpecKernelZeroGeom));
    EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------
// Network legality (GA-NET-*)

TEST(NetworkLegality, BundledNetworksAreClean)
{
    std::vector<gan::GanModel> models = gan::allModels();
    models.push_back(gan::makeContextEncoder());
    for (const gan::GanModel &m : models) {
        Report r;
        verify::checkModel(m, r);
        std::ostringstream os;
        r.renderText(os);
        EXPECT_TRUE(r.empty()) << m.name << ":\n" << os.str();
    }
}

TEST(NetworkLegality, EmptyModelIsRejected)
{
    gan::GanModel m;
    m.name = "Empty";
    Report r;
    verify::checkModel(m, r);
    EXPECT_TRUE(r.has(verify::codes::kNetEmpty));
    EXPECT_FALSE(r.ok());
}

TEST(NetworkLegality, MalformedLayerIsRejected)
{
    gan::GanModel m = gan::makeDcgan();
    m.disc[0].geom.kernel = 0;
    Report r;
    verify::checkModel(m, r);
    EXPECT_TRUE(r.has(verify::codes::kNetShape));
    EXPECT_FALSE(r.ok());
}

TEST(NetworkLegality, TconvOutPadAtLeastStrideIsRejected)
{
    gan::GanModel m = gan::makeDcgan();
    m.gen[0].geom.outPad = m.gen[0].geom.stride;
    Report r;
    verify::checkModel(m, r);
    EXPECT_TRUE(r.has(verify::codes::kNetShape));
    EXPECT_FALSE(r.ok());
}

TEST(NetworkLegality, BrokenChainIsRejected)
{
    gan::GanModel m = gan::makeDcgan();
    m.disc[1].inChannels += 1;
    Report r;
    verify::checkModel(m, r);
    EXPECT_TRUE(r.has(verify::codes::kNetChain));
    EXPECT_FALSE(r.ok());
    const verify::Diagnostic *d = r.find(verify::codes::kNetChain);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->where, "DCGAN disc L1"); // location is precise
}

TEST(NetworkLegality, GeneratorImageMismatchIsRejected)
{
    gan::GanModel m = gan::makeDcgan();
    m.gen.back().outChannels += 1;
    Report r;
    verify::checkModel(m, r);
    EXPECT_TRUE(r.has(verify::codes::kNetImage));
    EXPECT_FALSE(r.ok());
}

TEST(NetworkLegality, NonScalarHeadIsAWarningOnly)
{
    gan::GanModel m = gan::makeDcgan();
    m.disc.back().outChannels = 2;
    Report r;
    verify::checkModel(m, r);
    EXPECT_TRUE(r.has(verify::codes::kNetHead));
    EXPECT_TRUE(r.ok()) << "a non-scalar head is legal to simulate";
    EXPECT_GE(r.warningCount(), 1);
}

// ---------------------------------------------------------------------
// Unrolling legality (GA-UNROLL-*)

TEST(UnrollLegality, DividingUnrollIsClean)
{
    sim::Unroll u;
    u.pOy = 2;
    u.pOx = 2;
    u.pOf = 3; // divides oh=6, ow=6, nof=6
    Report r;
    verify::checkUnroll(core::ArchKind::OST, u, {legalSpec()}, r);
    EXPECT_TRUE(r.empty());
}

TEST(UnrollLegality, NonPositiveRelevantFactorIsRejected)
{
    sim::Unroll u;
    u.pOf = 0;
    Report r;
    verify::checkUnroll(core::ArchKind::OST, u, {legalSpec()}, r);
    EXPECT_TRUE(r.has(verify::codes::kUnrollPositive));
    EXPECT_FALSE(r.ok());
}

TEST(UnrollLegality, IrrelevantFactorIsAWarning)
{
    sim::Unroll u;
    u.pKx = 2; // OST never reads kernel unrollings
    Report r;
    verify::checkUnroll(core::ArchKind::OST, u, {legalSpec()}, r);
    EXPECT_TRUE(r.has(verify::codes::kUnrollUnused));
    EXPECT_TRUE(r.ok());
}

TEST(UnrollLegality, NonDividingBoundIsANoteWithIdleFigure)
{
    sim::Unroll u;
    u.pOy = 4; // oh=6 is not a multiple
    Report r;
    verify::checkUnroll(core::ArchKind::OST, u, {legalSpec()}, r);
    EXPECT_TRUE(r.has(verify::codes::kUnrollDivide));
    EXPECT_TRUE(r.ok());
    const verify::Diagnostic *d = r.find(verify::codes::kUnrollDivide);
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("idle"), std::string::npos);
}

TEST(UnrollLegality, MostlyIdleBoundaryTilesAreAWarning)
{
    sim::Unroll u;
    u.pOf = 64; // nof=6: 58 of 64 channel lanes idle every cycle
    Report r;
    verify::checkUnroll(core::ArchKind::OST, u, {legalSpec()}, r);
    EXPECT_TRUE(r.has(verify::codes::kUnrollWaste));
    EXPECT_GE(r.warningCount(), 1);
}

TEST(UnrollLegality, BaselineCnvChecksLaneAndChannelFactors)
{
    sim::Unroll u;
    u.pIf = 0;
    verify::Report r;
    verify::checkBaselineUnroll(verify::BaselineKind::CNV, u,
                                {legalSpec()}, r);
    EXPECT_TRUE(r.has(verify::codes::kUnrollPositive));
    EXPECT_FALSE(r.ok());

    u.pIf = 16; // nif=2 is not a multiple of 16 lanes
    u.pOy = 2;  // ignored by CNV
    verify::Report r2;
    verify::checkBaselineUnroll(verify::BaselineKind::CNV, u,
                                {legalSpec()}, r2);
    EXPECT_TRUE(r2.has(verify::codes::kUnrollDivide));
    EXPECT_TRUE(r2.has(verify::codes::kUnrollUnused));
    EXPECT_TRUE(r2.ok());
}

TEST(UnrollLegality, BaselineRstChecksRowGridFactors)
{
    sim::Unroll u;
    u.pKy = 4; // kh=3 rows cannot fill a 4-row grid
    u.pOy = 3;
    u.pOf = 3;
    verify::Report r;
    verify::checkBaselineUnroll(verify::BaselineKind::RST, u,
                                {legalSpec()}, r);
    EXPECT_TRUE(r.has(verify::codes::kUnrollDivide));
    EXPECT_TRUE(r.ok());

    u.pKy = 3; // 3x3 kernel rows, oh=6, nof=6: everything divides
    verify::Report r2;
    verify::checkBaselineUnroll(verify::BaselineKind::RST, u,
                                {legalSpec()}, r2);
    EXPECT_TRUE(r2.empty());
}

TEST(UnrollLegality, ZeroFreeClassWithoutTapsNeedsNoDivide)
{
    // T-CONV over a 3x3 map stuffed by 3 with a 2x2 kernel: the output
    // classes of offset 2 have 2 rows (cols) and stream no tap, so they
    // never reach the array; every class with taps is 3x3.
    sim::ConvSpec s;
    s.label = "stuffed job";
    s.nif = 4;
    s.nof = 2;
    s.ih = s.iw = 7;
    s.inZeroStride = 3;
    s.inOrigH = s.inOrigW = 3;
    s.kh = s.kw = 2;
    s.oh = s.ow = 8;
    s.pad = 1;
    Report clean;
    verify::checkConvSpec(s, clean);
    ASSERT_TRUE(clean.empty());

    sim::Unroll u;
    u.pOy = u.pOx = 3;
    u.pOf = 2;
    Report r;
    verify::checkUnroll(core::ArchKind::ZFOST, u, {s}, r);
    EXPECT_TRUE(r.empty()) << r.diagnostics().front().message;

    u.pOy = u.pOx = 2; // a 3x3 class with taps leaves a boundary tile
    Report r2;
    verify::checkUnroll(core::ArchKind::ZFOST, u, {s}, r2);
    const verify::Diagnostic *d = r2.find(verify::codes::kUnrollDivide);
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("class rows, class cols"), std::string::npos)
        << d->message;
}

TEST(UnrollLegality, NlrLanesNeedNotDivideNifOnFourDimOutputs)
{
    sim::Unroll u;
    u.pIf = 4; // nif=2 is not a multiple
    u.pOf = 3;
    sim::ConvSpec s = legalSpec();
    Report r;
    verify::checkUnroll(core::ArchKind::NLR, u, {s}, r);
    const verify::Diagnostic *d = r.find(verify::codes::kUnrollDivide);
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("does not divide nif;"), std::string::npos)
        << d->message;

    // 4-D outputs accumulate nothing across input maps, so no adder
    // tree sums them and nif is no bound of the lanes.
    s.fourDimOutput = true;
    Report r2;
    verify::checkUnroll(core::ArchKind::NLR, u, {s}, r2);
    EXPECT_FALSE(r2.has(verify::codes::kUnrollDivide));
}

TEST(UnrollLegality, ZfwstBoundIsTheClassKernelElementCount)
{
    // ZFWST tiles a class's kernel elements flat: 9 elements fill a 1x9
    // tile exactly, while WST's 2-D tile must divide kw.
    sim::Unroll u;
    u.pKy = 1;
    u.pKx = 9;
    u.pOf = 2;
    Report zfwst;
    verify::checkUnroll(core::ArchKind::ZFWST, u, {legalSpec()}, zfwst);
    EXPECT_TRUE(zfwst.empty());
    Report wst;
    verify::checkUnroll(core::ArchKind::WST, u, {legalSpec()}, wst);
    const verify::Diagnostic *d = wst.find(verify::codes::kUnrollDivide);
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("does not divide kw;"), std::string::npos)
        << d->message;

    u.pKy = u.pKx = 2; // 9 elements in tiles of 4
    Report r;
    verify::checkUnroll(core::ArchKind::ZFWST, u, {legalSpec()}, r);
    d = r.find(verify::codes::kUnrollDivide);
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("does not divide class kernel elems;"),
              std::string::npos)
        << d->message;
}

/** Per kind: the factors its dataflow ignores, in report order. */
class UnrollLegalityByKind : public ::testing::TestWithParam<core::ArchKind>
{
  protected:
    std::vector<std::string>
    unusedFactors() const
    {
        switch (GetParam()) {
          case core::ArchKind::NLR:
            return {"P_kx", "P_ky", "P_ox", "P_oy"};
          case core::ArchKind::WST:
          case core::ArchKind::ZFWST:
            return {"P_if", "P_ox", "P_oy"};
          case core::ArchKind::OST:
          case core::ArchKind::ZFOST:
            return {"P_if", "P_kx", "P_ky"};
        }
        return {};
    }
};

TEST_P(UnrollLegalityByKind, FlagsExactlyTheFactorsItIgnores)
{
    const sim::Unroll twos{.pIf = 2, .pOf = 2, .pKx = 2, .pKy = 2,
                           .pOx = 2, .pOy = 2};
    Report r;
    verify::checkUnroll(GetParam(), twos, {legalSpec()}, r);
    EXPECT_TRUE(r.ok());
    std::vector<std::string> flagged;
    for (const verify::Diagnostic &d : r.diagnostics())
        if (d.code == verify::codes::kUnrollUnused)
            flagged.push_back(d.message.substr(0, d.message.find(' ')));
    EXPECT_EQ(flagged, unusedFactors());
}

TEST_P(UnrollLegalityByKind, RejectsEveryNonPositiveFactorItReads)
{
    const std::vector<std::string> unused = unusedFactors();
    const std::vector<std::pair<const char *, int sim::Unroll::*>> all = {
        {"P_if", &sim::Unroll::pIf}, {"P_kx", &sim::Unroll::pKx},
        {"P_ky", &sim::Unroll::pKy}, {"P_ox", &sim::Unroll::pOx},
        {"P_oy", &sim::Unroll::pOy}, {"P_of", &sim::Unroll::pOf}};
    for (const auto &[name, member] : all) {
        sim::Unroll u;
        u.*member = 0;
        Report r;
        verify::checkUnroll(GetParam(), u, {legalSpec()}, r);
        const bool read = std::find(unused.begin(), unused.end(), name) ==
                          unused.end();
        EXPECT_EQ(r.has(verify::codes::kUnrollPositive), read) << name;
        EXPECT_EQ(r.has(verify::codes::kUnrollUnused), !read) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, UnrollLegalityByKind, ::testing::ValuesIn(core::allArchKinds()),
    [](const ::testing::TestParamInfo<core::ArchKind> &p) {
        return core::archKindName(p.param);
    });

// ---------------------------------------------------------------------
// Buffer capacity (GA-BUF-*)

TEST(BufferLegality, PlannedBuffersFitTheirWorkingSets)
{
    gan::GanModel dcgan = gan::makeDcgan();
    mem::BufferPlan plan = mem::planBuffers(dcgan, 30, 2);
    Report r;
    verify::checkBufferWorkingSets(dcgan, plan, 30, 2, r);
    EXPECT_TRUE(r.empty());
}

TEST(BufferLegality, UndersizedPlanIsRejected)
{
    gan::GanModel dcgan = gan::makeDcgan();
    mem::BufferPlan tiny; // all-zero capacities
    Report r;
    verify::checkBufferWorkingSets(dcgan, tiny, 30, 2, r);
    EXPECT_TRUE(r.has(verify::codes::kBufWorkset));
    EXPECT_FALSE(r.ok());
}

TEST(BufferLegality, BramBudgetOverflowIsRejected)
{
    gan::GanModel dcgan = gan::makeDcgan();
    mem::BufferPlan plan = mem::planBuffers(dcgan, 30, 2);
    Report r;
    verify::checkBramBudget(plan, 1, r);
    EXPECT_TRUE(r.has(verify::codes::kBufCapacity));
    EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------
// Fixed-point range analysis (GA-RANGE-*)

TEST(RangeAnalysis, RequiredIntBits)
{
    EXPECT_EQ(verify::requiredIntBits(0.5), 0);
    EXPECT_EQ(verify::requiredIntBits(1.5), 1);
    EXPECT_EQ(verify::requiredIntBits(100.0), 7);  // Q7.8 holds 127.996
    EXPECT_EQ(verify::requiredIntBits(200.0), 8);
    EXPECT_EQ(verify::requiredIntBits(1e6), -1);   // beyond 16 bits
}

TEST(RangeAnalysis, BundledNetworksPassUnderKaimingModel)
{
    std::vector<gan::GanModel> models = gan::allModels();
    models.push_back(gan::makeContextEncoder());
    for (const gan::GanModel &m : models) {
        Report r;
        verify::RangeAnalysis a =
            verify::analyzeRanges(m, verify::RangeOptions{}, r);
        std::ostringstream os;
        r.renderText(os);
        EXPECT_TRUE(r.empty()) << m.name << ":\n" << os.str();
        EXPECT_LE(a.worstPeak, a.maxRepresentable) << m.name;
    }
}

TEST(RangeAnalysis, WorstCaseIntervalModeFlagsDcganSaturation)
{
    verify::RangeOptions opts;
    opts.weights = verify::RangeOptions::WeightModel::FixedBound;
    Report r;
    verify::RangeAnalysis a =
        verify::analyzeRanges(gan::makeDcgan(), opts, r);
    // A 512-channel 5x5 layer with |w| <= 0.25 can accumulate far
    // past Q7.8: the sound worst-case bound must flag it.
    EXPECT_TRUE(r.has(verify::codes::kRangeSaturate));
    EXPECT_TRUE(r.has(verify::codes::kRangeWorstCase));
    EXPECT_FALSE(r.ok());
    EXPECT_GT(a.worstPeak, a.maxRepresentable);
    const verify::Diagnostic *d = r.find(verify::codes::kRangeSaturate);
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("Q"), std::string::npos)
        << "the diagnostic must name the containing Q format";
}

// ---------------------------------------------------------------------
// Composed pipelines

TEST(Verifier, BundledNetworksVerifyClean)
{
    std::vector<gan::GanModel> models = gan::allModels();
    models.push_back(gan::makeContextEncoder());
    for (const gan::GanModel &m : models) {
        Report r = verify::verifyModel(m);
        std::ostringstream os;
        r.renderText(os);
        EXPECT_TRUE(r.empty()) << m.name << ":\n" << os.str();
    }
}

TEST(Verifier, IllegalModelShortCircuitsBeforeRangeAnalysis)
{
    gan::GanModel m = gan::makeDcgan();
    m.disc[1].inChannels += 1;
    Report r = verify::verifyModel(m);
    EXPECT_TRUE(r.has(verify::codes::kNetChain));
    EXPECT_FALSE(r.has(verify::codes::kRangeSaturate));
    EXPECT_FALSE(r.has(verify::codes::kBufWorkset));
}

TEST(Verifier, PaperSchedulesVerifyLegal)
{
    gan::GanModel dcgan = gan::makeDcgan();
    for (core::ArchKind kind : core::allArchKinds()) {
        sim::Unroll u = core::paperUnroll(
            kind, core::BankRole::ST, sim::PhaseFamily::D, 1200);
        Report r = verify::verifySchedule(dcgan, kind, u);
        std::ostringstream os;
        r.renderText(os);
        EXPECT_TRUE(r.ok()) << core::archKindName(kind) << ":\n"
                            << os.str();
    }
}

// ---------------------------------------------------------------------
// DSE pre-filter (GA-DSE-POINT and the sweep wiring)

TEST(DsePrefilter, DegenerateParametersAreRejected)
{
    Report model_report; // a clean model
    Report r;
    verify::checkDesignPoint(model_report, 0, 75, 16, r);
    EXPECT_TRUE(r.has(verify::codes::kDsePoint));
    EXPECT_FALSE(r.ok());
}

TEST(DsePrefilter, IllegalModelRejectsEveryPointInsteadOfPanicking)
{
    gan::GanModel broken = gan::makeDcgan();
    broken.disc[1].inChannels += 1;

    core::DseConstraints cons;
    cons.budget = core::vcu9pBudget();
    cons.maxWPof = 5;
    ASSERT_TRUE(cons.verify) << "the pre-filter must be on by default";

    std::vector<core::DsePoint> serial =
        core::sweepFrontier(cons, broken);
    ASSERT_EQ(serial.size(), 5u);
    EXPECT_EQ(core::verifierRejectedCount(serial), 5);
    for (const core::DsePoint &p : serial) {
        EXPECT_TRUE(p.verifierRejected);
        EXPECT_EQ(p.verifierCode, verify::codes::kNetChain);
        EXPECT_FALSE(p.verifierMessage.empty());
        EXPECT_FALSE(p.feasible());
    }
    EXPECT_FALSE(core::bestFeasible(serial).has_value());

    // The parallel engine must agree point for point.
    std::vector<core::DsePoint> par =
        core::sweepFrontierParallel(cons, broken, 2);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < par.size(); ++i) {
        EXPECT_EQ(par[i].wPof, serial[i].wPof);
        EXPECT_EQ(par[i].verifierRejected, serial[i].verifierRejected);
        EXPECT_EQ(par[i].verifierCode, serial[i].verifierCode);
    }
}

TEST(DsePrefilter, LegalModelPassesTheFilterUntouched)
{
    core::DseConstraints cons;
    cons.budget = core::vcu9pBudget();
    cons.maxWPof = 3;
    std::vector<core::DsePoint> pts =
        core::sweepFrontier(cons, gan::makeDcgan());
    EXPECT_EQ(core::verifierRejectedCount(pts), 0);
    for (const core::DsePoint &p : pts)
        EXPECT_GT(p.iterationCycles, 0u) << "point was simulated";
}

// ---------------------------------------------------------------------
// Report rendering

TEST(Diagnostics, TextAndJsonRendering)
{
    Report r;
    r.error("GA-TEST", "spot \"here\"", "a \"quoted\" message");
    r.warning("GA-TEST-2", "there", "soft finding");
    r.note("GA-TEST-3", "there", "fyi");
    EXPECT_EQ(r.errorCount(), 1);
    EXPECT_EQ(r.warningCount(), 1);
    EXPECT_EQ(r.noteCount(), 1);
    EXPECT_FALSE(r.ok());

    std::ostringstream text;
    r.renderText(text);
    EXPECT_NE(text.str().find("error GA-TEST"), std::string::npos);

    std::ostringstream json;
    r.renderJson(json);
    EXPECT_NE(json.str().find("\"errors\":1"), std::string::npos);
    EXPECT_NE(json.str().find("\\\"quoted\\\""), std::string::npos)
        << "JSON strings must be escaped: " << json.str();
}

} // namespace
