/**
 * @file
 * Fault-injection subsystem tests: FaultPlan JSON parsing, the
 * no-fault bit-identity guarantee, the dense-lattice masking contract
 * (a transient on a slot the dataflow never issues is masked), the
 * analytically-predictable stuck-at-zero PE case, the storage-fault
 * primitives, the saturation stress vs the static range analysis, and
 * the headline resilience result: on the Table V matrix the zero-free
 * dataflows mask strictly more transient upsets than the baselines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign_matrix.hh"
#include "core/zfost.hh"
#include "core/zfwst.hh"
#include "fault/campaign.hh"
#include "fault/fault_plan.hh"
#include "fault/injector.hh"
#include "fault/mem_faults.hh"
#include "fuzz_specs.hh"
#include "gan/models.hh"
#include "mem/offchip.hh"
#include "mem/onchip_buffer.hh"
#include "sim/conv_spec.hh"
#include "sim/nlr.hh"
#include "sim/output_stationary.hh"
#include "sim/wst.hh"
#include "tensor/tensor.hh"
#include "util/fixed_point.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "verify/range_analysis.hh"

namespace {

using namespace ganacc;
using core::Zfost;
using core::Zfwst;
using sim::ConvSpec;
using sim::Nlr;
using sim::Ost;
using sim::Unroll;
using sim::Wst;
using tensor::Tensor;
using util::Rng;

/** Zero-stuffed T-CONV job: 3/4 of the dense lattice lands on
 *  structural zeros a zero-free dataflow never schedules. */
ConvSpec
stuffedSpec()
{
    ConvSpec s;
    s.label = "stuffed";
    s.nif = 2;
    s.nof = 2;
    s.inZeroStride = 2;
    s.inOrigH = s.inOrigW = 5;
    s.ih = s.iw = 9;
    s.kh = s.kw = 3;
    s.stride = 1;
    s.pad = 1;
    s.oh = s.ow = 9;
    return s;
}

/** The stuffed job with 11 output maps, and the NLR unrolling that
 *  runs it: the fuzz corpus draws at most 4 maps, so only this job lets
 *  a wide P_of reach the block rows' 8-wide chunk. */
struct WideJob
{
    ConvSpec spec;
    Unroll nlr;
};

WideJob
wideJob()
{
    ConvSpec s = stuffedSpec();
    s.nof = 11;
    return {s, Unroll{.pIf = 2, .pOf = 11}};
}

/** Same tiny GAN the determinism tests train (milliseconds/run). */
gan::GanModel
tinyModel()
{
    gan::LayerSpec l0;
    l0.kind = nn::ConvKind::Strided;
    l0.act = nn::Activation::LeakyReLU;
    l0.inChannels = 1;
    l0.outChannels = 4;
    l0.inH = l0.inW = 8;
    l0.geom = nn::Conv2dGeom{4, 2, 1, 0};

    gan::LayerSpec head;
    head.kind = nn::ConvKind::Strided;
    head.act = nn::Activation::None;
    head.inChannels = 4;
    head.outChannels = 1;
    head.inH = head.inW = 4;
    head.geom = nn::Conv2dGeom{4, 1, 0, 0};

    return gan::makeModel("tiny", {l0, head}, 8);
}

// ---------------------------------------------------------------------
// FaultPlan parsing
// ---------------------------------------------------------------------

TEST(FaultPlan, ParsesTheFullSchema)
{
    const fault::FaultPlan plan = fault::FaultPlan::parse(R"({
        "seed": 7,
        "pe": [ {"lane": 3, "kind": "stuck0"},
                {"lane": 9, "kind": "stuck", "value": 0.5} ],
        "transient": {"sitesPerJob": 256, "bits": 2},
        "memory": {"flipProbPerAccess": 1e-7, "bits": 1},
        "saturation": {"fracBits": 12}
    })");
    EXPECT_EQ(plan.seed, 7u);
    ASSERT_EQ(plan.peFaults.size(), 2u);
    EXPECT_EQ(plan.peFaults[0].lane, 3);
    EXPECT_EQ(plan.peFaults[0].kind, fault::PeFault::Kind::StuckAtZero);
    EXPECT_EQ(plan.peFaults[1].lane, 9);
    EXPECT_EQ(plan.peFaults[1].kind, fault::PeFault::Kind::StuckAtValue);
    EXPECT_FLOAT_EQ(plan.peFaults[1].value, 0.5f);
    EXPECT_EQ(plan.transient.sitesPerJob, 256);
    EXPECT_EQ(plan.transient.bits, 2);
    EXPECT_DOUBLE_EQ(plan.memory.flipProbPerAccess, 1e-7);
    EXPECT_EQ(plan.saturation.fracBits, 12);
    EXPECT_FALSE(plan.empty());
    EXPECT_FALSE(plan.describe().empty());
}

TEST(FaultPlan, DefaultPlanIsEmpty)
{
    const fault::FaultPlan plan;
    EXPECT_TRUE(plan.empty());
    const fault::FaultPlan parsed = fault::FaultPlan::parse("{}");
    EXPECT_TRUE(parsed.empty());
}

TEST(FaultPlan, RejectsMalformedInput)
{
    // Syntax errors.
    EXPECT_THROW(fault::FaultPlan::parse(""), util::FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("{"), util::FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("{} trailing"),
                 util::FatalError);
    EXPECT_THROW(fault::FaultPlan::parse(R"({"unknown": 1})"),
                 util::FatalError);
    // Validation errors.
    EXPECT_THROW(fault::FaultPlan::parse(R"({"pe": [{"lane": -1}]})"),
                 util::FatalError);
    EXPECT_THROW(
        fault::FaultPlan::parse(R"({"transient": {"bits": 0}})"),
        util::FatalError);
    EXPECT_THROW(fault::FaultPlan::parse(
                     R"({"memory": {"flipProbPerAccess": 2.0}})"),
                 util::FatalError);
    EXPECT_THROW(
        fault::FaultPlan::parse(R"({"saturation": {"fracBits": 16}})"),
        util::FatalError);
    EXPECT_THROW(fault::FaultPlan::fromFile("/nonexistent/plan.json"),
                 util::FatalError);
}

// ---------------------------------------------------------------------
// The hook contract
// ---------------------------------------------------------------------

TEST(FaultInjector, EmptyPlanLeavesOutputsBitIdentical)
{
    const ConvSpec s = stuffedSpec();
    Rng rng(11);
    const Tensor in = sim::makeStreamedInput(s, rng);
    const Tensor w = sim::makeStreamedKernel(s, rng);
    Zfost zfost(Unroll{.pOf = 2, .pOx = 3, .pOy = 3});

    Tensor bare = sim::makeOutputTensor(s);
    zfost.run(s, &in, &w, &bare);

    fault::FaultInjector injector((fault::FaultPlan()));
    EXPECT_FALSE(injector.visitIneffectual());
    injector.beginJob(s, 0);
    zfost.setFaultHook(&injector);
    Tensor hooked = sim::makeOutputTensor(s);
    zfost.run(s, &in, &w, &hooked);
    zfost.setFaultHook(nullptr);

    EXPECT_EQ(0, std::memcmp(bare.data(), hooked.data(),
                             bare.numel() * sizeof(float)));
    EXPECT_EQ(injector.counters().armed, 0u);
    EXPECT_EQ(injector.counters().fired, 0u);
    EXPECT_GT(injector.counters().macsObserved, 0u);
}

TEST(FaultInjector, NeverIssuedSlotIsMasked)
{
    // The same plan armed on the same (seed, job) lattice: OST
    // physically schedules every dense-lattice multiply, so every
    // armed upset fires; ZFOST never issues the stuffing zeros, so the
    // upsets landing there stay masked.
    const ConvSpec s = stuffedSpec();
    Rng rng(12);
    const Tensor in = sim::makeStreamedInput(s, rng);
    const Tensor w = sim::makeStreamedKernel(s, rng);

    fault::FaultPlan plan;
    plan.seed = 5;
    plan.transient.sitesPerJob = 64;

    fault::FaultInjector on_ost(plan);
    on_ost.beginJob(s, 3);
    Ost ost(Unroll{.pOf = 2, .pOx = 3, .pOy = 3});
    ost.setFaultHook(&on_ost);
    Tensor out = sim::makeOutputTensor(s);
    ost.run(s, &in, &w, &out);

    fault::FaultInjector on_zfost(plan);
    on_zfost.beginJob(s, 3);
    Zfost zfost(Unroll{.pOf = 2, .pOx = 3, .pOy = 3});
    zfost.setFaultHook(&on_zfost);
    Tensor out2 = sim::makeOutputTensor(s);
    zfost.run(s, &in, &w, &out2);

    // Identical arming is the precondition of the comparison.
    EXPECT_EQ(on_ost.counters().armed, 64u);
    EXPECT_EQ(on_zfost.counters().armed, 64u);
    // OST samples every site; ZFOST leaves the structural-zero ones
    // unobserved (~3/4 of this job's lattice is stuffing).
    EXPECT_EQ(on_ost.counters().masked(), 0u);
    EXPECT_GT(on_zfost.counters().masked(), 0u);
    EXPECT_LT(on_zfost.counters().fired, on_zfost.counters().armed);
}

TEST(FaultInjector, StuckAtZeroPeMatchesAnalyticRmse)
{
    // 1x1 kernel, all-ones operands, 4x4 output on a 2x2x1 ZFOST
    // tile: physical lane 0 owns exactly the outputs with even row
    // and even column — 4 of the 16 — and each output is the single
    // product 1*1. Wiring lane 0 to zero must therefore zero exactly
    // those four outputs: RMSE = sqrt(4/16) = 0.5.
    ConvSpec s;
    s.label = "unit";
    s.nif = 1;
    s.nof = 1;
    s.ih = s.iw = 4;
    s.kh = s.kw = 1;
    s.stride = 1;
    s.pad = 0;
    s.oh = s.ow = 4;

    Tensor in(tensor::Shape4(1, 1, 4, 4), 1.0f);
    Tensor w(tensor::Shape4(1, 1, 1, 1), 1.0f);
    const Tensor ref = sim::genericConvRef(s, in, w);

    fault::FaultPlan plan;
    fault::PeFault pe;
    pe.lane = 0;
    pe.kind = fault::PeFault::Kind::StuckAtZero;
    plan.peFaults.push_back(pe);

    fault::FaultInjector injector(plan);
    injector.beginJob(s, 0);
    Zfost zfost(Unroll{.pOf = 1, .pOx = 2, .pOy = 2});
    zfost.setFaultHook(&injector);
    Tensor out = sim::makeOutputTensor(s);
    zfost.run(s, &in, &w, &out);

    EXPECT_NEAR(fault::rmse(out, ref), 0.5, 1e-6);
    EXPECT_EQ(injector.counters().peHits, 4u);
    int zeroed = 0;
    for (int oy = 0; oy < 4; ++oy)
        for (int ox = 0; ox < 4; ++ox)
            if (out.ref(0, 0, oy, ox) == 0.0f) {
                EXPECT_EQ(oy % 2, 0) << oy << "," << ox;
                EXPECT_EQ(ox % 2, 0) << oy << "," << ox;
                ++zeroed;
            }
    EXPECT_EQ(zeroed, 4);
}

/** A spec whose only role is its dense lattice: nof*nif*oh*ow*kh*kw. */
ConvSpec
latticeSpec(int nof, int nif, int oh, int ow, int kh, int kw)
{
    ConvSpec s;
    s.label = "lattice";
    s.nof = nof;
    s.nif = nif;
    s.oh = oh;
    s.ow = ow;
    s.kh = kh;
    s.kw = kw;
    s.ih = oh + kh - 1;
    s.iw = ow + kw - 1;
    return s;
}

/**
 * Call onMac once at every dense lattice point, in row-major order,
 * with unit operands; return the lattice indices whose product is not
 * 1 — the sites the injector fired on.
 */
std::vector<std::uint64_t>
firedLatticePoints(fault::FaultInjector &injector, const ConvSpec &s)
{
    std::vector<std::uint64_t> fired;
    std::uint64_t index = 0;
    sim::MacContext ctx;
    for (ctx.of = 0; ctx.of < s.nof; ++ctx.of)
        for (ctx.c = 0; ctx.c < s.nif; ++ctx.c)
            for (ctx.oy = 0; ctx.oy < s.oh; ++ctx.oy)
                for (ctx.ox = 0; ctx.ox < s.ow; ++ctx.ox)
                    for (ctx.ky = 0; ctx.ky < s.kh; ++ctx.ky)
                        for (ctx.kx = 0; ctx.kx < s.kw; ++ctx.kx) {
                            if (injector.onMac(ctx, 1.0f, 1.0f) != 1.0f)
                                fired.push_back(index);
                            ++index;
                        }
    return fired;
}

/**
 * Expect the injector's row filter to mark exactly the buckets that
 * hold one of `sites` (lattice indices) and nothing else: a bit left
 * over from an earlier job would send a quiet row through onMac. Its
 * list of sites must be exactly the sites as (row, of), ascending: a
 * missing one would let a walk multiply an armed lane itself, or
 * settle a cycle that holds an armed site.
 */
void
expectRowBitsExactly(const fault::FaultInjector &injector,
                     const ConvSpec &s,
                     const std::vector<std::uint64_t> &sites)
{
    const sim::MacRowFilter *filter = injector.rowFilter();
    ASSERT_NE(filter, nullptr);
    // Operand rows: the lattice points without `of`.
    const std::uint64_t rows =
        std::uint64_t(s.nif) * s.oh * s.ow * s.kh * s.kw;
    const std::uint64_t buckets = filter->mask + 1;
    EXPECT_EQ(buckets, std::uint64_t(1) << 18);

    std::set<std::uint64_t> want;
    for (const std::uint64_t site : sites)
        want.insert((site % rows) & filter->mask);
    std::size_t set_bits = 0;
    for (std::uint64_t i = 0; i < buckets / 64; ++i)
        set_bits += std::bitset<64>(filter->bits[i]).count();
    EXPECT_EQ(set_bits, want.size()) << rows;
    for (const std::uint64_t b : want)
        EXPECT_NE(filter->bits[b >> 6] >> (b & 63) & 1, 0u) << rows;

    using Lane = std::pair<std::uint64_t, int>;
    std::set<Lane> want_sites;
    for (const std::uint64_t site : sites)
        want_sites.insert({site % rows, int(site / rows)});
    ASSERT_NE(filter->sites, nullptr);
    std::vector<Lane> got_sites;
    for (const sim::MacSite &lane : *filter->sites)
        got_sites.push_back({lane.row, lane.of});
    EXPECT_EQ(got_sites, std::vector<Lane>(want_sites.begin(),
                                           want_sites.end()))
        << rows;
}

TEST(FaultInjector, PrefilterFiresExactlyTheArmedSites)
{
    // Row lattices below one bitmap word, below and at the 2^18
    // buckets (one row per bucket), and past them (rows share buckets,
    // non-power-of-two and power-of-two counts), then a job with
    // nothing to arm (no `of`, so an empty dense lattice).
    // One injector walks them all, so each job also re-arms over the
    // previous job's rows.
    const ConvSpec specs[] = {
        latticeSpec(1, 1, 2, 2, 3, 3),      // 36 rows
        latticeSpec(4, 4, 16, 16, 8, 8),    // 2^16 rows
        latticeSpec(5, 1, 1, 1, 1, 52429),  // 52,429 rows
        latticeSpec(7, 9, 33, 35, 5, 3),    // 155,925 rows
        latticeSpec(16, 16, 32, 32, 4, 4),  // 2^18 rows
        latticeSpec(2, 5, 63, 64, 4, 4),    // 322,560 rows
        latticeSpec(3, 16, 32, 32, 8, 8),   // 2^20 rows
        latticeSpec(0, 16, 32, 32, 8, 8),   // nothing armed
        latticeSpec(1, 1, 2, 2, 3, 3),
    };
    fault::FaultPlan plan;
    plan.seed = 17;
    plan.transient.sitesPerJob = 256;
    fault::FaultInjector injector(plan);
    EXPECT_EQ(injector.rowFilter(), nullptr);

    std::uint64_t job = 0;
    for (const ConvSpec &s : specs) {
        const fault::FaultInjector::Counters before = injector.counters();
        injector.beginJob(s, job++);
        const std::vector<std::uint64_t> fired =
            firedLatticePoints(injector, s);
        const fault::FaultInjector::Counters &after = injector.counters();

        const std::uint64_t armed = after.armed - before.armed;
        EXPECT_EQ(armed, std::min<std::uint64_t>(256, s.denseMacs()))
            << s.denseMacs();
        EXPECT_EQ(after.fired - before.fired, armed) << s.denseMacs();
        EXPECT_EQ(fired.size(), armed) << s.denseMacs();
        EXPECT_EQ(after.macsObserved - before.macsObserved,
                  s.denseMacs());
        // Every armed site fired, so `fired` is the armed set.
        expectRowBitsExactly(injector, s, fired);
        if (armed == 0) {
            EXPECT_TRUE(injector.rowFilter()->sites->empty());
        }
    }
}

TEST(FaultInjector, ArmsLargeSiteCountsInTheDrawOrder)
{
    const ConvSpec s = latticeSpec(16, 16, 32, 32, 4, 4); // 2^22
    fault::FaultPlan plan;
    plan.seed = 23;

    // A large count arms in well under a second and fires every site.
    plan.transient.sitesPerJob = 100000;
    fault::FaultInjector large(plan);
    large.beginJob(s, 2);
    EXPECT_EQ(large.counters().armed, 100000u);
    EXPECT_EQ(firedLatticePoints(large, s).size(), 100000u);
    EXPECT_EQ(large.counters().fired, 100000u);

    // The accepted sites are the distinct draws in draw order, exactly
    // as a linear scan over the accepted list dedupes them.
    plan.transient.sitesPerJob = 4000;
    Rng rng(fault::mix64(plan.seed ^ fault::mix64(2 + 1)));
    std::uniform_int_distribution<std::uint64_t> dist(0,
                                                      s.denseMacs() - 1);
    std::vector<std::uint64_t> want;
    while (want.size() < 4000) {
        const std::uint64_t site = dist(rng.engine());
        if (std::find(want.begin(), want.end(), site) == want.end())
            want.push_back(site);
    }
    std::sort(want.begin(), want.end());

    fault::FaultInjector injector(plan);
    injector.beginJob(s, 2);
    EXPECT_EQ(firedLatticePoints(injector, s), want);
}

TEST(FaultInjector, RejectsOutOfRangeTransientSettings)
{
    // A plan built in code skips FaultPlan::parse's validation; more
    // than 16 bits would leave flipProductBits no free bit to draw.
    fault::FaultPlan plan;
    plan.transient.sitesPerJob = 1;
    for (const int bits : {0, 17, 32}) {
        plan.transient.bits = bits;
        EXPECT_THROW({ fault::FaultInjector injector(plan); },
                     util::PanicError)
            << bits;
    }
    plan.transient.bits = 16;
    EXPECT_NO_THROW({ fault::FaultInjector injector(plan); });
    plan.transient.sitesPerJob = -1;
    EXPECT_THROW({ fault::FaultInjector injector(plan); },
                 util::PanicError);
}

/** Forwards to an injector but publishes no row filter, so a walk
 *  presents it every scheduled MAC. */
class PerMacHook final : public sim::MacFaultHook
{
  public:
    explicit PerMacHook(fault::FaultInjector &inner) : inner_(inner) {}

    float
    onMac(const sim::MacContext &ctx, float a, float b) override
    {
        return inner_.onMac(ctx, a, b);
    }

    bool visitIneffectual() const override
    {
        return inner_.visitIneffectual();
    }

  private:
    fault::FaultInjector &inner_;
};

/** Forwards to an injector, its row filter included, and counts the
 *  MACs it is presented. */
class CountingHook final : public sim::MacFaultHook
{
  public:
    explicit CountingHook(sim::MacFaultHook &inner) : inner_(inner) {}

    float
    onMac(const sim::MacContext &ctx, float a, float b) override
    {
        ++calls;
        return inner_.onMac(ctx, a, b);
    }

    bool visitIneffectual() const override
    {
        return inner_.visitIneffectual();
    }

    const sim::MacRowFilter *
    rowFilter() const override
    {
        return inner_.rowFilter();
    }

    std::uint64_t calls = 0;

  private:
    sim::MacFaultHook &inner_;
};

/** Run `arch` on one job under `hook`, into a fresh output. */
Tensor
hookedRun(sim::Architecture &arch, sim::MacFaultHook &hook,
          const ConvSpec &s, const Tensor &in, const Tensor &w)
{
    Tensor out = sim::makeOutputTensor(s);
    arch.setFaultHook(&hook);
    arch.run(s, &in, &w, &out);
    arch.setFaultHook(nullptr);
    return out;
}

/** The two NLR columns, zeros executed and skipped, at `u`. */
std::vector<std::unique_ptr<sim::Architecture>>
nlrColumns(const Unroll &u)
{
    std::vector<std::unique_ptr<sim::Architecture>> v;
    v.push_back(std::make_unique<Nlr>(u, Nlr::ZeroPolicy::Execute));
    v.push_back(std::make_unique<Nlr>(u, Nlr::ZeroPolicy::Skip));
    return v;
}

/** The campaign's six columns at random small unrollings; NLR's P_of
 *  may pass the block rows' 8-wide chunk. */
std::vector<std::unique_ptr<sim::Architecture>>
campaignColumns(Rng &rng)
{
    std::vector<std::unique_ptr<sim::Architecture>> v =
        nlrColumns(Unroll{.pIf = rng.uniformInt(1, 5),
                          .pOf = rng.uniformInt(1, 20)});
    v.push_back(std::make_unique<Wst>(Unroll{
        .pOf = rng.uniformInt(1, 3), .pKx = rng.uniformInt(2, 4),
        .pKy = rng.uniformInt(2, 4)}));
    v.push_back(std::make_unique<Ost>(Unroll{
        .pOf = rng.uniformInt(1, 3), .pOx = rng.uniformInt(2, 4),
        .pOy = rng.uniformInt(2, 4)}));
    v.push_back(std::make_unique<Zfost>(Unroll{
        .pOf = rng.uniformInt(1, 3), .pOx = rng.uniformInt(2, 4),
        .pOy = rng.uniformInt(2, 4)}));
    v.push_back(std::make_unique<Zfwst>(Unroll{
        .pOf = rng.uniformInt(1, 3), .pKx = rng.uniformInt(2, 4),
        .pKy = rng.uniformInt(2, 4)}));
    return v;
}

TEST(FaultInjector, RowFilterMatchesPerMacPath)
{
    // Three plans: transient-only (filtered), a stuck lane on top (no
    // filter either way), memory-only (filtered, every row quiet, and
    // ineffectual slots unvisited). Whole cycles settle, and the hook
    // is presented only the armed lanes the walk schedules.
    fault::FaultPlan transient;
    transient.seed = 29;
    transient.transient.sitesPerJob = 64;
    transient.transient.bits = 2;
    fault::FaultPlan stuck = transient;
    fault::PeFault pe;
    pe.lane = 1;
    pe.kind = fault::PeFault::Kind::StuckAtValue;
    pe.value = 0.75f;
    stuck.peFaults.push_back(pe);
    fault::FaultPlan memory;
    memory.seed = 29;
    memory.memory.flipProbPerAccess = 1e-3;
    const fault::FaultPlan *const plans[] = {&transient, &stuck, &memory};

    // The fuzz corpus, plus one job with more than 2^18 rows so the
    // walks also read a bucketed filter, plus the wide job in its NLR
    // columns.
    Rng rng(0xF117E2ULL);
    std::vector<ConvSpec> corpus;
    for (int i = 0; i < 60; ++i)
        corpus.push_back(tests::randomSpec(rng));
    ConvSpec big = stuffedSpec();
    big.nif = 4;
    big.inOrigH = big.inOrigW = 32;
    big.ih = big.iw = big.oh = big.ow = 63;
    big.kh = big.kw = 5;
    big.pad = 2;
    corpus.push_back(big);
    const WideJob wide = wideJob();
    corpus.push_back(wide.spec);

    std::uint64_t fired = 0, peHits = 0;
    for (std::size_t j = 0; j < corpus.size(); ++j) {
        const ConvSpec &s = corpus[j];
        const Tensor in = sim::makeStreamedInput(s, rng);
        const Tensor w = sim::makeStreamedKernel(s, rng);
        const bool is_wide = j + 1 == corpus.size();
        for (const auto &arch :
             is_wide ? nlrColumns(wide.nlr) : campaignColumns(rng)) {
            for (const fault::FaultPlan *plan : plans) {
                fault::FaultInjector filtered(*plan), per_mac(*plan);
                filtered.beginJob(s, j);
                per_mac.beginJob(s, j);
                EXPECT_EQ(filtered.rowFilter() != nullptr,
                          plan->peFaults.empty());
                CountingHook counted(filtered);
                PerMacHook forward(per_mac);

                const Tensor got = hookedRun(*arch, counted, s, in, w);
                const Tensor want = hookedRun(*arch, forward, s, in, w);

                const std::string where =
                    arch->name() + " " + plan->describe() + " on " +
                    s.describe();
                EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                         got.numel() * sizeof(float)))
                    << where;
                const auto &a = filtered.counters();
                const auto &b = per_mac.counters();
                EXPECT_EQ(a.armed, b.armed) << where;
                EXPECT_EQ(a.fired, b.fired) << where;
                EXPECT_EQ(a.macsObserved, b.macsObserved) << where;
                EXPECT_EQ(a.peHits, b.peHits) << where;
                // A filtered walk presents only the armed lanes; a
                // stuck lane's plan publishes no filter.
                EXPECT_EQ(counted.calls, plan->peFaults.empty()
                                             ? a.fired
                                             : a.macsObserved)
                    << where;
                fired += filtered.counters().fired;
                peHits += filtered.counters().peHits;
            }
        }
    }
    // The corpus really exercises loud rows and the stuck lane.
    EXPECT_GT(fired, 0u);
    EXPECT_GT(peHits, 0u);
}

/** Presents every scheduled MAC, ineffectual ones included, and
 *  returns the exact product: the full schedule, fault-free. */
class FullScheduleHook final : public sim::MacFaultHook
{
  public:
    float onMac(const sim::MacContext &, float a, float b) override
    {
        return a * b;
    }

    bool visitIneffectual() const override { return true; }
};

/** The gated arrays (OST, ZFOST) leave input positions that are ±0 in
 *  every input map out of their multiply lists, by value: on a
 *  zero-stuffed job, a position that is not a structural zero but
 *  reads ±0 in every map, and a structural-zero position that holds a
 *  non-zero value in one map only, must both give the per-MAC path's
 *  bits. The filtered hook is presented exactly the armed lanes the
 *  walk schedules; the forwarding hook every scheduled MAC. */
TEST(FaultInjector, GatedZeroOperandsMatchPerMacPath)
{
    ConvSpec s = stuffedSpec();
    s.nif = 3;
    s.nof = 3;
    Rng rng(0x6A7EDULL);
    Tensor in = sim::makeStreamedInput(s, rng);
    const Tensor w = sim::makeStreamedKernel(s, rng);
    int zero_y = -1, zero_x = -1, lone_y = -1, lone_x = -1;
    for (int iy = 0; iy < s.ih; ++iy)
        for (int ix = 0; ix < s.iw; ++ix) {
            const bool structural =
                s.inputRowZero(iy) || s.inputColZero(ix);
            if (!structural && zero_y < 0 && iy > 0) {
                zero_y = iy;
                zero_x = ix;
            }
            if (structural && lone_y < 0 && iy > 0 && ix > 0) {
                lone_y = iy;
                lone_x = ix;
            }
        }
    ASSERT_GE(zero_y, 0);
    ASSERT_GE(lone_y, 0);
    for (int c = 0; c < s.nif; ++c) {
        ASSERT_NE(in.at(0, c, zero_y, zero_x), 0.0f);
        ASSERT_EQ(in.at(0, c, lone_y, lone_x), 0.0f);
        in.at(0, c, zero_y, zero_x) = c == 0 ? -0.0f : 0.0f;
    }
    in.at(0, 1, lone_y, lone_x) = 0.625f;

    fault::FaultPlan plan;
    plan.seed = 37;
    plan.transient.sitesPerJob = 96;
    plan.transient.bits = 3;
    std::vector<std::unique_ptr<sim::Architecture>> columns;
    for (const int p_of : {1, 3}) {
        columns.push_back(std::make_unique<Ost>(
            Unroll{.pOf = p_of, .pOx = 3, .pOy = 2}));
        columns.push_back(std::make_unique<Zfost>(
            Unroll{.pOf = p_of, .pOx = 3, .pOy = 2}));
    }
    std::uint64_t job = 0;
    for (const auto &arch : columns) {
        const std::string where =
            arch->name() + " (" + arch->unroll().str() + ")";
        fault::FaultInjector filtered(plan), per_mac(plan);
        filtered.beginJob(s, job);
        per_mac.beginJob(s, job);
        ++job;
        CountingHook counted(filtered);
        PerMacHook forward_inner(per_mac);
        CountingHook forward(forward_inner);
        const Tensor got = hookedRun(*arch, counted, s, in, w);
        const Tensor want = hookedRun(*arch, forward, s, in, w);
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                 got.numel() * sizeof(float)))
            << where;
        const auto &a = filtered.counters();
        const auto &b = per_mac.counters();
        EXPECT_EQ(a.armed, b.armed) << where;
        EXPECT_EQ(a.fired, b.fired) << where;
        EXPECT_GT(a.fired, 0u) << where;
        EXPECT_EQ(a.macsObserved, b.macsObserved) << where;
        EXPECT_EQ(counted.calls, a.fired) << where;
        EXPECT_EQ(forward.calls, b.macsObserved) << where;

        // Fault-free, the unhooked walk's pruned list gives the full
        // schedule's bits on these operands too.
        FullScheduleHook full;
        Tensor plain = sim::makeOutputTensor(s);
        arch->run(s, &in, &w, &plain);
        const Tensor scheduled = hookedRun(*arch, full, s, in, w);
        EXPECT_EQ(0, std::memcmp(plain.data(), scheduled.data(),
                                 plain.numel() * sizeof(float)))
            << where;
    }
}

/** The campaign's own transient plan on its own shapes: the 16
 *  MNIST-GAN jobs in the six columns at the paper unrolls, 256 sites a
 *  job. Of_cnt there reaches the block rows' 8-wide body, and most
 *  cycles settle; outputs and counters must match a forwarding hook
 *  that publishes no filter, bit for bit. */
TEST(FaultInjector, SettledCyclesMatchPerMacPathOnCampaignShapes)
{
    fault::FaultPlan plan;
    plan.seed = 31;
    plan.transient.sitesPerJob = 256;

    struct Job
    {
        ConvSpec spec;
        Tensor in, w;
    };
    const gan::GanModel model = gan::makeMnistGan();
    Rng rng(0xCA4F1E1DULL);
    std::vector<std::vector<Job>> rows;
    for (const tests::CampaignRow &row : tests::kCampaignRows) {
        rows.emplace_back();
        for (const ConvSpec &s : sim::familyJobs(model, row.family))
            rows.back().push_back({s, sim::makeStreamedInput(s, rng),
                                   sim::makeStreamedKernel(s, rng)});
    }

    // The per-MAC side is slow, so each row runs on its own thread; a
    // failed assertion in the simulator is reported, not thrown out of
    // the thread.
    std::vector<std::uint64_t> fired(rows.size());
    std::vector<std::thread> workers;
    std::uint64_t first_job = 0;
    const auto runRow = [&](std::size_t r, std::uint64_t job) {
        const tests::CampaignRow &row = tests::kCampaignRows[r];
        const auto columns = tests::campaignRowColumns(row);
        for (const Job &j : rows[r]) {
            for (const auto &arch : columns) {
                fault::FaultInjector filtered(plan), per_mac(plan);
                filtered.beginJob(j.spec, job);
                per_mac.beginJob(j.spec, job);
                PerMacHook forward(per_mac);
                const Tensor got =
                    hookedRun(*arch, filtered, j.spec, j.in, j.w);
                const Tensor want =
                    hookedRun(*arch, forward, j.spec, j.in, j.w);

                const std::string where = std::string(row.name) + " " +
                                          arch->name() + " on " +
                                          j.spec.describe();
                EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                         got.numel() * sizeof(float)))
                    << where;
                const auto &a = filtered.counters();
                const auto &b = per_mac.counters();
                EXPECT_EQ(a.armed, b.armed) << where;
                EXPECT_EQ(a.fired, b.fired) << where;
                EXPECT_EQ(a.macsObserved, b.macsObserved) << where;
                fired[r] += a.fired;
            }
            ++job;
        }
    };
    for (std::size_t r = 0; r < rows.size(); ++r) {
        workers.emplace_back([&, r, first_job] {
            try {
                runRow(r, first_job);
            } catch (const std::exception &e) {
                ADD_FAILURE() << tests::kCampaignRows[r].name << ": "
                              << e.what();
            }
        });
        first_job += rows[r].size();
    }
    for (std::thread &t : workers)
        t.join();
    for (std::size_t r = 0; r < rows.size(); ++r)
        EXPECT_GT(fired[r], 0u) << tests::kCampaignRows[r].name;
}

/** The unhooked walk multiplies only effectual rows and skips every
 *  structural-zero and padding slot; the full schedule multiplies all
 *  of them. On finite operands that honour the zero structure the two
 *  must agree bit for bit, in every column, on the fuzz corpus and on
 *  the campaign's own jobs at the paper unrolls, and in the NLR
 *  columns on the wide job. */
TEST(FaultInjector, PlainPathMatchesFullSchedule)
{
    const auto expectSame = [](sim::Architecture &arch, const ConvSpec &s,
                               const Tensor &in, const Tensor &w) {
        FullScheduleHook full;
        Tensor plain = sim::makeOutputTensor(s);
        arch.run(s, &in, &w, &plain);
        Tensor hooked = sim::makeOutputTensor(s);
        arch.setFaultHook(&full);
        arch.run(s, &in, &w, &hooked);
        arch.setFaultHook(nullptr);
        EXPECT_EQ(0, std::memcmp(plain.data(), hooked.data(),
                                 plain.numel() * sizeof(float)))
            << arch.name() << " (" << arch.unroll().str() << ") on "
            << s.describe();
    };

    Rng rng(0xF0115CEDULL);
    for (int i = 0; i < 60; ++i) {
        const ConvSpec s = tests::randomSpec(rng);
        const Tensor in = sim::makeStreamedInput(s, rng);
        const Tensor w = sim::makeStreamedKernel(s, rng);
        for (const auto &arch : campaignColumns(rng))
            expectSame(*arch, s, in, w);
    }

    const gan::GanModel model = gan::makeMnistGan();
    for (const tests::CampaignRow &row : tests::kCampaignRows) {
        const auto columns = tests::campaignRowColumns(row);
        for (const ConvSpec &s : sim::familyJobs(model, row.family)) {
            const Tensor in = sim::makeStreamedInput(s, rng);
            const Tensor w = sim::makeStreamedKernel(s, rng);
            for (const auto &arch : columns)
                expectSame(*arch, s, in, w);
        }
    }
    const WideJob wide = wideJob();
    const Tensor wide_in = sim::makeStreamedInput(wide.spec, rng);
    const Tensor wide_w = sim::makeStreamedKernel(wide.spec, rng);
    for (const auto &arch : nlrColumns(wide.nlr))
        expectSame(*arch, wide.spec, wide_in, wide_w);
}

// ---------------------------------------------------------------------
// Storage-fault primitives
// ---------------------------------------------------------------------

TEST(MemFaults, SampleBinomialEdgesAndDeterminism)
{
    Rng rng(1);
    EXPECT_EQ(fault::sampleBinomial(rng, 0, 0.5), 0u);
    EXPECT_EQ(fault::sampleBinomial(rng, 1000, 0.0), 0u);
    // p = 1 must return n in every regime: exact, Poisson, normal.
    EXPECT_EQ(fault::sampleBinomial(rng, 100, 1.0), 100u);
    EXPECT_EQ(fault::sampleBinomial(rng, 1u << 20, 1.0), 1u << 20);

    Rng a(77), b(77);
    for (int i = 0; i < 16; ++i) {
        const std::uint64_t x = fault::sampleBinomial(a, 10000, 0.3);
        EXPECT_EQ(x, fault::sampleBinomial(b, 10000, 0.3));
        EXPECT_LE(x, 10000u);
    }
}

TEST(MemFaults, SingleBitFlipIsOneFixed16Bit)
{
    Tensor t(tensor::Shape4(1, 1, 2, 2), 1.0f);
    const Tensor orig = t;
    Rng rng(9);
    EXPECT_EQ(fault::applyBitFlips(t, 1, 1, rng), 1u);

    int changed = 0;
    for (std::size_t i = 0; i < t.numel(); ++i) {
        if (t.data()[i] == orig.data()[i])
            continue;
        ++changed;
        const std::uint16_t before = std::uint16_t(
            util::AccelFixed::fromDouble(orig.data()[i]).raw());
        const std::uint16_t after = std::uint16_t(
            util::AccelFixed::fromDouble(t.data()[i]).raw());
        EXPECT_EQ(std::bitset<16>(before ^ after).count(), 1u);
    }
    EXPECT_EQ(changed, 1);

    // Zero flips must be a no-op.
    Tensor u = orig;
    EXPECT_EQ(fault::applyBitFlips(u, 0, 1, rng), 0u);
    EXPECT_EQ(0, std::memcmp(u.data(), orig.data(),
                             u.numel() * sizeof(float)));
}

TEST(MemFaults, FlipCountingTapObservesBufferTraffic)
{
    fault::FlipCountingTap tap(1.0, 42);

    mem::OnChipBuffer buf("test", 1024);
    buf.setAccessTap(&tap);
    buf.read(64); // 32 words at p=1: all corrupt
    buf.write(10);
    EXPECT_EQ(tap.pendingFlips(), 37u);

    mem::OffChipMemory dram((mem::OffChipConfig()));
    dram.setAccessTap(&tap);
    dram.read(6);
    EXPECT_EQ(tap.pendingFlips(), 40u);
    EXPECT_EQ(tap.takeFlips(), 40u);
    EXPECT_EQ(tap.pendingFlips(), 0u);

    // Detached taps see nothing.
    buf.setAccessTap(nullptr);
    dram.setAccessTap(nullptr);
    buf.read(100);
    dram.write(100);
    EXPECT_EQ(tap.pendingFlips(), 0u);
}

TEST(MemFaults, SaturationStressAgreesWithRangeAnalysis)
{
    // 1.5 needs one integer bit: a Q1.14 writeback must not clip it.
    Tensor fits(tensor::Shape4(1, 1, 1, 2));
    fits.data()[0] = 1.5f;
    fits.data()[1] = -0.3f;
    EXPECT_LE(verify::requiredIntBits(1.5), 1);
    const fault::SaturationStress ok = fault::stressSaturation(fits, 14);
    EXPECT_EQ(ok.saturated, 0u);
    EXPECT_EQ(ok.total, 2u);
    EXPECT_GT(ok.rmseVsFloat, 0.0); // -0.3 is off-grid: rounding error
    EXPECT_LT(ok.rmseVsFloat, 1e-3);

    // 3.0 needs two integer bits: the same format must clip it, and
    // the static analysis must predict that.
    Tensor clips(tensor::Shape4(1, 1, 1, 1));
    clips.data()[0] = 3.0f;
    EXPECT_GT(verify::requiredIntBits(3.0), 1);
    const fault::SaturationStress sat =
        fault::stressSaturation(clips, 14);
    EXPECT_EQ(sat.saturated, 1u);
    EXPECT_NEAR(clips.data()[0], 2.0f, 1e-3);
}

// ---------------------------------------------------------------------
// Campaigns
// ---------------------------------------------------------------------

TEST(FaultCampaign, EmptyPlanCampaignIsFaultFree)
{
    const fault::CampaignResult result = fault::runResilienceCampaign(
        tinyModel(), fault::FaultPlan(), fault::CampaignOptions());
    ASSERT_FALSE(result.cells.empty());
    for (const auto &cell : result.cells) {
        EXPECT_EQ(cell.mac.armed, 0u) << cell.row << " " << cell.arch;
        // Not exactly zero: the cell RMSE is measured against the
        // golden model, whose accumulation order differs from the
        // dataflow's, so ~1e-8 float rounding noise remains. Anything
        // above that would be an injected fault.
        EXPECT_LT(cell.outputRmse, 1e-6) << cell.row << " " << cell.arch;
        EXPECT_EQ(cell.memFlips, 0u);
    }
}

const fault::ArchSummary &
summaryFor(const fault::CampaignResult &result, const std::string &arch)
{
    for (const auto &s : result.archs)
        if (s.arch == arch)
            return s;
    ADD_FAILURE() << "no summary for " << arch;
    static const fault::ArchSummary none{};
    return none;
}

TEST(FaultCampaign, ZeroFreeDataflowsMaskMoreTransients)
{
    // The acceptance result: on the paper's evaluation matrix
    // (Table V rows, identical armed sites everywhere) the zero-free
    // dataflows mask strictly more MAC-path transients than every
    // baseline, *in aggregate* — per-row exceptions are real (WST
    // out-masks ZFOST on D/ST, where its resident kernel never streams
    // the padding ring), which is exactly why the claim is stated over
    // the summed lattice.
    fault::FaultPlan plan;
    plan.seed = 1;
    plan.transient.sitesPerJob = 256;

    fault::CampaignOptions opt;
    opt.dataSeed = plan.seed;
    const fault::CampaignResult result = fault::runResilienceCampaign(
        gan::makeMnistGan(), plan, opt);

    const fault::ArchSummary &nlr = summaryFor(result, "NLR");
    const fault::ArchSummary &wst = summaryFor(result, "WST");
    const fault::ArchSummary &ost = summaryFor(result, "OST");
    const fault::ArchSummary &zfost = summaryFor(result, "ZFOST");
    const fault::ArchSummary &zfwst = summaryFor(result, "ZFWST");

    // Like-for-like: every column sampled the identical armed set.
    EXPECT_EQ(nlr.armed, zfost.armed);
    EXPECT_EQ(wst.armed, zfost.armed);
    EXPECT_EQ(ost.armed, zfost.armed);
    EXPECT_GT(zfost.armed, 0u);

    for (const fault::ArchSummary *zf : {&zfost, &zfwst}) {
        EXPECT_GT(zf->maskingRate, nlr.maskingRate) << zf->arch;
        EXPECT_GT(zf->maskingRate, wst.maskingRate) << zf->arch;
        EXPECT_GT(zf->maskingRate, ost.maskingRate) << zf->arch;
    }
    // The zero-executing baselines sample every armed upset.
    EXPECT_EQ(nlr.fired, nlr.armed);
    EXPECT_EQ(ost.fired, ost.armed);
    // Masking shows up as accuracy: fewer sampled upsets, lower RMSE.
    EXPECT_LT(zfost.outputRmse, nlr.outputRmse);
}

TEST(FaultCampaign, TrainerDegradationIsDeterministicAndFaultDriven)
{
    const gan::GanModel model = tinyModel();

    // No storage faults: the twins stay bit-identical.
    fault::FaultPlan clean;
    const fault::TrainerDegradation none =
        fault::runTrainerDegradation(model, clean, 3, 2, 17);
    EXPECT_EQ(none.weightFlips, 0u);
    EXPECT_EQ(none.meanAbsDiscLossDelta, 0.0);
    EXPECT_EQ(none.meanAbsGenLossDelta, 0.0);
    EXPECT_EQ(none.weightRmse, 0.0);

    // A heavy flip rate must corrupt weights, and two identical runs
    // must agree bit for bit.
    fault::FaultPlan faulty;
    faulty.seed = 23;
    faulty.memory.flipProbPerAccess = 0.01;
    const fault::TrainerDegradation a =
        fault::runTrainerDegradation(model, faulty, 3, 2, 17);
    const fault::TrainerDegradation b =
        fault::runTrainerDegradation(model, faulty, 3, 2, 17);
    EXPECT_GT(a.weightFlips, 0u);
    EXPECT_GT(a.weightRmse, 0.0);
    EXPECT_EQ(a.weightFlips, b.weightFlips);
    EXPECT_EQ(a.weightRmse, b.weightRmse);
    EXPECT_EQ(a.meanAbsDiscLossDelta, b.meanAbsDiscLossDelta);
    EXPECT_EQ(a.meanAbsGenLossDelta, b.meanAbsGenLossDelta);
    EXPECT_EQ(a.cleanFinalDiscLoss, b.cleanFinalDiscLoss);
    EXPECT_EQ(a.faultyFinalDiscLoss, b.faultyFinalDiscLoss);
}

} // namespace
