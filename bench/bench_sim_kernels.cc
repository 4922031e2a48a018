/**
 * @file
 * Google-benchmark microbenchmarks of the simulator itself: how fast
 * the cycle-level models and the golden convolution execute on real
 * layer shapes. These guard against performance regressions that
 * would make the figure-reproduction sweeps impractical.
 */

#include <benchmark/benchmark.h>

#include "core/unrolling.hh"
#include "fault/injector.hh"
#include "gan/models.hh"
#include "nn/conv_ref.hh"
#include "sim/closed_form.hh"
#include "sim/conv_spec.hh"
#include "sim/phase.hh"
#include "util/random.hh"

namespace {

using namespace ganacc;

/** Timing-only simulation of one DCGAN phase family per iteration. */
void
simulateFamily(benchmark::State &state, core::ArchKind kind,
               sim::PhaseFamily family,
               sim::SimEngine engine = sim::SimEngine::Walk)
{
    sim::ScopedSimEngine eng(engine);
    gan::GanModel m = gan::makeDcgan();
    const core::BankRole role = core::bankOf(family);
    auto arch = core::makeArch(
        kind, core::paperUnroll(kind, role, family, core::paperPes(role)));
    auto jobs = sim::familyJobs(m, family);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        for (const auto &j : jobs)
            cycles += arch->run(j).cycles;
        benchmark::DoNotOptimize(cycles);
    }
    state.counters["sim_cycles_per_iter"] =
        benchmark::Counter(double(cycles) /
                           double(state.iterations()));
}

void
BM_ZfostOnGPhase(benchmark::State &state)
{
    simulateFamily(state, core::ArchKind::ZFOST, sim::PhaseFamily::G);
}
BENCHMARK(BM_ZfostOnGPhase)->Unit(benchmark::kMillisecond);

void
BM_ZfostOnGPhaseFast(benchmark::State &state)
{
    simulateFamily(state, core::ArchKind::ZFOST, sim::PhaseFamily::G,
                   sim::SimEngine::Auto);
}
BENCHMARK(BM_ZfostOnGPhaseFast)->Unit(benchmark::kMillisecond);

void
BM_ZfwstOnGwPhase(benchmark::State &state)
{
    simulateFamily(state, core::ArchKind::ZFWST, sim::PhaseFamily::Gw);
}
BENCHMARK(BM_ZfwstOnGwPhase)->Unit(benchmark::kMillisecond);

void
BM_ZfwstOnGwPhaseFast(benchmark::State &state)
{
    simulateFamily(state, core::ArchKind::ZFWST, sim::PhaseFamily::Gw,
                   sim::SimEngine::Auto);
}
BENCHMARK(BM_ZfwstOnGwPhaseFast)->Unit(benchmark::kMillisecond);

void
BM_OstOnDPhase(benchmark::State &state)
{
    simulateFamily(state, core::ArchKind::OST, sim::PhaseFamily::D);
}
BENCHMARK(BM_OstOnDPhase)->Unit(benchmark::kMillisecond);

void
BM_OstOnDPhaseFast(benchmark::State &state)
{
    simulateFamily(state, core::ArchKind::OST, sim::PhaseFamily::D,
                   sim::SimEngine::Auto);
}
BENCHMARK(BM_OstOnDPhaseFast)->Unit(benchmark::kMillisecond);

void
BM_WstOnDwPhase(benchmark::State &state)
{
    simulateFamily(state, core::ArchKind::WST, sim::PhaseFamily::Dw);
}
BENCHMARK(BM_WstOnDwPhase)->Unit(benchmark::kMillisecond);

void
BM_WstOnDwPhaseFast(benchmark::State &state)
{
    simulateFamily(state, core::ArchKind::WST, sim::PhaseFamily::Dw,
                   sim::SimEngine::Auto);
}
BENCHMARK(BM_WstOnDwPhaseFast)->Unit(benchmark::kMillisecond);

/**
 * LSUN-scale T-CONV (up-sampling toward 128x128 feature maps): the
 * kind of job that made walk-based sweeps wall-clock-bound, and the
 * headline fast-path speedup row (EXPERIMENTS.md).
 */
sim::ConvSpec
lsunScaleTconv()
{
    sim::ConvSpec s;
    s.label = "lsun-tconv";
    s.nif = 128;
    s.nof = 64;
    s.inZeroStride = 2;
    s.inOrigH = s.inOrigW = 64;
    s.ih = s.iw = 127;
    s.kh = s.kw = 5;
    s.stride = 1;
    s.pad = 2;
    s.oh = s.ow = 127;
    return s;
}

void
simulateLargeTconv(benchmark::State &state, sim::SimEngine engine)
{
    sim::ScopedSimEngine eng(engine);
    const sim::ConvSpec job = lsunScaleTconv();
    auto arch = core::makeArch(
        core::ArchKind::ZFOST,
        core::paperUnroll(core::ArchKind::ZFOST, core::BankRole::ST,
                          sim::PhaseFamily::G, 1200));
    for (auto _ : state) {
        auto st = arch->run(job);
        benchmark::DoNotOptimize(st.cycles);
    }
}

void
BM_ZfostLargeTconvWalk(benchmark::State &state)
{
    simulateLargeTconv(state, sim::SimEngine::Walk);
}
BENCHMARK(BM_ZfostLargeTconvWalk)->Unit(benchmark::kMillisecond);

void
BM_ZfostLargeTconvFast(benchmark::State &state)
{
    simulateLargeTconv(state, sim::SimEngine::Auto);
}
BENCHMARK(BM_ZfostLargeTconvFast)->Unit(benchmark::kMillisecond);

/** Functional (data-carrying) simulation of a mid-sized T-CONV job. */
void
BM_ZfostFunctionalTconv(benchmark::State &state)
{
    gan::GanModel m = gan::makeMnistGan();
    auto jobs = sim::phaseJobs(m, sim::Phase::GenForward);
    const sim::ConvSpec &job = jobs[1];
    util::Rng rng(1);
    tensor::Tensor in = sim::makeStreamedInput(job, rng);
    tensor::Tensor w = sim::makeStreamedKernel(job, rng);
    tensor::Tensor out = sim::makeOutputTensor(job);
    auto arch = core::makeArch(
        core::ArchKind::ZFOST,
        core::paperUnroll(core::ArchKind::ZFOST, core::BankRole::ST,
                          sim::PhaseFamily::G, 1200));
    for (auto _ : state) {
        auto st = arch->run(job, &in, &w, &out);
        benchmark::DoNotOptimize(st.cycles);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(job.effectiveMacs()));
}
BENCHMARK(BM_ZfostFunctionalTconv)->Unit(benchmark::kMillisecond);

/**
 * The fault campaign's walk on one job: OST on MNIST-GAN Gw L1
 * (familyJobs index 1) at the W-bank paper unrolling, functional, with
 * a 256-site transient FaultInjector (as fault::runResilienceCampaign
 * arms it) or without a hook. The two side by side give the hook's
 * walk-level cost.
 */
void
walkOstGw(benchmark::State &state, bool hooked)
{
    gan::GanModel m = gan::makeMnistGan();
    const sim::ConvSpec job = sim::familyJobs(m, sim::PhaseFamily::Gw)[1];
    util::Rng rng(1);
    tensor::Tensor in = sim::makeStreamedInput(job, rng);
    tensor::Tensor w = sim::makeStreamedKernel(job, rng);
    tensor::Tensor out = sim::makeOutputTensor(job);
    auto arch = core::makeArch(
        core::ArchKind::OST,
        core::paperUnroll(core::ArchKind::OST, core::BankRole::W,
                          sim::PhaseFamily::Gw, 480));
    fault::FaultPlan plan;
    plan.seed = 1;
    plan.transient.sitesPerJob = 256;
    fault::FaultInjector injector(plan);
    if (hooked) {
        injector.beginJob(job, 0);
        arch->setFaultHook(&injector);
    }
    for (auto _ : state) {
        auto st = arch->run(job, &in, &w, &out);
        benchmark::DoNotOptimize(st.cycles);
    }
    if (hooked)
        state.counters["fired_per_iter"] = benchmark::Counter(
            double(injector.counters().fired) / double(state.iterations()));
}

void
BM_OstGwL1Walk(benchmark::State &state)
{
    walkOstGw(state, false);
}
BENCHMARK(BM_OstGwL1Walk)->Unit(benchmark::kMillisecond);

void
BM_OstGwL1WalkHooked(benchmark::State &state)
{
    walkOstGw(state, true);
}
BENCHMARK(BM_OstGwL1WalkHooked)->Unit(benchmark::kMillisecond);

/**
 * The fault campaign's reference convolution on one G-family job
 * (familyJobs index `index`), its operands drawn once as the campaign
 * draws them.
 */
void
genericConvRefJob(benchmark::State &state, const gan::GanModel &m,
                  std::size_t index)
{
    const sim::ConvSpec job =
        sim::familyJobs(m, sim::PhaseFamily::G).at(index);
    util::Rng rng(1);
    const tensor::Tensor in = sim::makeStreamedInput(job, rng);
    const tensor::Tensor w = sim::makeStreamedKernel(job, rng);
    for (auto _ : state) {
        tensor::Tensor out = sim::genericConvRef(job, in, w);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(job.effectiveMacs()));
}

/** MNIST-GAN G-fwd L1: the largest MNIST-GAN reference job. */
void
BM_GenericConvRefMnistGL1(benchmark::State &state)
{
    genericConvRefJob(state, gan::makeMnistGan(), 1);
}
BENCHMARK(BM_GenericConvRefMnistGL1)->Unit(benchmark::kMillisecond);

/** DCGAN G-fwd L3: 64 output planes of 32x32, 4 KB apart. */
void
BM_GenericConvRefDcganGL3(benchmark::State &state)
{
    genericConvRefJob(state, gan::makeDcgan(), 3);
}
BENCHMARK(BM_GenericConvRefDcganGL3)->Unit(benchmark::kMillisecond);

/** Golden-model strided convolution on the first DCGAN layer. */
void
BM_GoldenSconvDcganL1(benchmark::State &state)
{
    util::Rng rng(2);
    tensor::Tensor in(1, 3, 64, 64);
    in.fillUniform(rng);
    tensor::Tensor w(64, 3, 5, 5);
    w.fillUniform(rng);
    nn::Conv2dGeom g{5, 2, 2, 0};
    for (auto _ : state) {
        tensor::Tensor out = nn::sconvForward(in, w, g);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 64 * 3 * 25 *
                            32 * 32);
}
BENCHMARK(BM_GoldenSconvDcganL1)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
