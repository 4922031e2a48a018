/**
 * @file
 * Dataflow ablations beyond the paper's five architectures:
 *
 *  1. RST (Eyeriss-style row stationary, Section VII's qualitative
 *     comparison made quantitative): zero *gating* saves energy but
 *     no cycles, so the zero-inserted phases stay slow.
 *  2. ZFOST-raster: ZFOST with the Fig. 12(a) weight reordering
 *     turned off — identical cycles, but strided convolutions lose
 *     the register-array reuse, isolating what the reorder buys.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "core/unrolling.hh"
#include "core/zfost.hh"
#include "gan/models.hh"
#include "sim/cnv.hh"
#include "sim/nlr.hh"
#include "sim/phase.hh"
#include "sim/rst.hh"
#include "util/random.hh"
#include "util/table.hh"

int
main()
{
    using namespace ganacc;
    bench::banner("Ablation — RST baseline and ZFOST weight reorder",
                  "gating != skipping; the reorder buys buffer "
                  "traffic, not cycles");

    // 1. RST and the vanilla (non-skipping) NLR vs the paper's
    // architectures, DCGAN, all families. NLR-vanilla shows how much
    // the evaluation's zero-skipping grant was worth to the baseline.
    gan::GanModel m = gan::makeDcgan();
    std::cout << "\nRST (zero-gating) and NLR-vanilla vs OST/ZFOST "
                 "(speedup vs improved NLR, DCGAN):\n";
    util::Table t({"phase", "NLR", "NLR-vanilla", "OST", "RST",
                   "ZFOST", "RST gated slots %"});
    for (sim::PhaseFamily f : sim::allPhaseFamilies()) {
        const core::BankRole role = core::bankOf(f);
        const int pes = core::paperPes(role);
        auto jobs = sim::familyJobs(m, f);
        auto run_kind = [&](core::ArchKind kind) {
            auto arch = core::makeArch(
                kind, core::paperUnroll(kind, role, f, pes));
            std::uint64_t c = 0;
            for (const auto &j : jobs)
                c += arch->run(j).cycles;
            return c;
        };
        std::uint64_t nlr = run_kind(core::ArchKind::NLR);
        std::uint64_t ost = run_kind(core::ArchKind::OST);
        std::uint64_t zfost = run_kind(core::ArchKind::ZFOST);
        sim::Nlr vanilla(
            core::paperUnroll(core::ArchKind::NLR, role, f, pes),
            sim::Nlr::ZeroPolicy::Execute);
        std::uint64_t van_cycles = 0;
        for (const auto &j : jobs)
            van_cycles += vanilla.run(j).cycles;
        sim::Rst rst(sim::Unroll{.pOf = pes / 16, .pKy = 4, .pOy = 4});
        std::uint64_t rst_cycles = 0;
        sim::RunStats rst_sum;
        for (const auto &j : jobs) {
            auto st = rst.run(j);
            rst_cycles += st.cycles;
            rst_sum += st;
        }
        t.addRow(sim::phaseFamilyName(f), 1.0,
                 double(nlr) / double(van_cycles),
                 double(nlr) / double(ost),
                 double(nlr) / double(rst_cycles),
                 double(nlr) / double(zfost),
                 100.0 * double(rst_sum.ineffectualMacs) /
                     double(rst_sum.totalSlots()));
    }
    t.print(std::cout);

    // 2. ZFOST weight-order ablation on the S-CONV phases.
    std::cout << "\nZFOST weight-feed order (D family, all models):\n";
    util::Table o({"model", "cycles (both)", "input loads reordered",
                   "input loads raster", "traffic saved"});
    for (const auto &model : gan::allModels()) {
        auto jobs = sim::familyJobs(model, sim::PhaseFamily::D);
        sim::Unroll u = core::paperUnroll(
            core::ArchKind::ZFOST, core::BankRole::ST,
            sim::PhaseFamily::D, 1200);
        core::Zfost reordered(u);
        core::Zfost raster(u, core::Zfost::WeightOrder::Raster);
        sim::RunStats a, b;
        for (const auto &j : jobs) {
            a += reordered.run(j);
            b += raster.run(j);
        }
        o.addRow(model.name, a.cycles, a.inputLoads, b.inputLoads,
                 double(b.inputLoads) / double(a.inputLoads));
    }
    o.print(std::cout);

    // 3. Dynamic (Cnvlutin-style) vs structural (ZFOST) zero
    // skipping on one T-CONV job, across post-ReLU data sparsity.
    // Structural skipping is sparsity-blind; dynamic skipping keeps
    // improving — but cannot touch zero-inserted kernels (Dw).
    std::cout << "\nDynamic vs structural skipping (MNIST-GAN G-fwd "
                 "L1, cycles):\n";
    gan::GanModel mn = gan::makeMnistGan();
    auto job = sim::phaseJobs(mn, sim::Phase::GenForward)[1];
    util::Rng rng(42);
    util::Table c({"dense-value sparsity", "CNV cycles",
                   "ZFOST cycles", "CNV/ZFOST"});
    sim::Unroll u_st = core::paperUnroll(
        core::ArchKind::ZFOST, core::BankRole::ST, sim::PhaseFamily::G,
        1200);
    core::Zfost zf(u_st);
    sim::Cnv cnv(sim::Unroll{.pIf = 16, .pOf = 75});
    for (double sparsity : {0.0, 0.3, 0.6, 0.9}) {
        tensor::Tensor in = sim::makeStreamedInput(job, rng);
        tensor::Tensor w = sim::makeStreamedKernel(job, rng);
        util::Rng kill(7);
        for (std::size_t i = 0; i < in.numel(); ++i)
            if (in.data()[i] != 0.0f && kill.bernoulli(sparsity))
                in.data()[i] = 0.0f;
        tensor::Tensor out = sim::makeOutputTensor(job);
        auto st_cnv = cnv.run(job, &in, &w, &out);
        out.fill(0.0f);
        auto st_zf = zf.run(job, &in, &w, &out);
        c.addRow(sparsity, st_cnv.cycles, st_zf.cycles,
                 double(st_cnv.cycles) / double(st_zf.cycles));
    }
    c.print(std::cout);
    std::cout << "\n(ZFOST is sparsity-blind by design — structural "
                 "skipping needs no value inspection hardware; CNV "
                 "rides dynamic sparsity but needs encoded streams "
                 "and cannot skip zero-inserted *kernels*.)\n";
    return 0;
}
