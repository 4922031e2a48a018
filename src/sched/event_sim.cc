/**
 * @file
 * Event-driven accelerator simulation implementation.
 */

#include "sched/event_sim.hh"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "core/cycle_cache.hh"
#include "core/unrolling.hh"
#include "obs/trace.hh"
#include "sim/phase.hh"
#include "util/logging.hh"

namespace ganacc {
namespace sched {

using core::BankRole;
using gan::GanModel;
using sim::Phase;

namespace {

/** Per-layer cycle counts of one phase on the design's owning bank. */
std::vector<std::uint64_t>
perLayerCycles(const Design &design, const GanModel &model, Phase p)
{
    BankRole role = core::bankOf(sim::familyOf(p));
    core::ArchKind kind =
        role == BankRole::W ? design.wKind() : design.stKind();
    int pes = role == BankRole::W ? design.wPes() : design.stPes();
    sim::Unroll u =
        core::paperUnroll(kind, role, sim::familyOf(p), pes);
    std::vector<std::uint64_t> cycles;
    for (const auto &job : sim::phaseJobs(model, p))
        cycles.push_back(core::cachedRun(kind, u, job).cycles);
    return cycles;
}

/** Weight bytes of a layer (fetched from DRAM once, Section V-B3). */
std::uint64_t
weightBytes(const gan::LayerSpec &l, int bpe)
{
    return l.numWeights() * std::uint64_t(bpe);
}

/** ∇W stream bytes: one read + one write per gradient element. */
std::uint64_t
gradStreamBytes(const gan::LayerSpec &l, int bpe)
{
    return 2 * l.numWeights() * std::uint64_t(bpe);
}

} // namespace

UpdateDag
buildUpdateDag(const Design &design, const GanModel &model,
               UpdateKind kind, int bytes_per_elem)
{
    GANACC_ASSERT(design.isCombo(),
                  "the event simulation models the two-bank design");
    const int bpe = bytes_per_elem;
    const std::size_t L = model.disc.size();
    const std::size_t Lg = model.gen.size();
    GANACC_ASSERT(L >= 2 && Lg >= 2, "networks too shallow");

    auto gf_cycles = perLayerCycles(design, model, Phase::GenForward);
    auto df_cycles = perLayerCycles(design, model, Phase::DiscForward);
    auto db_cycles = perLayerCycles(design, model, Phase::DiscBackward);
    auto dw_cycles = perLayerCycles(design, model, Phase::DiscWeight);

    UpdateDag dag;
    auto add = [&](std::string label, Resource r, std::uint64_t cycles,
                   std::uint64_t dram,
                   std::vector<std::size_t> deps) -> std::size_t {
        dag.jobs.push_back(
            {std::move(label), r, cycles, dram, std::move(deps)});
        return dag.jobs.size() - 1;
    };
    auto elem_bytes = [&](const gan::LayerSpec &l) {
        return l.outputElems() * std::uint64_t(bpe);
    };

    // Generator forward chain (shared by both update kinds).
    std::vector<std::size_t> gf(Lg);
    for (std::size_t j = 0; j < Lg; ++j)
        gf[j] = add("G-fwd L" + std::to_string(j), Resource::StBank,
                    gf_cycles[j], weightBytes(model.gen[j], bpe),
                    j ? std::vector<std::size_t>{gf[j - 1]}
                      : std::vector<std::size_t>{});

    if (kind == UpdateKind::Discriminator) {
        // Real and fake forward chains through D.
        std::vector<std::size_t> dfr(L), dff(L);
        for (std::size_t i = 0; i < L; ++i) {
            dfr[i] = add("D-fwd(real) L" + std::to_string(i),
                         Resource::StBank, df_cycles[i],
                         weightBytes(model.disc[i], bpe),
                         i ? std::vector<std::size_t>{dfr[i - 1]}
                           : std::vector<std::size_t>{});
        }
        for (std::size_t i = 0; i < L; ++i) {
            std::vector<std::size_t> deps =
                i ? std::vector<std::size_t>{dff[i - 1]}
                  : std::vector<std::size_t>{gf[Lg - 1]};
            dff[i] = add("D-fwd(fake) L" + std::to_string(i),
                         Resource::StBank, df_cycles[i], 0,
                         std::move(deps));
        }
        // Backward-error chains (deferred sync: each starts right
        // after its own sample's forward; db job k handles layer
        // L-1-k and produces delta_{L-2-k}).
        std::vector<std::size_t> dbr(L - 1), dbf(L - 1);
        for (std::size_t k = 0; k + 1 < L; ++k) {
            dbr[k] = add("D-bwd(real) L" + std::to_string(L - 1 - k),
                         Resource::StBank, db_cycles[k], 0,
                         k ? std::vector<std::size_t>{dbr[k - 1]}
                           : std::vector<std::size_t>{dfr[L - 1]});
            dbf[k] = add("D-bwd(fake) L" + std::to_string(L - 1 - k),
                         Resource::StBank, db_cycles[k], 0,
                         k ? std::vector<std::size_t>{dbf[k - 1]}
                           : std::vector<std::size_t>{dff[L - 1]});
        }
        // Weight-gradient jobs: Dw layer i needs d_{i-1} (forward
        // data) and delta_i (from the loss for the top layer,
        // otherwise from the backward job of layer i+1).
        auto delta_producer = [&](const std::vector<std::size_t> &df_c,
                                  const std::vector<std::size_t> &db_c,
                                  std::size_t i) {
            return i == L - 1 ? df_c[L - 1] : db_c[L - 2 - i];
        };
        for (int pass = 0; pass < 2; ++pass) {
            const auto &df_c = pass == 0 ? dfr : dff;
            const auto &db_c = pass == 0 ? dbr : dbf;
            const char *tag = pass == 0 ? "real" : "fake";
            for (std::size_t i = 0; i < L; ++i) {
                std::vector<std::size_t> deps{
                    delta_producer(df_c, db_c, i)};
                if (i > 0)
                    deps.push_back(df_c[i - 1]);
                std::size_t dw = add(
                    "Dw(" + std::string(tag) + ") L" +
                        std::to_string(i),
                    Resource::WBank, dw_cycles[i],
                    gradStreamBytes(model.disc[i], bpe),
                    std::move(deps));
                // Buffer lifetimes: forward data d_{i-1} (held in the
                // Data buffer) and delta_i (Error buffer) both live
                // until this consumer retires.
                if (i > 0)
                    dag.claims.push_back(
                        {df_c[i - 1], dw,
                         elem_bytes(model.disc[i - 1]), "data"});
                dag.claims.push_back({delta_producer(df_c, db_c, i),
                                      dw,
                                      i == L - 1
                                          ? elem_bytes(model.disc[L - 1])
                                          : std::uint64_t(
                                                model.disc[i]
                                                    .outputElems()) *
                                                bpe,
                                      "error"});
            }
        }
        return dag;
    }

    // Generator update (Fig. 8(b)).
    auto gb_cycles = perLayerCycles(design, model, Phase::GenBackward);
    auto gw_cycles = perLayerCycles(design, model, Phase::GenWeight);

    std::vector<std::size_t> df(L);
    for (std::size_t i = 0; i < L; ++i)
        df[i] = add("D-fwd L" + std::to_string(i), Resource::StBank,
                    df_cycles[i], weightBytes(model.disc[i], bpe),
                    i ? std::vector<std::size_t>{df[i - 1]}
                      : std::vector<std::size_t>{gf[Lg - 1]});
    std::vector<std::size_t> db(L - 1);
    for (std::size_t k = 0; k + 1 < L; ++k)
        db[k] = add("D-bwd L" + std::to_string(L - 1 - k),
                    Resource::StBank, db_cycles[k], 0,
                    k ? std::vector<std::size_t>{db[k - 1]}
                      : std::vector<std::size_t>{df[L - 1]});
    // Error back through G: gb job k2 handles gen layer Lg-1-k2 and
    // produces the error at gen layer Lg-2-k2's output.
    std::vector<std::size_t> gb(Lg - 1);
    for (std::size_t k = 0; k + 1 < Lg; ++k)
        gb[k] = add("G-bwd L" + std::to_string(Lg - 1 - k),
                    Resource::StBank, gb_cycles[k], 0,
                    k ? std::vector<std::size_t>{gb[k - 1]}
                      : std::vector<std::size_t>{db[L - 2]});
    auto gdelta_producer = [&](std::size_t j) {
        return j == Lg - 1 ? db[L - 2] : gb[Lg - 2 - j];
    };
    for (std::size_t j = 0; j < Lg; ++j) {
        std::vector<std::size_t> deps{gdelta_producer(j)};
        if (j > 0)
            deps.push_back(gf[j - 1]);
        std::size_t gw =
            add("Gw L" + std::to_string(j), Resource::WBank,
                gw_cycles[j], gradStreamBytes(model.gen[j], bpe),
                std::move(deps));
        if (j > 0)
            dag.claims.push_back({gf[j - 1], gw,
                                  elem_bytes(model.gen[j - 1]),
                                  "data"});
        dag.claims.push_back({gdelta_producer(j), gw,
                              elem_bytes(model.gen[j]), "error"});
    }
    return dag;
}

EventRunStats
simulateEvents(const UpdateDag &dag, int samples,
               const mem::OffChipConfig &offchip)
{
    GANACC_ASSERT(samples >= 1, "need at least one sample");
    const std::size_t per_sample = dag.jobs.size();

    // Replicate the DAG across independent samples (the deferred
    // per-sample loops of Fig. 8); job indices stay topological.
    std::vector<Job> jobs;
    jobs.reserve(per_sample * samples);
    for (int s = 0; s < samples; ++s)
        for (const Job &j : dag.jobs) {
            Job copy = j;
            for (auto &d : copy.deps)
                d += std::size_t(s) * per_sample;
            jobs.push_back(std::move(copy));
        }

    const double cycles_per_byte =
        8.0 * offchip.frequencyHz / offchip.bandwidthBitsPerSec;

    EventRunStats trace;
    trace.spans.resize(jobs.size());
    std::uint64_t st_avail = 0, w_avail = 0, dram_avail = 0;
    std::uint64_t st_busy = 0, w_busy = 0, dram_busy = 0;

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Job &j = jobs[i];
        std::uint64_t ready = 0;
        for (std::size_t d : j.deps) {
            GANACC_ASSERT(d < i, "job DAG is not topological");
            ready = std::max(ready, trace.spans[d].end);
        }
        std::uint64_t &bank =
            j.resource == Resource::StBank ? st_avail : w_avail;
        std::uint64_t dram_cycles = std::uint64_t(
            std::ceil(double(j.dramBytes) * cycles_per_byte));
        std::uint64_t start = std::max(ready, bank);
        // DRAM policy mirrors the paper's Section V-C analysis: the
        // ∇W read+write streams of the W bank are the latency-bound
        // traffic and serialize against each other on the channel;
        // weight fetches for the ST bank are prefetchable (the Weight
        // buffer decouples them), so they charge bandwidth and can
        // stretch their own job, but do not queue behind gradient
        // streams.
        const bool serialized =
            dram_cycles > 0 && j.resource == Resource::WBank;
        if (serialized)
            start = std::max(start, dram_avail);
        // The DRAM stream overlaps compute; the job retires when the
        // slower of the two finishes.
        std::uint64_t end =
            start + std::max(j.computeCycles, dram_cycles);
        trace.spans[i] = {i, start, end};
        bank = end;
        if (serialized) {
            dram_avail = start + dram_cycles;
            trace.dramSpans.push_back({i, start, dram_avail});
        }
        dram_busy += dram_cycles;
        if (j.resource == Resource::StBank)
            st_busy += j.computeCycles;
        else
            w_busy += j.computeCycles;
        trace.makespan = std::max(trace.makespan, end);
    }

    if (trace.makespan > 0) {
        trace.stBusyFraction = double(st_busy) / double(trace.makespan);
        trace.wBusyFraction = double(w_busy) / double(trace.makespan);
        trace.dramBusyFraction =
            double(dram_busy) / double(trace.makespan);
    }

    // Buffer high-water marks by sweep line over the claim lifetimes.
    for (const char *name : {"data", "error"}) {
        std::vector<std::pair<std::uint64_t, std::int64_t>> events;
        for (int s = 0; s < samples; ++s) {
            std::size_t off = std::size_t(s) * per_sample;
            for (const BufferClaim &c : dag.claims) {
                if (c.buffer != name)
                    continue;
                events.emplace_back(
                    trace.spans[c.producer + off].end,
                    std::int64_t(c.bytes));
                events.emplace_back(trace.spans[c.consumer + off].end,
                                    -std::int64_t(c.bytes));
            }
        }
        std::sort(events.begin(), events.end(),
                  [](const auto &a, const auto &b) {
                      if (a.first != b.first)
                          return a.first < b.first;
                      return a.second < b.second; // frees first
                  });
        std::int64_t live = 0, peak = 0;
        for (const auto &[t, d] : events) {
            live += d;
            peak = std::max(peak, live);
        }
        if (std::string(name) == "data")
            trace.peakDataBytes = std::uint64_t(peak);
        else
            trace.peakErrorBytes = std::uint64_t(peak);
    }
    return trace;
}

std::uint64_t
eventCyclesPerSample(const Design &design, const GanModel &model,
                     UpdateKind kind, int samples)
{
    UpdateDag dag = buildUpdateDag(design, model, kind);
    mem::OffChipConfig offchip;
    EventRunStats trace = simulateEvents(dag, samples, offchip);
    // Ceiling division: flooring would understate steady-state cycles
    // whenever the makespan is not an exact multiple of the batch (a
    // throughput claim must round against itself).
    const std::uint64_t n = std::uint64_t(samples);
    return (trace.makespan + n - 1) / n;
}

void
writeChromeTrace(const UpdateDag &dag, const EventRunStats &trace,
                 int samples, std::ostream &os)
{
    const std::size_t per_sample = dag.jobs.size();
    GANACC_ASSERT(trace.spans.size() ==
                      per_sample * std::size_t(samples),
                  "trace does not match the DAG/sample count");
    // Build the event list and hand it to the shared obs emitter —
    // the one JSON-escaping/formatting path every trace goes through.
    // Timestamps are cycles, so the output is fully deterministic
    // (the golden trace test byte-compares it).
    std::vector<obs::TraceEvent> events;
    events.reserve(trace.spans.size() + trace.dramSpans.size());
    auto emit = [&](const std::string &name, int tid, std::uint64_t s,
                    std::uint64_t e, int sample) {
        if (e <= s)
            return;
        obs::TraceEvent ev;
        ev.name = name;
        ev.ph = 'X';
        ev.pid = 0;
        ev.tid = tid;
        ev.ts = s;
        ev.dur = e - s;
        ev.args = "{\"sample\":" + std::to_string(sample) + "}";
        events.push_back(std::move(ev));
    };
    for (std::size_t i = 0; i < trace.spans.size(); ++i) {
        const Job &j = dag.jobs[i % per_sample];
        emit(j.label, j.resource == Resource::StBank ? 0 : 1,
             trace.spans[i].start, trace.spans[i].end,
             int(i / per_sample));
    }
    for (const Span &s : trace.dramSpans)
        emit("dW stream", 2, s.start, s.end,
             int(s.job / per_sample));
    obs::writeChromeTraceJson(
        os, events,
        {{"tool", "ganacc event_sim"},
         {"lanes", "0=ST bank, 1=W bank, 2=DRAM"}},
        "ns");
}

std::string
renderGantt(const UpdateDag &dag, const EventRunStats &trace, int samples,
            int width)
{
    GANACC_ASSERT(width >= 10, "gantt too narrow");
    // Degenerate trace (empty DAG or zero-sample run): render a stub
    // instead of dividing by a zero makespan.
    if (trace.makespan == 0) {
        std::string idle(std::size_t(width), '.');
        return "ST bank " + idle + "\nW  bank " + idle +
               "\nDRAM dW " + idle + "\nsamples " +
               std::string(std::size_t(width), ' ') +
               "  (empty trace)\n";
    }
    const double per_col = double(trace.makespan) / width;
    const std::size_t per_sample = dag.jobs.size();

    // Busy cycles per bucket per row.
    std::vector<std::vector<double>> busy(3,
                                          std::vector<double>(width));
    auto charge = [&](int row, std::uint64_t s, std::uint64_t e) {
        if (e <= s)
            return;
        // Clamp both bucket indices: with width > makespan, per_col
        // drops below 1 and the float division can land on `width`.
        int c0 = std::clamp(int(double(s) / per_col), 0, width - 1);
        int c1 = std::clamp(int(double(e - 1) / per_col), c0,
                            width - 1);
        for (int c = c0; c <= c1; ++c) {
            double lo = std::max(double(s), c * per_col);
            double hi = std::min(double(e), (c + 1) * per_col);
            busy[std::size_t(row)][std::size_t(c)] +=
                std::max(0.0, hi - lo);
        }
    };
    for (std::size_t i = 0; i < trace.spans.size(); ++i) {
        const Job &j = dag.jobs[i % per_sample];
        charge(j.resource == Resource::StBank ? 0 : 1,
               trace.spans[i].start, trace.spans[i].end);
    }
    for (const Span &s : trace.dramSpans)
        charge(2, s.start, s.end);

    auto row = [&](int r) {
        std::string line;
        for (int c = 0; c < width; ++c) {
            double f = busy[std::size_t(r)][std::size_t(c)] / per_col;
            line += f > 0.66 ? '#' : f > 0.05 ? '-' : '.';
        }
        return line;
    };
    // Ruler with per-sample completion markers (the end of each
    // sample's last job).
    std::string ruler(std::size_t(width), ' ');
    for (int s = 0; s < samples; ++s) {
        std::uint64_t end = 0;
        for (std::size_t i = 0; i < per_sample; ++i)
            end = std::max(
                end,
                trace.spans[std::size_t(s) * per_sample + i].end);
        if (end == 0)
            continue; // all-zero-length sample: no marker, no underflow
        int c = std::clamp(int(double(end - 1) / per_col), 0,
                           width - 1);
        ruler[std::size_t(c)] = '|';
    }
    std::string out;
    out += "ST bank " + row(0) + "\n";
    out += "W  bank " + row(1) + "\n";
    out += "DRAM dW " + row(2) + "\n";
    out += "samples " + ruler + "\n";
    return out;
}

} // namespace sched
} // namespace ganacc
