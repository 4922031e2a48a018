/**
 * @file
 * The serve-warm and serve-mixed workloads: open-loop spec requests
 * through fleet::Router to two in-process loopback TCP shards (RF=2,
 * private tiers, a fresh store directory per fleet).
 *
 * Requests are drawn by seed from the Table V population (360 requests
 * over 250 distinct content keys). serve-warm pre-warms both replicas
 * of every key during set-up, so every request is a memory hit.
 * serve-mixed replaces a fixed share of requests with keys no shard has
 * seen: model jobs at PE budgets outside Table V, each of which runs
 * the closed form, writes through the on-disk store and triggers one
 * replication put.
 *
 * A run has three steps on one fleet: Poisson arrivals at the lo and
 * hi rates, then a closed-loop peak step of back-to-back fixed-size
 * batches. The traced run instead repeats the hi step untraced and
 * traced, attributes latency to the span tree the program already
 * emits, and times the layers' public calls from outside on the
 * step's own inputs.
 */

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common.hh"
#include "core/cycle_cache.hh"
#include "core/unrolling.hh"
#include "fleet/router.hh"
#include "gan/models.hh"
#include "obs/trace.hh"
#include "open_loop.hh"
#include "serve/daemon.hh"
#include "serve/engine.hh"
#include "serve/protocol.hh"
#include "serve/result_store.hh"
#include "sim/phase.hh"
#include "sim/stats_diff.hh"
#include "util/json.hh"

namespace perfbench {

namespace {

using namespace ganacc;
namespace fs = std::filesystem;

constexpr double kLoRate = 500.0;    ///< offered req/s, step lo
constexpr double kHiRate = 2000.0;   ///< offered req/s, step hi
/// serve-mixed: one request in every kFreshEvery carries a never-seen
/// key (25 %), at a seeded position within its block.
constexpr std::size_t kFreshEvery = 4;
constexpr int kShards = 2;
constexpr int kShardWorkers = 1; ///< 2 shards x 1 + generator + router
constexpr std::size_t kPeakBatch = 64;
constexpr std::size_t kPopulation = 360;
/// Fleet starts per untraced run; setup_s is their median.
constexpr int kSetupReps = 5;
/// serve-warm: how far the summed stage medians may sit from the
/// traced p50 (the end-to-end metrics' bound).
constexpr double kAccountedTolerance = 0.25;
/// Share of the run's seconds given to each step.
constexpr double kLoShare = 0.15, kHiShare = 0.75, kPeakShare = 0.10;

/** One (arch, unrolling, spec) simulation and its direct result. */
struct Triple
{
    core::ArchKind kind = core::ArchKind::NLR;
    sim::Unroll unroll;
    sim::ConvSpec spec;
    std::string key; ///< serve::contentKey
    sim::RunStats expect;
};

struct Row
{
    sim::PhaseFamily family;
    core::BankRole role;
    int pes;
};
constexpr Row kRows[] = {
    {sim::PhaseFamily::D, core::BankRole::ST, 1200},
    {sim::PhaseFamily::G, core::BankRole::ST, 1200},
    {sim::PhaseFamily::Dw, core::BankRole::W, 480},
    {sim::PhaseFamily::Gw, core::BankRole::W, 480},
};

Triple
makeTriple(core::ArchKind kind, const sim::Unroll &u,
           const sim::ConvSpec &spec)
{
    Triple t;
    t.kind = kind;
    t.unroll = u;
    t.spec = spec;
    t.key = serve::contentKey(kind, u, spec);
    return t;
}

/** A direct timing-only run: what every response must equal. */
void
fillExpected(std::vector<Triple> &ts)
{
    std::unordered_map<std::string, sim::RunStats> memo;
    for (Triple &t : ts) {
        auto it = memo.find(t.key);
        if (it == memo.end())
            it = memo.emplace(t.key, core::makeArch(t.kind, t.unroll)
                                         ->run(t.spec))
                     .first;
        t.expect = it->second;
    }
}

/** Every job of every Table V row of every model on every kind. */
std::vector<Triple>
tableVPopulation()
{
    std::vector<Triple> out;
    for (const auto &m : gan::allModels())
        for (const Row &row : kRows)
            for (core::ArchKind kind : core::allArchKinds()) {
                const sim::Unroll u =
                    core::paperUnroll(kind, row.role, row.family, row.pes);
                for (const auto &job : sim::familyJobs(m, row.family))
                    out.push_back(makeTriple(kind, u, job));
            }
    fillExpected(out);
    return out;
}

/** `need` distinct model jobs at PE budgets outside Table V, none
 *  sharing a content key with the population, in seeded order. */
std::vector<Triple>
freshTriples(const std::vector<Triple> &population, std::size_t need,
             std::uint64_t seed)
{
    if (need == 0)
        return {};
    std::unordered_set<std::string> seen;
    for (const Triple &t : population)
        seen.insert(t.key);
    std::vector<int> budgets;
    for (int b = 64; b <= 4096; b += 4)
        if (b != 480 && b != 1200)
            budgets.push_back(b);
    std::mt19937_64 rng(seed ^ 0xf7e5c0ffeeULL);
    std::shuffle(budgets.begin(), budgets.end(), rng);
    const auto models = gan::allModels();
    std::vector<Triple> out;
    for (int b : budgets) {
        for (const auto &m : models)
            for (const Row &row : kRows)
                for (core::ArchKind kind : core::allArchKinds()) {
                    const sim::Unroll u =
                        core::paperUnroll(kind, row.role, row.family, b);
                    for (const auto &job : sim::familyJobs(m, row.family)) {
                        Triple t = makeTriple(kind, u, job);
                        if (seen.insert(t.key).second)
                            out.push_back(std::move(t));
                    }
                }
        if (out.size() >= need)
            break;
    }
    std::shuffle(out.begin(), out.end(), rng);
    out.resize(std::min(out.size(), need));
    fillExpected(out);
    return out;
}

/** The seeded request mix of a run. */
class Mix
{
  public:
    Mix(const std::vector<Triple> &population,
        const std::vector<Triple> &fresh, bool mixed, std::uint64_t seed)
        : population_(population), fresh_(fresh), mixed_(mixed),
          rng_(seed), pick_(0, population.size() - 1)
    {
    }

    const Triple &
    next(bool *isFresh)
    {
        if (pos_ % kFreshEvery == 0)
            freshSlot_ = slot_(rng_);
        const bool f = mixed_ && pos_++ % kFreshEvery == freshSlot_ &&
                       nextFresh_ < fresh_.size();
        *isFresh = f;
        if (f)
            return fresh_[nextFresh_++];
        return population_[pick_(rng_)];
    }

    std::size_t freshLeft() const { return fresh_.size() - nextFresh_; }

  private:
    const std::vector<Triple> &population_;
    const std::vector<Triple> &fresh_;
    bool mixed_;
    std::mt19937_64 rng_;
    std::uniform_int_distribution<std::size_t> pick_;
    std::uniform_int_distribution<std::size_t> slot_{0, kFreshEvery - 1};
    std::size_t pos_ = 0, freshSlot_ = 0;
    std::size_t nextFresh_ = 0;
};

serve::Request
requestFor(const Triple &t, std::uint64_t id)
{
    serve::Request req;
    req.id = id;
    req.kind = t.kind;
    req.unroll = t.unroll;
    req.hasSpec = true;
    req.spec = t.spec;
    return req;
}

/** Two shards on ephemeral loopback ports, each with private tiers
 *  and its own store directory under `root`. */
class Fleet
{
  public:
    explicit Fleet(const std::string &root)
    {
        fs::remove_all(root);
        fs::create_directories(root);
        for (int i = 0; i < kShards; ++i) {
            auto sh = std::make_unique<Shard>();
            serve::EngineOptions eo;
            eo.jobs = kShardWorkers;
            eo.cacheDir = root + "/store" + std::to_string(i);
            eo.ownCache = true;
            eo.shedOverload = true;
            sh->engine = std::make_unique<serve::Engine>(eo);
            const int listener =
                serve::listenTcp("127.0.0.1:0", &sh->bound);
            Shard *raw = sh.get();
            sh->thread = std::thread([raw, listener] {
                serve::serveListener(listener, *raw->engine, raw->stop);
            });
            shards_.push_back(std::move(sh));
        }
    }

    ~Fleet()
    {
        for (auto &sh : shards_)
            sh->stop.store(true);
        for (auto &sh : shards_)
            sh->thread.join();
    }

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    std::vector<std::string>
    addresses() const
    {
        std::vector<std::string> out;
        for (const auto &sh : shards_)
            out.push_back(sh->bound);
        return out;
    }

  private:
    struct Shard
    {
        std::string bound;
        std::unique_ptr<serve::Engine> engine;
        std::thread thread;
        std::atomic<bool> stop{false};
    };
    std::vector<std::unique_ptr<Shard>> shards_;
};

/** A fleet plus the router connected to it (router torn down first). */
struct Cluster
{
    std::unique_ptr<Fleet> fleet;
    std::unique_ptr<fleet::Router> router;

    explicit Cluster(const std::string &root)
        : fleet(std::make_unique<Fleet>(root))
    {
        fleet::RouterOptions ro;
        ro.topology.shards = fleet->addresses();
        router = std::make_unique<fleet::Router>(std::move(ro));
    }

    ~Cluster() { router.reset(); }
};

/** Requests sent in one step and what came back. */
struct Step
{
    std::vector<const Triple *> triples;
    std::vector<std::string> lines;
    std::vector<std::string> responses;
    std::uint64_t firstId = 0;
    std::size_t freshCount = 0;

    void
    add(const Triple &t, std::uint64_t &nextId)
    {
        if (lines.empty())
            firstId = nextId;
        triples.push_back(&t);
        lines.push_back(serve::encodeRequest(requestFor(t, nextId++)));
        responses.emplace_back();
    }

    void
    draw(Mix &mix, std::size_t n, std::uint64_t &nextId)
    {
        for (std::size_t j = 0; j < n; ++j) {
            bool fresh = false;
            add(mix.next(&fresh), nextId);
            freshCount += fresh ? 1 : 0;
        }
    }

    /** Send [first, first + n) as one transactLines batch. */
    void
    transact(fleet::Router &router, std::size_t first, std::size_t n)
    {
        const std::vector<std::string> batch(
            lines.begin() + long(first), lines.begin() + long(first + n));
        std::vector<std::string> out = router.transactLines(batch);
        for (std::size_t k = 0; k < n && k < out.size(); ++k)
            responses[first + k] = std::move(out[k]);
    }
};

/** Tier tallies over checked responses. */
struct Tiers
{
    std::map<std::string, double> count;
    double total = 0.0;
};

/** Check every response and return how many passed; tier tallies and
 *  decoded copies go to `tiers` and `decoded` when given. */
std::size_t
verify(const Step &step, Report &report, Tiers *tiers = nullptr,
       std::vector<serve::Response> *decoded = nullptr)
{
    std::size_t passed = 0;
    for (std::size_t j = 0; j < step.lines.size(); ++j) {
        serve::Response rsp;
        bool parsed = true;
        try {
            rsp = serve::decodeResponse(step.responses[j]);
        } catch (...) {
            parsed = false;
        }
        const std::uint64_t id = step.firstId + j;
        const bool ok = parsed && rsp.ok && rsp.id == id &&
                        sim::statsEqual(rsp.stats, step.triples[j]->expect);
        report.check(ok, "response " + std::to_string(id) + ": " +
                             (parsed ? (rsp.ok ? "stats or id differ"
                                               : rsp.error)
                                     : "undecodable"));
        passed += ok ? 1 : 0;
        if (ok && tiers) {
            tiers->count[rsp.cache] += 1.0;
            tiers->total += 1.0;
        }
        if (decoded)
            decoded->push_back(std::move(rsp));
    }
    return passed;
}

struct OpenLoopResult
{
    Step step;
    StepTrace trace;
    StepSummary summary;
};

/** Arrivals at `rate` for about `seconds`: a whole number of fresh-key
 *  blocks, so every seed sends the same requests and fresh keys. */
OpenLoopResult
openLoopStep(Cluster &c, Mix &mix, double rate, double seconds,
             std::uint64_t seed, std::uint64_t &nextId)
{
    OpenLoopResult r;
    const std::size_t count =
        kFreshEvery * std::size_t(rate * seconds / double(kFreshEvery));
    const std::vector<double> due = poissonSchedule(rate, count, seed);
    r.step.draw(mix, due.size(), nextId);
    WallClock clock;
    r.trace = runOpenLoop(due, clock, [&](std::size_t first, std::size_t n) {
        r.step.transact(*c.router, first, n);
    });
    r.summary = summarize(r.trace);
    if (r.summary.backlogGrowing)
        std::cerr << "perfbench: backlog grew during the " << rate
                  << " req/s step (offered load above capacity)\n";
    return r;
}

/** Closed loop: back-to-back batches of kPeakBatch, in passes of the
 *  population size, for `seconds`. */
struct PeakResult
{
    std::vector<Step> passes;
    std::vector<double> passSeconds;
};

PeakResult
peakStep(Cluster &c, Mix &mix, double seconds, bool mixed,
         std::uint64_t &nextId)
{
    PeakResult r;
    double spent = 0.0;
    while (r.passes.size() < 3 || spent < seconds) {
        if (mixed && mix.freshLeft() < kPopulation)
            break; // the fresh pool is sized for well beyond `seconds`
        Step step;
        step.draw(mix, kPopulation, nextId);
        const auto t0 = Clock::now();
        for (std::size_t first = 0; first < step.lines.size();
             first += kPeakBatch)
            step.transact(*c.router, first,
                          std::min(kPeakBatch, step.lines.size() - first));
        r.passSeconds.push_back(secondsSince(t0));
        spent += r.passSeconds.back();
        r.passes.push_back(std::move(step));
    }
    return r;
}

/** Start a fleet on fresh stores and pre-warm it, `reps` times; keep
 *  the last fleet. `setupS` gets each start's time. */
std::unique_ptr<Cluster>
setUp(const RunConfig &cfg, int reps, const std::vector<Triple> &population,
      std::uint64_t &nextId, std::vector<double> &setupS, Report &report)
{
    std::unique_ptr<Cluster> cluster;
    for (int i = 0; i < reps; ++i) {
        cluster.reset();
        const std::string root = cfg.scratch + "/fleet" + std::to_string(i);
        const auto t0 = Clock::now();
        cluster = std::make_unique<Cluster>(root);
        // Pre-warm: every population key is simulated on its primary
        // and replicated to the other shard by the router's put.
        Step warm;
        for (const Triple &t : population)
            warm.add(t, nextId);
        warm.transact(*cluster->router, 0, warm.lines.size());
        setupS.push_back(secondsSince(t0));
        verify(warm, report);
    }
    return cluster;
}

std::size_t
expectedFresh(double seconds)
{
    // Mean fresh draws of the open-loop steps plus a closed-loop peak
    // step far faster than today's fleet, with headroom.
    const double openLoop =
        (kLoRate * kLoShare + kHiRate * kHiShare) * seconds;
    const double peak = 5000.0 * kPeakShare * seconds;
    return std::size_t((openLoop + peak) * 1.3) / kFreshEvery + 1000;
}

// ---------------------------------------------------------------- spans

struct SpanRec
{
    std::string name;
    std::uint64_t ts = 0, dur = 0;
    std::string span, parent;
    std::uint64_t id = 0;
    bool hasId = false;
    std::vector<std::size_t> children;
};

std::vector<SpanRec>
parseSpans(const std::vector<obs::TraceEvent> &events)
{
    std::vector<SpanRec> out;
    for (const obs::TraceEvent &ev : events) {
        if (ev.args.empty())
            continue;
        const util::json::Value args = util::json::parse(ev.args);
        if (!args.isObject())
            continue;
        const util::json::Object &o = args.asObject();
        if (!o.contains("span"))
            continue; // not part of a request trace
        SpanRec s;
        s.name = ev.name;
        s.ts = ev.ts;
        s.dur = ev.dur;
        s.span = o.at("span").asString();
        if (const util::json::Value *p = o.find("parent"))
            s.parent = p->asString();
        if (const util::json::Value *id = o.find("id")) {
            s.id = id->asUint64();
            s.hasId = true;
        }
        out.push_back(std::move(s));
    }
    std::unordered_map<std::string, std::size_t> bySpan;
    for (std::size_t i = 0; i < out.size(); ++i)
        bySpan.emplace(out[i].span, i);
    for (std::size_t i = 0; i < out.size(); ++i) {
        auto it = bySpan.find(out[i].parent);
        if (!out[i].parent.empty() && it != bySpan.end())
            out[it->second].children.push_back(i);
    }
    return out;
}

/** Duration minus the part of the span its descendants cover. */
double
selfUs(const std::vector<SpanRec> &spans, std::size_t i)
{
    const std::uint64_t a = spans[i].ts, b = spans[i].ts + spans[i].dur;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    std::vector<std::size_t> stack(spans[i].children);
    while (!stack.empty()) {
        const SpanRec &s = spans[stack.back()];
        stack.pop_back();
        const std::uint64_t lo = std::max(a, s.ts);
        const std::uint64_t hi = std::min(b, s.ts + s.dur);
        if (hi > lo)
            iv.emplace_back(lo, hi);
        stack.insert(stack.end(), s.children.begin(), s.children.end());
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, end = a;
    for (const auto &[lo, hi] : iv) {
        const std::uint64_t from = std::max(lo, end);
        if (hi > from)
            covered += hi - from;
        end = std::max(end, hi);
    }
    return double(spans[i].dur - std::min(covered, spans[i].dur));
}

const SpanRec *
childNamed(const std::vector<SpanRec> &spans, const SpanRec &s,
           const std::string &name, std::size_t *index = nullptr)
{
    for (std::size_t c : s.children)
        if (spans[c].name == name) {
            if (index)
                *index = c;
            return &spans[c];
        }
    return nullptr;
}

/** The latency components of one traced request, in ms. */
const char *const kComponents[] = {
    "gen.wait",          // due -> its batch was sent
    "fleet.router",      // fleet.request self: router + wire + kernel
    "fleet.replicate",   // after the root span closed: put round
    "serve.decode",      "serve.queue_wait", "serve.cache",
    "serve.simulate",    "serve.encode",
    "serve.request",     // hop span self: gaps inside the shard
};
constexpr std::size_t kNumComponents = std::size(kComponents);

void
analyzeSpans(const OpenLoopResult &traced,
             const std::vector<serve::Response> &decoded,
             const std::vector<obs::TraceEvent> &events, bool mixed,
             Report &report)
{
    const std::vector<SpanRec> spans = parseSpans(events);
    const std::uint64_t firstId = traced.step.firstId;
    const std::size_t n = traced.step.lines.size();
    std::vector<const SpanRec *> root(n, nullptr);
    std::vector<std::size_t> rootIdx(n, 0);
    std::vector<double> putUs;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRec &s = spans[i];
        if (s.name == "fleet.request" && s.hasId && s.id >= firstId &&
            s.id - firstId < n) {
            root[s.id - firstId] = &s;
            rootIdx[s.id - firstId] = i;
        }
        if (s.name == "serve.put")
            putUs.push_back(double(s.dur));
    }

    std::vector<double> requestUs, transportUs, serviceUs, latMs;
    std::vector<double> decodeUs, queueUs, cacheUs, simulateUs, encodeUs;
    std::vector<std::vector<double>> comp(kNumComponents);
    std::size_t complete = 0;
    for (std::size_t j = 0; j < n; ++j) {
        const double rttUs =
            (traced.trace.done[j] - traced.trace.send[j]) * 1e6;
        if (j < decoded.size() && decoded[j].ok) {
            serviceUs.push_back(double(decoded[j].latencyUs));
            transportUs.push_back(rttUs - double(decoded[j].latencyUs));
        }
        if (!root[j])
            continue;
        const SpanRec &r = *root[j];
        // The primary hop is the serve.request that holds serve.cache.
        // Single-flight followers ("dup") never reach a worker, so they
        // have no hop: their whole time is the router's.
        const SpanRec *hop = nullptr;
        std::size_t hopIdx = 0;
        for (std::size_t c : r.children)
            if (spans[c].name == "serve.request" &&
                childNamed(spans, spans[c], "serve.cache")) {
                hop = &spans[c];
                hopIdx = c;
            }
        const bool dup = j < decoded.size() && decoded[j].cache == "dup";
        if (!hop && !dup)
            continue;
        ++complete;
        requestUs.push_back(double(r.dur));
        latMs.push_back((traced.trace.done[j] - traced.trace.due[j]) * 1e3);

        double parts[kNumComponents] = {};
        parts[0] = (traced.trace.send[j] - traced.trace.due[j]) * 1e6;
        parts[1] = selfUs(spans, rootIdx[j]);
        parts[2] = rttUs - double(r.dur);
        std::size_t idx = 0;
        if (hop && childNamed(spans, *hop, "serve.decode", &idx))
            decodeUs.push_back(parts[3] = selfUs(spans, idx));
        if (hop && childNamed(spans, *hop, "serve.queue_wait", &idx))
            queueUs.push_back(parts[4] = selfUs(spans, idx));
        std::size_t cacheIdx = 0;
        if (const SpanRec *cache =
                hop ? childNamed(spans, *hop, "serve.cache", &cacheIdx)
                    : nullptr) {
            cacheUs.push_back(parts[5] = selfUs(spans, cacheIdx));
            if (childNamed(spans, *cache, "serve.simulate", &idx))
                simulateUs.push_back(parts[6] = selfUs(spans, idx));
        }
        if (hop && childNamed(spans, *hop, "serve.encode", &idx))
            encodeUs.push_back(parts[7] = selfUs(spans, idx));
        if (hop)
            parts[8] = selfUs(spans, hopIdx);
        for (std::size_t k = 0; k < kNumComponents; ++k)
            comp[k].push_back(parts[k] / 1e3);
    }
    report.check(complete == n, "every traced request has a fleet.request "
                                "root and, unless coalesced, a serving "
                                "hop (" +
                                    std::to_string(complete) + " of " +
                                    std::to_string(n) + ")");

    report.set("fleet.request_us.p50", percentile(requestUs, 0.50), "us");
    report.set("fleet.request_us.p99", percentile(requestUs, 0.99), "us");
    report.set("fleet.transport_us.p50", percentile(transportUs, 0.50),
               "us");
    report.set("fleet.transport_us.p99", percentile(transportUs, 0.99),
               "us");
    report.set("serve.service_us.p50", percentile(serviceUs, 0.50), "us");
    report.set("serve.service_us.p99", percentile(serviceUs, 0.99), "us");
    const std::pair<const char *, std::vector<double> *> stages[] = {
        {"decode", &decodeUs},     {"queue_wait", &queueUs},
        {"cache", &cacheUs},       {"encode", &encodeUs},
        {"simulate", &simulateUs}, {"put", &putUs},
    };
    for (const auto &[name, v] : stages) {
        report.set(std::string("serve.") + name + "_us.p50",
                   percentile(*v, 0.50), "us");
        report.set(std::string("serve.") + name + "_us.p99",
                   percentile(*v, 0.99), "us");
    }

    // Attribution of the traced hi-step latency. Means add up exactly;
    // the sum of per-component medians only approximates the median.
    const double meanLat = mean(latMs), p50Lat = percentile(latMs, 0.5);
    double sumMean = 0.0, sumP50 = 0.0, best = -1.0;
    std::size_t bestK = 0;
    std::cerr << "perfbench: traced hi-step latency attribution over "
              << complete << " requests (mean " << meanLat << " ms, p50 "
              << p50Lat << " ms)\n";
    for (std::size_t k = 0; k < kNumComponents; ++k) {
        const double m = mean(comp[k]), p = percentile(comp[k], 0.5);
        sumMean += m;
        sumP50 += p;
        if (m > best) {
            best = m;
            bestK = k;
        }
        char line[160];
        std::snprintf(line, sizeof line,
                      "  %-18s mean %9.3f ms  p50 %9.3f ms  share %5.1f%%\n",
                      kComponents[k], m, p,
                      meanLat > 0 ? 100.0 * m / meanLat : 0.0);
        std::cerr << line;
    }
    std::cerr << "  components sum to " << sumMean << " ms of the mean, "
              << sumP50 << " ms against the p50; largest share: "
              << kComponents[bestK] << "\n";
    const double accounted = p50Lat > 0 ? sumP50 / p50Lat : 0.0;
    report.set("obs.p50_accounted", accounted, "ratio");
    // On serve-warm every request takes the same path, so the stage
    // medians must add up to the latency median.
    if (!mixed)
        report.check(std::fabs(accounted - 1.0) <= kAccountedTolerance,
                     "stage self-times and transport account for the "
                     "traced p50 (ratio " +
                         std::to_string(accounted) + ")");
    report.set("obs.largest_share",
               meanLat > 0 ? best / meanLat : 0.0, "ratio");
}

// ------------------------------------------------------ outside timings

/** Median over `passes` of ns per call of fn(i) for i in [0, n). */
template <class Fn>
double
nsPerCall(std::size_t n, Fn &&fn, int passes = 5)
{
    std::vector<double> v;
    for (int p = 0; p < passes; ++p) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        v.push_back(secondsSince(t0) * 1e9 / double(std::max<std::size_t>(
                                                  n, 1)));
    }
    return median(v);
}

void
outsideTimings(const RunConfig &cfg, const Step &step,
               const std::vector<serve::Response> &decoded,
               fleet::Router &router, Report &report)
{
    std::vector<serve::Request> reqs;
    for (std::size_t j = 0; j < step.triples.size(); ++j)
        reqs.push_back(requestFor(*step.triples[j], step.firstId + j));
    std::size_t sink = 0;
    report.set("serve.codec_ns.encode_request",
               nsPerCall(reqs.size(), [&](std::size_t i) {
                   sink += serve::encodeRequest(reqs[i]).size();
               }),
               "ns");
    report.set("serve.codec_ns.decode_request",
               nsPerCall(step.lines.size(), [&](std::size_t i) {
                   sink += serve::decodeRequest(step.lines[i]).id;
               }),
               "ns");
    report.set("serve.codec_ns.encode_response",
               nsPerCall(decoded.size(), [&](std::size_t i) {
                   sink += serve::encodeResponse(decoded[i]).size();
               }),
               "ns");
    report.set("serve.codec_ns.decode_response",
               nsPerCall(step.responses.size(), [&](std::size_t i) {
                   sink += serve::decodeResponse(step.responses[i]).id;
               }),
               "ns");
    report.set("fleet.ring_ns",
               nsPerCall(step.triples.size(), [&](std::size_t i) {
                   sink += router.ring()
                               .replicas(step.triples[i]->key, 2)
                               .size();
               }),
               "ns");

    // The distinct triples of the step, in first-seen order.
    std::vector<const Triple *> distinct;
    {
        std::unordered_set<std::string> seen;
        for (const Triple *t : step.triples)
            if (seen.insert(t->key).second)
                distinct.push_back(t);
    }

    core::CycleCache cache;
    for (const Triple *t : distinct)
        cache.stats(t->kind, t->unroll, t->spec);
    report.set("core.cache_hit_ns",
               nsPerCall(step.triples.size(), [&](std::size_t i) {
                   const Triple &t = *step.triples[i];
                   sink += cache.stats(t.kind, t.unroll, t.spec).cycles;
               }),
               "ns");

    const std::size_t sample = std::min<std::size_t>(distinct.size(), 2000);
    std::vector<double> fastUs, storeUs;
    {
        serve::ResultStore store(cfg.scratch + "/store-timing");
        for (std::size_t i = 0; i < sample; ++i) {
            const Triple &t = *distinct[i];
            auto t0 = Clock::now();
            const sim::RunStats st =
                core::makeArch(t.kind, t.unroll)->run(t.spec);
            fastUs.push_back(secondsSince(t0) * 1e6);
            t0 = Clock::now();
            store.store(t.kind, t.unroll, t.spec, st);
            storeUs.push_back(secondsSince(t0) * 1e6);
        }
    }
    report.set("sim.fast_run_us", median(fastUs), "us");
    report.set("serve.store_write_us", median(storeUs), "us");

    {
        serve::EngineOptions eo;
        eo.jobs = 1;
        eo.ownCache = true;
        serve::Engine engine(eo);
        for (const serve::Request &r : reqs)
            engine.handle(r);
        std::size_t done = 0;
        const auto t0 = Clock::now();
        while (secondsSince(t0) < 1.0)
            for (std::size_t k = 0; k < 1000; ++k)
                sink += engine.handle(reqs[done++ % reqs.size()]).id;
        report.set("serve.engine_inproc_rps",
                   double(done) / secondsSince(t0), "1/s");
    }
    if (sink == 0)
        std::cerr << "perfbench: empty outside timings\n";
}

void
setTierShares(const Tiers &tiers, Report &report)
{
    for (const char *tier : {"mem", "disk", "sim", "dup"}) {
        auto it = tiers.count.find(tier);
        report.set(std::string("serve.tier.") + tier,
                   tiers.total > 0 && it != tiers.count.end()
                       ? it->second / tiers.total
                       : 0.0,
                   "ratio");
    }
}

void
checkPuts(const fleet::Router::Counters &before,
          const fleet::Router::Counters &after, std::size_t fresh,
          Report &report)
{
    const std::uint64_t puts = after.puts - before.puts;
    report.check(puts == fresh && after.skippedPuts == before.skippedPuts,
                 "fleet puts " + std::to_string(puts) +
                     " equal fresh requests " + std::to_string(fresh));
}

} // namespace

void
runServe(const RunConfig &cfg, bool mixed, Report &report)
{
    const std::vector<Triple> population = tableVPopulation();
    report.check(population.size() == kPopulation,
                 "Table V population is 360 requests");
    const std::size_t needFresh = mixed ? expectedFresh(cfg.seconds) : 0;
    const std::vector<Triple> fresh =
        freshTriples(population, needFresh, cfg.seed);
    report.check(fresh.size() == needFresh,
                 "enough never-seen keys for the run");
    Mix mix(population, fresh, mixed, cfg.seed * 0x9e3779b97f4a7c15ULL + 1);
    std::uint64_t nextId = 1;
    std::vector<double> setupS;
    std::unique_ptr<Cluster> c = setUp(cfg, cfg.trace ? 1 : kSetupReps,
                                       population, nextId, setupS, report);
    const double hiSeconds = kHiShare * cfg.seconds;

    if (!cfg.trace) {
        const auto before = c->router->counters();
        const OpenLoopResult lo = openLoopStep(
            *c, mix, kLoRate, kLoShare * cfg.seconds, cfg.seed * 2 + 1,
            nextId);
        const OpenLoopResult hi = openLoopStep(*c, mix, kHiRate, hiSeconds,
                                               cfg.seed * 2 + 2, nextId);
        const PeakResult peak =
            peakStep(*c, mix, kPeakShare * cfg.seconds, mixed, nextId);
        std::size_t freshSent = lo.step.freshCount + hi.step.freshCount;
        verify(lo.step, report);
        verify(hi.step, report);
        double okPeak = 0.0, peakSeconds = 0.0;
        for (std::size_t p = 0; p < peak.passes.size(); ++p) {
            okPeak += double(verify(peak.passes[p], report));
            peakSeconds += peak.passSeconds[p];
            freshSent += peak.passes[p].freshCount;
        }
        checkPuts(before, c->router->counters(), freshSent, report);
        report.set("setup_s", median(setupS), "s");
        report.set("wall_s", median(peak.passSeconds), "s");
        report.set("p50_ms.lo", lo.summary.p50Ms, "ms");
        report.set("p99_ms.lo", lo.summary.p99Ms, "ms");
        report.set("p50_ms.hi", hi.summary.p50Ms, "ms");
        report.set("p99_ms.hi", hi.summary.p99Ms, "ms");
        report.set("p999_ms.hi", hi.summary.p999Ms, "ms");
        report.set("peak_rps", okPeak / peakSeconds, "1/s");
        report.set("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    // Traced run: the hi step untraced (the overhead baseline), then
    // again with the span sink armed in live mode.
    const OpenLoopResult base = openLoopStep(*c, mix, kHiRate, hiSeconds,
                                             cfg.seed * 2 + 2, nextId);
    verify(base.step, report);
    report.set("gen.late_us.p99", base.summary.lateP99Us, "us");
    report.set("gen.backlog_end", base.summary.backlogEnd, "count");
    report.set("gen.backlog_growing", base.summary.backlogGrowing ? 1 : 0,
               "count");

    obs::TraceSink &sink = obs::TraceSink::instance();
    sink.enable("");
    const auto before = c->router->counters();
    const OpenLoopResult traced = openLoopStep(
        *c, mix, kHiRate, hiSeconds, cfg.seed * 2 + 3, nextId);
    const auto after = c->router->counters();
    std::vector<obs::TraceEvent> events;
    for (const auto &[addr, batch] : c->router->drainTracesAll())
        if (!batch.empty())
            for (obs::TraceEvent &ev : serve::decodeSpanBatch(batch))
                events.push_back(std::move(ev));
    sink.disable();
    sink.drain();

    Tiers tracedTiers;
    std::vector<serve::Response> decoded;
    verify(traced.step, report, &tracedTiers, &decoded);
    checkPuts(before, after, traced.step.freshCount, report);
    setTierShares(tracedTiers, report);
    report.set("fleet.batches", double(traced.trace.batchSizes.size()),
               "count");
    report.set("fleet.batch_lines.mean", traced.summary.meanBatch, "count");
    report.set("fleet.puts", double(after.puts - before.puts), "count");
    report.set("fleet.skipped_puts",
               double(after.skippedPuts - before.skippedPuts), "count");
    report.set("fleet.overload_retries",
               double(after.overloadRetries - before.overloadRetries),
               "count");
    report.set("fleet.failovers",
               double(after.failovers - before.failovers), "count");
    report.set("obs.trace_overhead_ms",
               traced.summary.p50Ms - base.summary.p50Ms, "ms");
    analyzeSpans(traced, decoded, events, mixed, report);
    outsideTimings(cfg, traced.step, decoded, *c->router, report);
}

} // namespace perfbench
