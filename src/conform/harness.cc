/**
 * @file
 * Conformance-harness implementation: the two SUT wrappers, the
 * response/counter/store differs and the lockstep driver.
 */

#include "conform/harness.hh"

#include <atomic>
#include <chrono>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "conform/fdstream.hh"
#include "conform/reference.hh"
#include "core/cycle_cache.hh"
#include "fault/fs_faults.hh"
#include "fleet/ring.hh"
#include "fleet/router.hh"
#include "obs/metrics.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/engine.hh"
#include "serve/protocol.hh"
#include "sim/json.hh"
#include "sim/stats_diff.hh"
#include "util/logging.hh"

namespace fs = std::filesystem;

namespace ganacc {
namespace conform {

namespace {

bool
writeAllFd(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += std::size_t(n);
    }
    return true;
}

/** A daemon under test: start, exchange lines, stop-and-drain. */
class Sut
{
  public:
    virtual ~Sut() = default;

    virtual void start() = 0;

    /** Pipeline `lines`, then read one response line per request.
     *  Throws util::FatalError when the transport dies. */
    virtual std::vector<std::string>
    transact(const std::vector<std::string> &lines) = 0;

    /** Stop the daemon and drain. Returns "" when every accepted
     *  request was answered, else a description of the violation. */
    virtual std::string stop() = 0;

    /** The EvictMemory op: clear whatever memory tier this SUT's
     *  daemon actually reads (the process singleton by default; a
     *  fleet clears every shard's private cache). */
    virtual void
    evictMemory()
    {
        core::CycleCache::instance().clear();
    }

    /** Emulate process death: stop-drain, wipe the memory tier the
     *  way an exec() would, start a fresh daemon over the same
     *  store directory. A fleet overrides this with a rolling
     *  restart of one shard. */
    virtual std::string
    restart()
    {
        const std::string err = stop();
        core::CycleCache::instance().clear();
        start();
        return err;
    }

  protected:
    /** Shared drain verdict: every line sent must have been read and
     *  answered by the transport before it returned. */
    static std::string
    drainVerdict(const serve::ServeTotals &totals,
                 std::uint64_t sent, const std::string &threadError)
    {
        if (!threadError.empty())
            return "daemon thread failed: " + threadError;
        if (totals.lines != sent)
            return "daemon read " + std::to_string(totals.lines) +
                   " of " + std::to_string(sent) + " request lines";
        if (totals.responses != totals.lines)
            return "daemon answered " +
                   std::to_string(totals.responses) + " of " +
                   std::to_string(totals.lines) +
                   " accepted requests";
        return "";
    }

    static serve::EngineOptions
    engineOptions(const RunOptions &opt, const std::string &storeDir)
    {
        serve::EngineOptions eo;
        eo.maxQueue = opt.maxQueue;
        eo.cacheDir = storeDir;
        eo.deterministic = true;
        return eo;
    }
};

/** AF_UNIX daemon: serve::runSocketServer + serve::Client. */
class UnixSut : public Sut
{
  public:
    UnixSut(const RunOptions &opt, std::string storeDir)
        : opt_(opt), storeDir_(std::move(storeDir)),
          socket_(opt.scratchDir + "/sock")
    {
    }

    ~UnixSut() override
    {
        try {
            if (thread_.joinable())
                stop();
        } catch (...) {
        }
    }

    void
    start() override
    {
        sent_ = 0;
        totals_ = {};
        threadError_.clear();
        stop_.store(false);
        engine_ = std::make_unique<serve::Engine>(
            engineOptions(opt_, storeDir_));
        thread_ = std::thread([this] {
            try {
                totals_ =
                    serve::runSocketServer(socket_, *engine_, stop_);
            } catch (const std::exception &e) {
                threadError_ = e.what();
            }
        });
        client_ = std::make_unique<serve::Client>();
        for (int attempt = 0;; ++attempt) {
            try {
                client_->connect(socket_);
                break;
            } catch (const std::exception &) {
                if (!threadError_.empty() || attempt > 2500)
                    util::fatal("conform: cannot reach daemon at ",
                                socket_, threadError_.empty()
                                             ? ""
                                             : ": " + threadError_);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            }
        }
    }

    std::vector<std::string>
    transact(const std::vector<std::string> &lines) override
    {
        for (const std::string &line : lines)
            client_->sendLine(line);
        sent_ += lines.size();
        std::vector<std::string> out;
        out.reserve(lines.size());
        for (std::size_t i = 0; i < lines.size(); ++i)
            out.push_back(client_->recvLine());
        return out;
    }

    std::string
    stop() override
    {
        client_->close();
        stop_.store(true);
        thread_.join();
        const std::string err =
            drainVerdict(totals_, sent_, threadError_);
        engine_.reset();
        return err;
    }

  private:
    RunOptions opt_;
    std::string storeDir_;
    std::string socket_;
    std::unique_ptr<serve::Engine> engine_;
    std::unique_ptr<serve::Client> client_;
    std::thread thread_;
    std::atomic<bool> stop_{false};
    serve::ServeTotals totals_;
    std::string threadError_;
    std::uint64_t sent_ = 0;
};

/** Pipe daemon: serve::runPipeServer over real pipe(2) pairs. */
class PipeSut : public Sut
{
  public:
    PipeSut(const RunOptions &opt, std::string storeDir)
        : opt_(opt), storeDir_(std::move(storeDir))
    {
    }

    ~PipeSut() override
    {
        try {
            if (thread_.joinable())
                stop();
        } catch (...) {
        }
    }

    void
    start() override
    {
        sent_ = 0;
        totals_ = {};
        threadError_.clear();
        if (::pipe(toSrv_) != 0 || ::pipe(fromSrv_) != 0)
            util::fatal("conform: pipe(2): ", std::strerror(errno));
        engine_ = std::make_unique<serve::Engine>(
            engineOptions(opt_, storeDir_));
        thread_ = std::thread([this] {
            try {
                FdIStream in(toSrv_[0]);
                FdOStream out(fromSrv_[1]);
                totals_ = serve::runPipeServer(in, out, *engine_);
                engine_->drain();
            } catch (const std::exception &e) {
                threadError_ = e.what();
            }
        });
        reader_ = std::make_unique<serve::FdLineReader>(fromSrv_[0]);
    }

    std::vector<std::string>
    transact(const std::vector<std::string> &lines) override
    {
        std::string block;
        for (const std::string &line : lines) {
            block += line;
            block += '\n';
        }
        if (!writeAllFd(toSrv_[1], block))
            util::fatal("conform: pipe write failed");
        sent_ += lines.size();
        std::vector<std::string> out;
        out.reserve(lines.size());
        for (std::size_t i = 0; i < lines.size(); ++i) {
            std::string line;
            if (!reader_->getline(line))
                util::fatal("conform: daemon closed the pipe with ",
                            lines.size() - i, " responses pending");
            out.push_back(std::move(line));
        }
        return out;
    }

    std::string
    stop() override
    {
        ::close(toSrv_[1]); // EOF: the pump loop drains and returns
        toSrv_[1] = -1;
        thread_.join();
        ::close(toSrv_[0]);
        ::close(fromSrv_[1]);
        toSrv_[0] = fromSrv_[1] = -1;
        std::string leftover;
        if (reader_->getline(leftover) && !leftover.empty())
            return "daemon wrote an unsolicited response: " +
                   leftover;
        ::close(fromSrv_[0]);
        fromSrv_[0] = -1;
        reader_.reset();
        const std::string err =
            drainVerdict(totals_, sent_, threadError_);
        engine_.reset();
        return err;
    }

  private:
    RunOptions opt_;
    std::string storeDir_;
    std::unique_ptr<serve::Engine> engine_;
    std::unique_ptr<serve::FdLineReader> reader_;
    std::thread thread_;
    serve::ServeTotals totals_;
    std::string threadError_;
    std::uint64_t sent_ = 0;
    int toSrv_[2] = {-1, -1};
    int fromSrv_[2] = {-1, -1};
};

/** Loopback-TCP daemon: serve::listenTcp + serveListener. */
class TcpSut : public Sut
{
  public:
    TcpSut(const RunOptions &opt, std::string storeDir)
        : opt_(opt), storeDir_(std::move(storeDir))
    {
    }

    ~TcpSut() override
    {
        try {
            if (thread_.joinable())
                stop();
        } catch (...) {
        }
    }

    void
    start() override
    {
        sent_ = 0;
        totals_ = {};
        threadError_.clear();
        stop_.store(false);
        engine_ = std::make_unique<serve::Engine>(
            engineOptions(opt_, storeDir_));
        // Bind synchronously, then serve on a thread: the listen
        // backlog holds the client's connect until the first poll,
        // so no connect-retry loop is needed.
        const int listener =
            serve::listenTcp("127.0.0.1:0", &bound_);
        thread_ = std::thread([this, listener] {
            try {
                totals_ =
                    serve::serveListener(listener, *engine_, stop_);
            } catch (const std::exception &e) {
                threadError_ = e.what();
            }
        });
        client_ = std::make_unique<serve::Client>();
        client_->connect(bound_);
    }

    std::vector<std::string>
    transact(const std::vector<std::string> &lines) override
    {
        for (const std::string &line : lines)
            client_->sendLine(line);
        sent_ += lines.size();
        std::vector<std::string> out;
        out.reserve(lines.size());
        for (std::size_t i = 0; i < lines.size(); ++i)
            out.push_back(client_->recvLine());
        return out;
    }

    std::string
    stop() override
    {
        client_->close();
        stop_.store(true);
        thread_.join();
        const std::string err =
            drainVerdict(totals_, sent_, threadError_);
        engine_.reset();
        return err;
    }

  private:
    RunOptions opt_;
    std::string storeDir_;
    std::string bound_;
    std::unique_ptr<serve::Engine> engine_;
    std::unique_ptr<serve::Client> client_;
    std::thread thread_;
    std::atomic<bool> stop_{false};
    serve::ServeTotals totals_;
    std::string threadError_;
    std::uint64_t sent_ = 0;
};

/// Fleet conformance runs replicate at the paper fleet's default.
constexpr int kFleetRf = 2;

/**
 * A multi-shard TCP fleet behind a fleet::Router. Every shard is an
 * in-process daemon with a *private* cache and store
 * (serve::EngineOptions::ownCache — the singleton memory tier would
 * otherwise be one shared cache across shards and hide all routing
 * behaviour). A Restart op rolls one shard at a time, round-robin,
 * rebinding the shard's original address so the ring placement never
 * moves; the router is disconnected from that shard first, which is
 * exactly the drain contract a SIGTERMed production shard honours.
 */
class FleetSut : public Sut
{
  public:
    FleetSut(const RunOptions &opt, const std::string &scratch)
        : opt_(opt)
    {
        for (int i = 0; i < opt.shards; ++i) {
            auto sh = std::make_unique<Shard>();
            sh->storeDir = scratch + "/store" + std::to_string(i);
            shards_.push_back(std::move(sh));
        }
    }

    ~FleetSut() override
    {
        try {
            if (running_)
                stop();
        } catch (...) {
        }
    }

    void
    start() override
    {
        for (std::size_t i = 0; i < shards_.size(); ++i)
            startShard(int(i), "127.0.0.1:0");
        fleet::RouterOptions ropt;
        for (const auto &sh : shards_)
            ropt.topology.shards.push_back(sh->bound);
        ropt.topology.rf = kFleetRf;
        router_ = std::make_unique<fleet::Router>(std::move(ropt));
        running_ = true;
    }

    std::vector<std::string>
    transact(const std::vector<std::string> &lines) override
    {
        return router_->transactLines(lines);
    }

    std::string
    stop() override
    {
        std::string err;
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            router_->disconnect(int(i));
            const std::string e = stopShard(int(i));
            if (!e.empty() && err.empty())
                err = e;
        }
        router_.reset();
        running_ = false;
        return err;
    }

    void
    evictMemory() override
    {
        for (const auto &sh : shards_)
            sh->engine->clearMemoryCache();
    }

    std::string
    restart() override
    {
        // Rolling restart: one shard, round-robin — the same order
        // the fleet model assumes. The shard keeps its address and
        // its store; it loses its memory tier and its connection.
        const int k = nextRestart_;
        nextRestart_ = (nextRestart_ + 1) % int(shards_.size());
        router_->disconnect(k);
        const std::string err = stopShard(k);
        startShard(k, shards_[std::size_t(k)]->bound);
        return err;
    }

    std::vector<std::string>
    addresses() const
    {
        std::vector<std::string> out;
        for (const auto &sh : shards_)
            out.push_back(sh->bound);
        return out;
    }

    std::vector<std::string>
    storeDirs() const
    {
        std::vector<std::string> out;
        for (const auto &sh : shards_)
            out.push_back(sh->storeDir);
        return out;
    }

  private:
    struct Shard
    {
        std::string storeDir;
        std::string bound;
        std::unique_ptr<serve::Engine> engine;
        std::thread thread;
        std::atomic<bool> stop{false};
        serve::ServeTotals totals;
        std::string threadError;
        /// Router lines sent to this shard before its current
        /// daemon session started (the router counter is cumulative
        /// across restarts, the daemon's is not).
        std::uint64_t sentBase = 0;
    };

    void
    startShard(int i, const std::string &addr)
    {
        Shard &sh = *shards_[std::size_t(i)];
        sh.totals = {};
        sh.threadError.clear();
        sh.stop.store(false);
        serve::EngineOptions eo = engineOptions(opt_, sh.storeDir);
        eo.ownCache = true;
        sh.engine = std::make_unique<serve::Engine>(eo);
        const int listener = serve::listenTcp(addr, &sh.bound);
        sh.thread = std::thread([&sh, listener] {
            try {
                sh.totals = serve::serveListener(listener, *sh.engine,
                                                 sh.stop);
            } catch (const std::exception &e) {
                sh.threadError = e.what();
            }
        });
        sh.sentBase =
            router_ ? router_->counters().sentPerShard[std::size_t(i)]
                    : 0;
    }

    /** Stop one drained shard; the caller has already disconnected
     *  the router from it (a live connection would hold the drain). */
    std::string
    stopShard(int i)
    {
        Shard &sh = *shards_[std::size_t(i)];
        sh.stop.store(true);
        sh.thread.join();
        std::string err;
        const std::uint64_t sent =
            router_->counters().sentPerShard[std::size_t(i)] -
            sh.sentBase;
        if (!sh.threadError.empty())
            err = "daemon thread failed: " + sh.threadError;
        else if (sh.totals.responses != sh.totals.lines)
            err = "daemon answered " +
                  std::to_string(sh.totals.responses) + " of " +
                  std::to_string(sh.totals.lines) +
                  " accepted requests";
        else if (sh.totals.lines != sent)
            err = "daemon read " + std::to_string(sh.totals.lines) +
                  " request lines, the router sent " +
                  std::to_string(sent);
        sh.engine.reset();
        if (!err.empty())
            err = "shard " + std::to_string(i) + ": " + err;
        return err;
    }

    RunOptions opt_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::unique_ptr<fleet::Router> router_;
    int nextRestart_ = 0;
    bool running_ = false;
};

std::unique_ptr<Sut>
makeSut(const RunOptions &opt, const std::string &storeDir)
{
    switch (opt.mode) {
      case SutMode::Unix:
        return std::make_unique<UnixSut>(opt, storeDir);
      case SutMode::Pipe:
        return std::make_unique<PipeSut>(opt, storeDir);
      case SutMode::Tcp:
        return std::make_unique<TcpSut>(opt, storeDir);
    }
    return std::make_unique<UnixSut>(opt, storeDir);
}

/** The wire lines one operation sends. */
std::vector<std::string>
wireLines(const Op &op)
{
    switch (op.kind) {
      case OpKind::SimRequest: {
        serve::Request req;
        req.id = op.id;
        req.kind = op.arch;
        req.unroll = op.unroll;
        req.spec = op.spec;
        req.hasSpec = true;
        return {serve::encodeRequest(req)};
      }
      case OpKind::NetRequest: {
        serve::Request req;
        req.id = op.id;
        req.kind = op.arch;
        req.unroll = op.unroll;
        req.model = op.model;
        req.family = op.family;
        return {serve::encodeRequest(req)};
      }
      case OpKind::DupBurst: {
        std::vector<std::string> lines;
        for (int i = 0; i < op.count; ++i) {
            serve::Request req;
            req.id = op.id + std::uint64_t(i);
            req.kind = op.arch;
            req.unroll = op.unroll;
            req.spec = op.spec;
            req.hasSpec = true;
            lines.push_back(serve::encodeRequest(req));
        }
        return lines;
      }
      case OpKind::Malformed:
        return {op.raw};
      case OpKind::StatsProbe: {
        serve::Request req;
        req.id = op.id;
        req.statsProbe = true;
        return {serve::encodeRequest(req)};
      }
      case OpKind::MetricsProbe: {
        serve::Request req;
        req.id = op.id;
        req.metricsProbe = true;
        return {serve::encodeRequest(req)};
      }
      case OpKind::TraceDrain: {
        serve::Request req;
        req.id = op.id;
        req.traceDrainProbe = true;
        return {serve::encodeRequest(req)};
      }
      default:
        return {};
    }
}

/**
 * Reference model of a whole fleet: one ReferenceModel per shard plus
 * an exact mirror of the router's placement (the same Ring math over
 * the same route keys). A request op applies to the primary shard of
 * its route key; a fresh "sim" spec result additionally lands on
 * every other replica of the key as a modelled put — the router
 * replicates synchronously inside transactLines, so lockstep holds.
 * Counter expectations sum across shards: the serve counters are one
 * process-global registry series every engine bumps, and the obs
 * snapshot sums the per-shard cache/store collector series.
 */
class FleetModel
{
  public:
    FleetModel(const std::vector<std::string> &addrs,
               const std::vector<std::string> &stores)
        : ring_(topologyOf(addrs)),
          rf_(std::min(kFleetRf, int(addrs.size())))
    {
        for (const std::string &dir : stores)
            shards_.push_back(
                std::make_unique<ReferenceModel>(dir));
    }

    std::vector<ExpectedResponse>
    apply(const Op &op)
    {
        switch (op.kind) {
          case OpKind::EvictMemory:
            for (const auto &m : shards_)
                m->noteEvictMemory();
            return {};
          case OpKind::EvictEntry:
          case OpKind::CorruptEntry:
          case OpKind::PlantStale:
            // A store perturbation touches one file: the copy in the
            // key's primary store (entryPath() resolves there too).
            return owner(op).apply(op);
          case OpKind::FsFault:
            util::fatal(
                "conform: FsFault ops are unsupported in fleet runs "
                "(the budgets are process-global; which shard "
                "consumes them is scheduling, not model state)");
          case OpKind::Restart:
            // Mirrors FleetSut::restart(): same round-robin order,
            // same starting shard.
            shards_[std::size_t(nextRestart_)]->noteRestart();
            nextRestart_ = (nextRestart_ + 1) % int(shards_.size());
            return {};
          default:
            return applyRequest(op);
        }
    }

    /** Fleet-wide expectations (a stats probe's telemetry covers
     *  every shard: global serve series, summed collector series). */
    CounterExpectations
    counters() const
    {
        CounterExpectations sum;
        for (const auto &m : shards_) {
            m->syncCacheEntries();
            merge(sum, m->counters());
        }
        return sum;
    }

    std::string
    diffStore() const
    {
        std::string out;
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            const std::string d = shards_[i]->diffStore();
            if (d.empty())
                continue;
            if (!out.empty())
                out += "; ";
            out += "shard " + std::to_string(i) + ": " + d;
        }
        return out;
    }

    /** The live store address of a triple: under its primary shard's
     *  store directory. */
    std::string
    entryPath(core::ArchKind kind, const sim::Unroll &u,
              const sim::ConvSpec &spec) const
    {
        const std::string key = serve::contentKey(kind, u, spec);
        return shards_[std::size_t(ring_.primary(key))]->entryPath(
            kind, u, spec);
    }

  private:
    static fleet::Topology
    topologyOf(const std::vector<std::string> &addrs)
    {
        fleet::Topology t;
        t.shards = addrs;
        t.rf = kFleetRf;
        return t;
    }

    ReferenceModel &
    owner(const Op &op)
    {
        const std::string key =
            serve::contentKey(op.arch, op.unroll, op.spec);
        return *shards_[std::size_t(ring_.primary(key))];
    }

    static void
    add(Interval &a, const Interval &b)
    {
        a.lo += b.lo;
        a.hi += b.hi;
    }

    static void
    merge(CounterExpectations &sum, const CounterExpectations &c)
    {
        add(sum.requests, c.requests);
        add(sum.errors, c.errors);
        add(sum.probes, c.probes);
        add(sum.metricsProbes, c.metricsProbes);
        add(sum.traceDrains, c.traceDrains);
        add(sum.memHits, c.memHits);
        add(sum.diskHits, c.diskHits);
        add(sum.simulated, c.simulated);
        add(sum.deduped, c.deduped);
        add(sum.memPlusDup, c.memPlusDup);
        add(sum.puts, c.puts);
        add(sum.overloaded, c.overloaded);
        add(sum.cacheHits, c.cacheHits);
        add(sum.cacheMisses, c.cacheMisses);
        add(sum.cacheDiskHits, c.cacheDiskHits);
        add(sum.cacheSimulated, c.cacheSimulated);
        sum.cacheEntries += c.cacheEntries;
        add(sum.storeHits, c.storeHits);
        add(sum.storeMisses, c.storeMisses);
        add(sum.storeStale, c.storeStale);
        add(sum.storeCorrupt, c.storeCorrupt);
        add(sum.storeWrites, c.storeWrites);
    }

    std::vector<ExpectedResponse>
    applyRequest(const Op &op)
    {
        // Mirror the router's per-line routing off the op's first
        // wire line; all lines of one op share a route key (a
        // DupBurst repeats one triple). Undecodable lines route on
        // their raw bytes, exactly like the router.
        const std::vector<std::string> lines = wireLines(op);
        serve::Request req;
        bool decoded = true;
        try {
            req = serve::decodeRequest(lines.at(0));
        } catch (...) {
            decoded = false;
        }
        std::string key;
        int primary = 0;
        if (decoded) {
            key = fleet::routeKeyOf(req);
            if (!key.empty())
                primary = ring_.primary(key);
        } else {
            primary = ring_.primary(lines.at(0));
        }
        std::vector<ExpectedResponse> out =
            shards_[std::size_t(primary)]->apply(op);
        // Replication: at most one fresh "sim" spec result per op
        // (burst followers never report "sim") lands on every other
        // replica of the key as a put.
        const bool fresh =
            decoded && req.hasSpec && !req.put && !out.empty() &&
            out.front().ok &&
            out.front().allowedTiers ==
                std::vector<std::string>{"sim"};
        if (fresh && rf_ > 1)
            for (int r : ring_.replicas(key, rf_))
                if (r != primary)
                    shards_[std::size_t(r)]->notePut(
                        req.kind, req.unroll, req.spec);
        return out;
    }

    fleet::Ring ring_;
    int rf_;
    std::vector<std::unique_ptr<ReferenceModel>> shards_;
    int nextRestart_ = 0;
};

/** Compare one decoded response against the model's expectation;
 *  "" when they agree. */
std::string
diffOneResponse(const serve::Response &got,
                const ExpectedResponse &want)
{
    if (got.id != want.id)
        return "id " + std::to_string(got.id) + ", model expects " +
               std::to_string(want.id);
    if (got.ok != want.ok)
        return std::string("ok=") + (got.ok ? "true" : "false") +
               ", model expects " + (want.ok ? "true" : "false") +
               (got.ok ? "" : " (error: " + got.error + ")");
    if (!want.ok) {
        if (want.checkError && got.error != want.error)
            return "error \"" + got.error + "\", model expects \"" +
                   want.error + "\"";
        return "";
    }
    if (got.simVersion != serve::simulatorVersion())
        return "sim version \"" + got.simVersion + "\"";
    if (want.isProbe) {
        if (got.telemetry.empty())
            return "probe response carries no telemetry";
        return "";
    }
    if (want.isMetricsProbe) {
        if (got.metricsText.empty())
            return "metrics probe response carries no Prometheus "
                   "text";
        return "";
    }
    if (want.isTraceDrain) {
        if (got.spans.empty())
            return "trace-drain response carries no span batch";
        return "";
    }
    if (got.arch != want.arch)
        return "arch \"" + got.arch + "\", model expects \"" +
               want.arch + "\"";
    if (sim::toJson(got.unroll) != want.unrollJson)
        return "unroll " + sim::toJson(got.unroll) +
               ", model expects " + want.unrollJson;
    bool tierOk = false;
    for (const std::string &t : want.allowedTiers)
        tierOk = tierOk || t == got.cache;
    if (!tierOk) {
        std::string tiers;
        for (const std::string &t : want.allowedTiers)
            tiers += (tiers.empty() ? "" : "/") + t;
        return "cache tier \"" + got.cache + "\", model admits " +
               tiers;
    }
    if (got.latencyUs != 0)
        return "latencyUs " + std::to_string(got.latencyUs) +
               " in deterministic mode";
    const std::string d = sim::diffRunStats(got.stats, want.stats);
    if (!d.empty())
        return "stats diverge: " + d;
    return "";
}

std::map<std::string, std::uint64_t>
snapshotCounters()
{
    std::map<std::string, std::uint64_t> out;
    const obs::Snapshot snap = obs::Registry::instance().snapshot();
    for (const auto &[name, v] : snap.counters())
        out[name] = v;
    return out;
}

/** Check a probe's telemetry payload against the model's counter
 *  expectations. */
void
checkCounters(std::size_t opIndex, const std::string &telemetry,
              const CounterExpectations &c,
              const std::map<std::string, std::uint64_t> &baseline,
              std::vector<Divergence> &out)
{
    const obs::Snapshot snap = serve::decodeTelemetry(telemetry);
    auto cval = [&](const char *name) -> std::uint64_t {
        auto it = snap.counters().find(name);
        return it == snap.counters().end() ? 0 : it->second;
    };
    auto gval = [&](const char *name) -> std::uint64_t {
        auto it = snap.gauges().find(name);
        return it == snap.gauges().end() ? 0 : std::uint64_t(it->second);
    };
    auto base = [&](const char *name) -> std::uint64_t {
        auto it = baseline.find(name);
        return it == baseline.end() ? 0 : it->second;
    };
    // The serve counters are process-cumulative (the obs registry
    // outlives engines), so the model's expectations are deltas
    // against the run-start snapshot.
    auto serveDelta = [&](const char *name) {
        return cval(name) - base(name);
    };
    auto check = [&](const char *label, std::uint64_t got,
                     const Interval &want) {
        if (!want.admits(got))
            out.push_back(
                {opIndex, std::string("probe: ") + label + " = " +
                              std::to_string(got) +
                              ", model expects " + want.str()});
    };
    check("serve requests",
          serveDelta("ganacc_serve_requests_total"), c.requests);
    check("serve errors", serveDelta("ganacc_serve_errors_total"),
          c.errors);
    check("serve stats probes",
          serveDelta("ganacc_serve_stats_probes_total"), c.probes);
    check("serve metrics probes",
          serveDelta("ganacc_serve_metrics_probes_total"),
          c.metricsProbes);
    check("serve trace drains",
          serveDelta("ganacc_serve_trace_drains_total"),
          c.traceDrains);
    check("serve disk hits",
          serveDelta("ganacc_serve_disk_hits_total"), c.diskHits);
    check("serve simulated",
          serveDelta("ganacc_serve_simulated_total"), c.simulated);
    const std::uint64_t mem =
        serveDelta("ganacc_serve_mem_hits_total");
    const std::uint64_t dup = serveDelta("ganacc_serve_deduped_total");
    check("serve mem hits", mem, c.memHits);
    check("serve deduped", dup, c.deduped);
    check("serve mem+dup", mem + dup, c.memPlusDup);
    check("serve puts", serveDelta("ganacc_serve_puts_total"),
          c.puts);
    check("serve overloaded",
          serveDelta("ganacc_serve_overloaded_total"), c.overloaded);
    // Cache counters reset with CycleCache::clear(), store counters
    // with each store session: both compare absolute.
    check("cache hits", cval("ganacc_cache_mem_hits_total"),
          c.cacheHits);
    check("cache misses", cval("ganacc_cache_misses_total"),
          c.cacheMisses);
    check("cache disk hits", cval("ganacc_cache_disk_hits_total"),
          c.cacheDiskHits);
    check("cache simulated", cval("ganacc_cache_simulated_total"),
          c.cacheSimulated);
    check("store hits", cval("ganacc_store_hits_total"),
          c.storeHits);
    check("store misses", cval("ganacc_store_misses_total"),
          c.storeMisses);
    check("store stale misses",
          cval("ganacc_store_stale_misses_total"), c.storeStale);
    check("store corrupt misses",
          cval("ganacc_store_corrupt_misses_total"), c.storeCorrupt);
    check("store writes", cval("ganacc_store_writes_total"),
          c.storeWrites);
    if (gval("ganacc_cache_entries") != c.cacheEntries)
        out.push_back(
            {opIndex,
             "probe: cache entries = " +
                 std::to_string(gval("ganacc_cache_entries")) +
                 ", model expects " +
                 std::to_string(c.cacheEntries)});
    if (gval("ganacc_serve_inflight") != 0)
        out.push_back({opIndex,
                       "probe: inflight gauge nonzero in lockstep"});
}

/** Perform a CorruptEntry op on the real filesystem. `Model` is
 *  ReferenceModel or FleetModel — entryPath() resolves the store
 *  (fleet: the key's primary shard) holding the file to damage. */
template <typename Model>
void
corruptFile(const Model &model, const Op &op)
{
    const fs::path path =
        model.entryPath(op.arch, op.unroll, op.spec);
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    std::string bytes;
    switch (op.corrupt) {
      case CorruptMode::Garbage:
        bytes = "@@not json@@ {{{ \xff\xfe broken";
        break;
      case CorruptMode::Truncate: {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream text;
        text << is.rdbuf();
        bytes = text.str();
        if (bytes.empty())
            bytes = ReferenceModel::entryBody(
                op.arch, op.unroll, op.spec,
                ReferenceModel::directStats(op.arch, op.unroll,
                                            op.spec),
                serve::simulatorVersion());
        bytes.resize(bytes.size() / 2);
        break;
      }
      case CorruptMode::ZeroByte:
        break; // empty file
    }
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
}

/** Perform a PlantStale op: a fully valid entry whose version stamp
 *  names a foreign simulator and whose counters are deliberately
 *  perturbed — a store that skips stale-version invalidation serves
 *  these wrong numbers, which is exactly what the harness's
 *  self-test must catch. */
template <typename Model>
void
plantStaleFile(const Model &model, const Op &op)
{
    const fs::path path =
        model.entryPath(op.arch, op.unroll, op.spec);
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    sim::RunStats st =
        ReferenceModel::directStats(op.arch, op.unroll, op.spec);
    st.cycles += 1; // provably wrong, minimally so
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << ReferenceModel::entryBody(op.arch, op.unroll, op.spec, st,
                                    "ganacc-0.0.0+conform-stale");
}

/** RAII: disarm the store bug and the fault budgets on every exit
 *  path, so a throwing run cannot poison the next one. */
struct ProcessStateGuard
{
    ~ProcessStateGuard()
    {
        serve::setStoreBugForTesting(serve::StoreBug::None);
        fault::clearFsFaults();
    }
};

/** A run's scratch directory: emptied on entry, removed on exit.
 *  Declared before the SUT, so the SUT has stopped by then. */
struct ScratchDir
{
    explicit ScratchDir(const std::string &path) : path_(path)
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

  private:
    std::string path_;
};

/**
 * The lockstep loop plus the final drain and store scan, shared by
 * the single-daemon and fleet paths. `Model` is ReferenceModel or
 * FleetModel (same apply/counters/diffStore/entryPath surface).
 */
template <typename Model>
void
driveSequence(const std::vector<Op> &seq, const RunOptions &opt,
              Sut &sut, Model &model, Report &rep,
              const std::map<std::string, std::uint64_t> &baseline)
{
    auto diverged = [&] {
        return int(rep.divergences.size()) >= opt.maxDivergences;
    };

    for (std::size_t i = 0; i < seq.size() && !diverged(); ++i) {
        const Op &op = seq[i];
        rep.opsApplied = i + 1;
        try {
            if (op.sendsRequests()) {
                const std::vector<std::string> lines = wireLines(op);
                rep.linesSent += lines.size();
                const std::vector<std::string> raw =
                    sut.transact(lines);
                const std::vector<ExpectedResponse> want =
                    model.apply(op);
                if (raw.size() != want.size()) {
                    rep.divergences.push_back(
                        {i, std::to_string(raw.size()) +
                                " responses to " +
                                std::to_string(want.size()) +
                                " requests"});
                    continue;
                }
                for (std::size_t r = 0; r < raw.size(); ++r) {
                    serve::Response rsp;
                    try {
                        rsp = serve::decodeResponse(raw[r]);
                    } catch (const std::exception &e) {
                        rep.divergences.push_back(
                            {i, std::string(
                                    "undecodable response: ") +
                                    e.what() + ": " + raw[r]});
                        continue;
                    }
                    const std::string d =
                        diffOneResponse(rsp, want[r]);
                    if (!d.empty())
                        rep.divergences.push_back({i, d});
                    if (want[r].isProbe && rsp.ok &&
                        !rsp.telemetry.empty())
                        checkCounters(i, rsp.telemetry,
                                      model.counters(), baseline,
                                      rep.divergences);
                }
            } else {
                switch (op.kind) {
                  case OpKind::EvictMemory:
                    sut.evictMemory();
                    break;
                  case OpKind::EvictEntry: {
                    std::error_code ec;
                    fs::remove(model.entryPath(op.arch, op.unroll,
                                               op.spec),
                               ec);
                    break;
                  }
                  case OpKind::CorruptEntry:
                    corruptFile(model, op);
                    break;
                  case OpKind::PlantStale:
                    plantStaleFile(model, op);
                    break;
                  case OpKind::FsFault:
                    fault::armFsFaults(op.faults);
                    break;
                  case OpKind::Restart: {
                    const std::string err = sut.restart();
                    if (!err.empty())
                        rep.divergences.push_back({i, err});
                    break;
                  }
                  default:
                    break;
                }
                model.apply(op);
            }
        } catch (const std::exception &e) {
            rep.divergences.push_back(
                {i, std::string("harness: ") + e.what()});
            break;
        }
        if (opt.storeCheckInterval &&
            (i + 1) % opt.storeCheckInterval == 0) {
            const std::string d = model.diffStore();
            if (!d.empty())
                rep.divergences.push_back({i, "store scan: " + d});
        }
    }

    try {
        const std::string err = sut.stop();
        if (!err.empty())
            rep.divergences.push_back({seq.size(), "drain: " + err});
    } catch (const std::exception &e) {
        rep.divergences.push_back(
            {seq.size(), std::string("drain: ") + e.what()});
    }
    const std::string d = model.diffStore();
    if (!d.empty())
        rep.divergences.push_back(
            {seq.size(), "final store scan: " + d});
}

} // namespace

std::string
sutModeName(SutMode m)
{
    switch (m) {
      case SutMode::Unix: return "unix";
      case SutMode::Pipe: return "pipe";
      case SutMode::Tcp:  return "tcp";
    }
    return "unix";
}

std::string
defaultScratchDir()
{
    return (fs::temp_directory_path() /
            ("ganacc-conform-" + std::to_string(::getpid())))
        .string();
}

std::string
Report::text() const
{
    std::ostringstream os;
    for (const Divergence &d : divergences)
        os << "op " << d.opIndex << ": " << d.what << "\n";
    os << opsApplied << " ops applied, " << linesSent
       << " lines sent, " << divergences.size() << " divergences";
    return os.str();
}

Report
runConformance(const std::vector<Op> &seq, const RunOptions &opt)
{
    if (opt.scratchDir.empty())
        util::fatal("conform: RunOptions.scratchDir must be set");
    if (opt.shards < 1)
        util::fatal("conform: RunOptions.shards must be >= 1");
    Report rep;
    ProcessStateGuard guard;
    fault::clearFsFaults();
    serve::setStoreBugForTesting(opt.bug);
    const ScratchDir scratch(opt.scratchDir);
    core::CycleCache::instance().clear();
    const auto baseline = snapshotCounters();

    if (opt.shards > 1) {
        FleetSut sut(opt, opt.scratchDir);
        sut.start();
        // The ring places on bound addresses, so the model can only
        // exist once the shards are up.
        FleetModel model(sut.addresses(), sut.storeDirs());
        driveSequence(seq, opt, sut, model, rep, baseline);
    } else {
        const std::string storeDir = opt.scratchDir + "/store";
        ReferenceModel model(storeDir);
        std::unique_ptr<Sut> sut = makeSut(opt, storeDir);
        sut->start();
        driveSequence(seq, opt, *sut, model, rep, baseline);
    }
    return rep;
}

} // namespace conform
} // namespace ganacc
