/**
 * @file
 * Daemon transport implementation.
 */

#include "serve/daemon.hh"

#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <functional>
#include <istream>
#include <list>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace ganacc {
namespace serve {

namespace {

/**
 * Submit one request line and return the response future. Decode
 * errors resolve immediately: the protocol promises a response per
 * line no matter how broken the line is.
 */
std::future<Response>
submitLine(Engine &engine, const std::string &line)
{
    try {
        obs::TraceSink &sink = obs::TraceSink::instance();
        if (sink.enabled()) {
            // Stamp transport-side decode timing (never on the wire)
            // so the engine's span batch covers the whole hop.
            const std::uint64_t t0 = sink.nowUs();
            Request req = decodeRequest(line);
            const std::uint64_t t1 = sink.nowUs();
            req.decodeTs = t0;
            req.decodeDurUs = t1 > t0 ? t1 - t0 : 1;
            return engine.submit(req);
        }
        return engine.submit(decodeRequest(line));
    } catch (const std::exception &e) {
        std::uint64_t id = 0;
        // Best effort: salvage the id so the client can correlate.
        try {
            const auto doc = util::json::parse(line);
            if (doc.isObject() && doc.asObject().contains("id"))
                id = doc.asObject().at("id").asUint64();
        } catch (...) {
            // The line is not even JSON; scrape an "id":NNN textually
            // so the error still lands on the right request.
            const auto at = line.find("\"id\":");
            if (at != std::string::npos) {
                std::size_t p = at + 5;
                while (p < line.size() && line[p] >= '0' &&
                       line[p] <= '9')
                    id = id * 10 + std::uint64_t(line[p++] - '0');
            }
        }
        std::promise<Response> p;
        p.set_value(errorResponse(id, e.what()));
        return p.get_future();
    }
}

/**
 * Pump a line stream through the engine, writing responses in input
 * order. A dedicated writer thread drains the in-order future queue,
 * so responses go out the moment they resolve even while the reader
 * is blocked waiting for the client's next line — an interactive
 * client that pipelines a burst and then waits for replies before
 * closing would deadlock otherwise. The window bounds this stream's
 * in-flight requests on top of the engine's global queue bound.
 */
ServeTotals
pumpOrderedStream(Engine &engine,
                  const std::function<bool(std::string &)> &getLine,
                  const std::function<bool(const std::string &)> &put)
{
    ServeTotals totals;
    const std::size_t window = 64;
    std::mutex m;
    std::condition_variable cv;
    std::deque<std::future<Response>> pending;
    bool done = false;
    std::uint64_t written = 0;

    std::thread writer([&] {
        std::unique_lock<std::mutex> lk(m);
        while (true) {
            cv.wait(lk, [&] { return done || !pending.empty(); });
            if (pending.empty())
                return; // done and nothing left to write
            std::future<Response> fut = std::move(pending.front());
            pending.pop_front();
            cv.notify_all(); // a window slot freed up for the reader
            lk.unlock();
            const Response rsp = fut.get();
            obs::TraceSink &sink = obs::TraceSink::instance();
            const bool traceEncode = rsp.traceKept && sink.enabled();
            const std::uint64_t encT0 = traceEncode ? sink.nowUs() : 0;
            const bool ok = put(encodeResponse(rsp) + "\n");
            if (traceEncode) {
                // Close the hop with the transport's encode+write
                // span, parented under the engine's request span.
                obs::TraceEvent ev;
                ev.name = "serve.encode";
                ev.cat = "serve";
                ev.tid = obs::TraceSink::threadLane();
                ev.ts = encT0;
                const std::uint64_t encT1 = sink.nowUs();
                ev.dur = encT1 > encT0 ? encT1 - encT0 : 1;
                ev.args = obs::spanArgs(rsp.traceId, obs::newSpanId(),
                                        rsp.traceSpan);
                sink.record(std::move(ev));
            }
            lk.lock();
            if (ok)
                ++written;
        }
    });

    std::string line;
    while (getLine(line)) {
        if (line.empty())
            continue;
        ++totals.lines;
        std::future<Response> fut = submitLine(engine, line);
        std::unique_lock<std::mutex> lk(m);
        cv.wait(lk, [&] { return pending.size() < window; });
        pending.push_back(std::move(fut));
        cv.notify_all();
    }
    {
        std::lock_guard<std::mutex> lk(m);
        done = true;
    }
    cv.notify_all();
    writer.join();
    totals.responses = written;
    return totals;
}

} // namespace

ServeTotals
runPipeServer(std::istream &in, std::ostream &out, Engine &engine)
{
    return pumpOrderedStream(
        engine,
        [&in](std::string &line) {
            return bool(std::getline(in, line));
        },
        [&out](const std::string &bytes) {
            out << bytes;
            out.flush();
            return bool(out);
        });
}

namespace {

std::atomic<bool> *g_stop_flag = nullptr;

void
onStopSignal(int)
{
    if (g_stop_flag)
        g_stop_flag->store(true);
}

bool
writeAll(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        // MSG_NOSIGNAL: a client that disconnects mid-stream must
        // cost the daemon one failed connection, not a SIGPIPE.
        ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue; // the SIGTERM/SIGINT stop handlers are installed
                      // without SA_RESTART — interrupted, retry
        if (n <= 0)
            return false;
        off += std::size_t(n);
    }
    return true;
}

/** Serve one accepted connection with the ordered pump loop. */
void
serveConnection(int fd, Engine &engine, std::atomic<std::uint64_t> &lines,
                std::atomic<std::uint64_t> &responses)
{
    static obs::Gauge &connections = obs::Registry::instance().gauge(
        "ganacc_serve_connections", "live client connections");
    connections.add(1);
    FdLineReader reader(fd);
    const ServeTotals totals = pumpOrderedStream(
        engine,
        [&reader](std::string &line) { return reader.getline(line); },
        [fd](const std::string &bytes) { return writeAll(fd, bytes); });
    lines.fetch_add(totals.lines, std::memory_order_relaxed);
    responses.fetch_add(totals.responses, std::memory_order_relaxed);
    ::close(fd);
    connections.add(-1);
}

} // namespace

bool
FdLineReader::getline(std::string &line)
{
    while (true) {
        const auto nl = buf_.find('\n', scan_);
        if (nl != std::string::npos) {
            line.assign(buf_, head_, nl - head_);
            head_ = scan_ = nl + 1;
            return true;
        }
        buf_.erase(0, head_);
        head_ = 0;
        scan_ = buf_.size();
        char chunk[4096];
        ssize_t n = ::read(fd_, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR)
            continue; // interrupted by a signal, not EOF — retry
        if (n <= 0) {
            if (buf_.empty())
                return false;
            line.swap(buf_);
            buf_.clear();
            scan_ = 0;
            return true;
        }
        buf_.append(chunk, std::size_t(n));
    }
}

void
installStopHandlers(std::atomic<bool> &flag)
{
    g_stop_flag = &flag;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = onStopSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
}

ServeTotals
serveListener(int listener, Engine &engine,
              const std::atomic<bool> &stop)
{
    std::atomic<std::uint64_t> lines{0};
    std::atomic<std::uint64_t> responses{0};
    // A connection thread posts itself on `done` as it ends, and the
    // accept loop joins every posted thread each time round, so a
    // finished connection does not keep its stack mapped until
    // shutdown.
    using Conns = std::list<std::thread>;
    Conns conns;
    std::mutex done_m;
    std::vector<Conns::iterator> done;
    auto reap = [&] {
        std::vector<Conns::iterator> finished;
        {
            std::lock_guard<std::mutex> lk(done_m);
            finished.swap(done);
        }
        for (Conns::iterator it : finished) {
            it->join();
            conns.erase(it);
        }
    };
    while (!stop.load()) {
        reap();
        pollfd pfd{listener, POLLIN, 0};
        int r = ::poll(&pfd, 1, 200 /* ms: stop-flag latency */);
        if (r < 0 && errno != EINTR)
            break;
        if (r <= 0 || !(pfd.revents & POLLIN))
            continue;
        int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0)
            continue;
        const Conns::iterator it = conns.emplace(conns.end());
        *it = std::thread([fd, it, &engine, &lines, &responses, &done_m,
                           &done] {
            serveConnection(fd, engine, lines, responses);
            std::lock_guard<std::mutex> lk(done_m);
            done.push_back(it);
        });
    }
    // Drain: no new connections; live ones finish their streams.
    ::close(listener);
    for (auto &t : conns)
        t.join();
    engine.drain();

    ServeTotals totals;
    totals.lines = lines.load();
    totals.responses = responses.load();
    return totals;
}

ServeTotals
runSocketServer(const std::string &path, Engine &engine,
                const std::atomic<bool> &stop)
{
    if (path.empty())
        util::fatal("socket server needs a non-empty path");
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path)
        util::fatal("socket path too long: ", path);
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof addr.sun_path - 1);

    int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0)
        util::fatal("socket(AF_UNIX): ", std::strerror(errno));
    ::unlink(path.c_str()); // stale socket from a dead daemon
    if (::bind(listener, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0)
        util::fatal("bind(", path, "): ", std::strerror(errno));
    if (::listen(listener, 64) != 0)
        util::fatal("listen(", path, "): ", std::strerror(errno));

    const ServeTotals totals = serveListener(listener, engine, stop);
    ::unlink(path.c_str());
    return totals;
}

int
listenTcp(const std::string &hostport, std::string *boundAddr)
{
    const auto colon = hostport.rfind(':');
    if (colon == std::string::npos)
        util::fatal("TCP listen address must be host:port, not \"",
                    hostport, "\"");
    std::string host = hostport.substr(0, colon);
    const std::string port = hostport.substr(colon + 1);
    if (host.empty())
        host = "127.0.0.1";

    addrinfo hints;
    std::memset(&hints, 0, sizeof hints);
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo *res = nullptr;
    const int gai =
        ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
    if (gai != 0)
        util::fatal("getaddrinfo(", hostport, "): ",
                    gai_strerror(gai));

    int listener = -1;
    std::string error = "no usable address";
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        listener = ::socket(ai->ai_family, ai->ai_socktype,
                            ai->ai_protocol);
        if (listener < 0)
            continue;
        int one = 1;
        ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
        if (::bind(listener, ai->ai_addr, ai->ai_addrlen) == 0 &&
            ::listen(listener, 64) == 0)
            break;
        error = std::strerror(errno);
        ::close(listener);
        listener = -1;
    }
    ::freeaddrinfo(res);
    if (listener < 0)
        util::fatal("bind(", hostport, "): ", error);

    if (boundAddr) {
        // Resolve a kernel-assigned port (":0") for announcement.
        sockaddr_storage ss;
        socklen_t len = sizeof ss;
        if (::getsockname(listener,
                          reinterpret_cast<sockaddr *>(&ss),
                          &len) != 0)
            util::fatal("getsockname(", hostport, "): ",
                        std::strerror(errno));
        char hostbuf[NI_MAXHOST], portbuf[NI_MAXSERV];
        if (::getnameinfo(reinterpret_cast<sockaddr *>(&ss), len,
                          hostbuf, sizeof hostbuf, portbuf,
                          sizeof portbuf,
                          NI_NUMERICHOST | NI_NUMERICSERV) != 0)
            util::fatal("getnameinfo(", hostport, ") failed");
        *boundAddr = std::string(hostbuf) + ":" + portbuf;
    }
    return listener;
}

ServeTotals
runTcpServer(const std::string &hostport, Engine &engine,
             const std::atomic<bool> &stop, std::string *boundAddr)
{
    return serveListener(listenTcp(hostport, boundAddr), engine,
                         stop);
}

} // namespace serve
} // namespace ganacc
