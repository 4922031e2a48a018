/**
 * @file
 * Transports of the simulation service: a stdin/stdout pipe loop (CI
 * and golden replay) and a Unix-domain-socket server (long-lived
 * daemon, many clients).
 *
 * Both speak the JSON-lines protocol of serve/protocol.hh and drive a
 * shared Engine. Responses to one connection are written in request
 * order (the engine may execute out of order; the writer re-serializes)
 * so a client can match responses to requests positionally as well as
 * by id.
 *
 * Lifecycle: runSocketServer() polls the listening socket so it can
 * observe the stop flag — the SIGTERM/SIGINT handler merely sets it —
 * then stops accepting, lets every live connection finish its
 * buffered requests, drains the engine, and returns. One malformed
 * line yields one ok:false response; it never terminates the server.
 */

#ifndef GANACC_SERVE_DAEMON_HH
#define GANACC_SERVE_DAEMON_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "serve/engine.hh"

namespace ganacc {
namespace serve {

/** Totals returned by a transport run. */
struct ServeTotals
{
    std::uint64_t lines = 0;     ///< requests read
    std::uint64_t responses = 0; ///< responses written
};

/**
 * Pipe mode: read JSON-lines requests from `in` until EOF, write one
 * response line per request to `out` in input order.
 */
ServeTotals runPipeServer(std::istream &in, std::ostream &out,
                          Engine &engine);

/**
 * Socket mode: listen on the Unix-domain socket at `path` (unlinking
 * a stale file first), serve every connection with the pipe loop,
 * and return once `*stop` becomes true and live connections finish.
 * Throws util::FatalError when the socket cannot be created.
 */
ServeTotals runSocketServer(const std::string &path, Engine &engine,
                            const std::atomic<bool> &stop);

/**
 * Create a listening TCP socket for `hostport` ("host:port"; a bare
 * ":port" binds 127.0.0.1; port 0 picks a free port). Returns the
 * listener fd and writes the actually bound "host:port" (with the
 * kernel-assigned port resolved) to `*boundAddr` when non-null, so a
 * caller can hand the address to clients before serving. Throws
 * util::FatalError on failure.
 */
int listenTcp(const std::string &hostport, std::string *boundAddr);

/**
 * Serve an already-listening socket (from listenTcp(), or any bound +
 * listening stream socket) with the shared accept loop: one thread
 * per connection, joined by the loop once the connection ends, and
 * ordered responses. Returns once `*stop` becomes true (polled every
 * 200 ms), live connections finish their buffered requests, and the
 * engine drains. Closes the listener.
 */
ServeTotals serveListener(int listener, Engine &engine,
                          const std::atomic<bool> &stop);

/**
 * TCP mode: listenTcp() + serveListener(). The same JSONL protocol
 * and drain semantics as the Unix transport, addressable across
 * hosts — this is the transport fleet shards speak.
 */
ServeTotals runTcpServer(const std::string &hostport, Engine &engine,
                         const std::atomic<bool> &stop,
                         std::string *boundAddr = nullptr);

/**
 * Line-buffered reader over any readable fd: a connected socket, as
 * the socket transports read requests, or a pipe, as the conformance
 * harness reads a piped daemon's responses. Each byte is scanned for
 * '\n' once: a scan resumes where the last one stopped, and the
 * consumed prefix is dropped once per read rather than once per line,
 * so a long line or a batch of many lines costs linear time.
 */
class FdLineReader
{
  public:
    explicit FdLineReader(int fd) : fd_(fd) {}

    /** Next full line (without '\n'). At EOF or on a read error, the
     *  unterminated rest if there is any, else false. */
    bool getline(std::string &line);

  private:
    int fd_;
    std::string buf_;
    std::size_t head_ = 0; ///< where the next line starts in buf_
    std::size_t scan_ = 0; ///< buf_[head_, scan_) holds no '\n'
};

/** Install SIGTERM/SIGINT handlers that set `flag`. */
void installStopHandlers(std::atomic<bool> &flag);

} // namespace serve
} // namespace ganacc

#endif // GANACC_SERVE_DAEMON_HH
