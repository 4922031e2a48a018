/**
 * @file
 * Client implementation.
 */

#include "serve/client.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/logging.hh"

namespace ganacc {
namespace serve {

namespace {

/**
 * One connect attempt; returns the connected fd or -1 with errno-like
 * detail in `error`.
 */
int
connectOnce(const std::string &address, std::string &error)
{
    if (isTcpAddress(address)) {
        const auto colon = address.rfind(':');
        const std::string host = address.substr(0, colon);
        const std::string port = address.substr(colon + 1);
        addrinfo hints;
        std::memset(&hints, 0, sizeof hints);
        hints.ai_family = AF_UNSPEC;
        hints.ai_socktype = SOCK_STREAM;
        addrinfo *res = nullptr;
        const int gai =
            ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
        if (gai != 0) {
            error = gai_strerror(gai);
            return -1;
        }
        int fd = -1;
        for (addrinfo *ai = res; ai; ai = ai->ai_next) {
            fd = ::socket(ai->ai_family, ai->ai_socktype,
                          ai->ai_protocol);
            if (fd < 0)
                continue;
            if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
                break;
            ::close(fd);
            fd = -1;
        }
        error = fd < 0 ? std::strerror(errno) : "";
        ::freeaddrinfo(res);
        if (fd >= 0) {
            // Pipelined one-line requests: don't let Nagle batch them.
            int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof one);
        }
        return fd;
    }
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (address.size() >= sizeof addr.sun_path)
        util::fatal("socket path too long: ", address);
    std::strncpy(addr.sun_path, address.c_str(),
                 sizeof addr.sun_path - 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        util::fatal("socket(AF_UNIX): ", std::strerror(errno));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        error = std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace

bool
isTcpAddress(const std::string &address)
{
    if (address.empty() || address[0] == '/' || address[0] == '.')
        return false;
    return address.find(':') != std::string::npos;
}

Client::~Client()
{
    close();
}

void
Client::connect(const std::string &address, const ConnectOptions &opt)
{
    close();
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(opt.timeoutMs);
    std::string error;
    int delayMs = opt.backoffMs > 0 ? opt.backoffMs : 1;
    for (int attempt = 0;; ++attempt) {
        const int fd = connectOnce(address, error);
        if (fd >= 0) {
            fd_ = fd;
            return;
        }
        if (attempt >= opt.retries ||
            std::chrono::steady_clock::now() >= deadline)
            break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delayMs));
        delayMs = delayMs < 1000 ? delayMs * 2 : 1000;
    }
    util::fatal("connect(", address, "): ", error,
                " (is ganacc-served running?)");
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buf_.clear();
}

void
Client::sendLine(const std::string &line)
{
    GANACC_ASSERT(fd_ >= 0, "client not connected");
    std::string wire = line;
    wire += '\n';
    std::size_t off = 0;
    while (off < wire.size()) {
        // MSG_NOSIGNAL: a daemon draining for restart closes the
        // connection; surface that as a catchable error (EPIPE), not
        // a process-killing SIGPIPE — fleet::Router fails over on it.
        ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue; // interrupted by a signal (a stop handler
                      // without SA_RESTART) — not an error, retry
        if (n <= 0)
            util::fatal("client write: ", std::strerror(errno));
        off += std::size_t(n);
    }
}

void
Client::sendRequest(const Request &req)
{
    sendLine(encodeRequest(req));
}

std::string
Client::recvLine()
{
    GANACC_ASSERT(fd_ >= 0, "client not connected");
    while (true) {
        auto nl = buf_.find('\n');
        if (nl != std::string::npos) {
            std::string line = buf_.substr(0, nl);
            buf_.erase(0, nl + 1);
            return line;
        }
        char chunk[4096];
        ssize_t n = ::read(fd_, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR)
            continue; // interrupted, not closed — retry
        if (n < 0)
            util::fatal("client read: ", std::strerror(errno));
        if (n == 0)
            util::fatal("client read: connection closed by daemon");
        buf_.append(chunk, std::size_t(n));
    }
}

Response
Client::recvResponse()
{
    return decodeResponse(recvLine());
}

Response
Client::roundTrip(const Request &req)
{
    sendRequest(req);
    return recvResponse();
}

std::vector<std::string>
replayLines(Client &client,
            const std::vector<std::string> &request_lines,
            std::size_t window)
{
    std::vector<std::string> responses;
    responses.reserve(request_lines.size());
    std::size_t sent = 0, received = 0;
    while (received < request_lines.size()) {
        while (sent < request_lines.size() &&
               sent - received < window) {
            client.sendLine(request_lines[sent]);
            ++sent;
        }
        responses.push_back(client.recvLine());
        ++received;
    }
    return responses;
}

} // namespace serve
} // namespace ganacc
