#include "server/net.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/flags.h"

namespace square::net {

namespace {

std::string
errnoMessage(const char *what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

bool
fillAddress(const std::string &host, uint16_t port, sockaddr_in &addr,
            std::string &error)
{
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        error = "bad IPv4 address '" + host + "'";
        return false;
    }
    return true;
}

} // namespace

bool
splitHostPort(std::string_view address, std::string &host, uint16_t &port)
{
    const size_t colon = address.rfind(':');
    int64_t value = 0;
    if (colon == std::string_view::npos || colon == 0 ||
        !parseInt(address.substr(colon + 1), 1, 65535, value))
        return false;
    host = address.substr(0, colon);
    port = static_cast<uint16_t>(value);
    return true;
}

int
listenTcp(const std::string &host, uint16_t port, int backlog,
          uint16_t &bound_port, std::string &error)
{
    sockaddr_in addr;
    if (!fillAddress(host, port, addr, error))
        return -1;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        error = errnoMessage("socket");
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0) {
        error = errnoMessage("bind");
        closeFd(fd);
        return -1;
    }
    if (::listen(fd, backlog) != 0) {
        error = errnoMessage("listen");
        closeFd(fd);
        return -1;
    }
    sockaddr_in actual;
    socklen_t len = sizeof actual;
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&actual), &len) !=
        0) {
        error = errnoMessage("getsockname");
        closeFd(fd);
        return -1;
    }
    bound_port = ntohs(actual.sin_port);
    return fd;
}

int
connectTcp(const std::string &host, uint16_t port, std::string &error)
{
    sockaddr_in addr;
    if (!fillAddress(host, port, addr, error))
        return -1;
    // EINTR during a blocking connect() leaves the attempt in progress
    // on the old socket with no portable way to resume it, so retry
    // with a FRESH socket instead of treating the signal as a
    // connection error.
    for (;;) {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) {
            error = errnoMessage("socket");
            return -1;
        }
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof addr) == 0) {
            setNoDelay(fd);
            return fd;
        }
        const int err = errno;
        closeFd(fd);
        if (err != EINTR) {
            errno = err;
            error = errnoMessage("connect");
            return -1;
        }
    }
}

void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void
setSendTimeout(int fd, double ms)
{
    const int64_t us =
        ms >= 1 ? static_cast<int64_t>(ms * 1000) : int64_t{1000};
    timeval tv = {};
    tv.tv_sec = static_cast<time_t>(us / 1000000);
    tv.tv_usec = static_cast<suseconds_t>(us % 1000000);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

bool
sendAll(int fd, const char *data, size_t len, int64_t *sys_calls)
{
    size_t sent = 0;
    while (sent < len) {
        ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
        if (sys_calls != nullptr)
            ++*sys_calls;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    return true;
}

void
shutdownFd(int fd)
{
    if (fd >= 0)
        ::shutdown(fd, SHUT_RDWR);
}

void
closeFd(int fd)
{
    if (fd >= 0)
        ::close(fd);
}

LineReader::Status
LineReader::nextView(std::string_view &out)
{
    for (;;) {
        switch (buf_.nextLine(out)) {
          case ReadBuffer::LineStatus::Line:
            return Status::Line;
          case ReadBuffer::LineStatus::Overflow:
            return Status::Overflow;
          case ReadBuffer::LineStatus::None:
            break;
        }
        if (eof_) {
            if (buf_.hasTail()) {
                out = buf_.takeTail();
                return Status::Partial;
            }
            return Status::Eof;
        }
        buf_.compact();
        char *dst = buf_.prepare(4096);
        ssize_t n = ::recv(fd_, dst, 4096, 0);
        if (n > 0) {
            buf_.commit(static_cast<size_t>(n));
        } else {
            buf_.commit(0);
            if (n == 0)
                eof_ = true;
            else if (errno != EINTR)
                return Status::Error;
        }
    }
}

LineReader::Status
LineReader::next(std::string &out)
{
    std::string_view view;
    Status st = nextView(view);
    if (st == Status::Line || st == Status::Partial ||
        st == Status::Overflow)
        out.assign(view);
    return st;
}

} // namespace square::net
