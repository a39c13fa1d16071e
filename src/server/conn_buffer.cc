#include "server/conn_buffer.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sys/socket.h>

namespace square::net {

char *
ReadBuffer::prepare(size_t n)
{
    prepared_ = buf_.size();
    buf_.resize(prepared_ + n);
    return buf_.data() + prepared_;
}

void
ReadBuffer::commit(size_t n)
{
    buf_.resize(prepared_ + n);
}

void
ReadBuffer::append(const char *data, size_t n)
{
    buf_.append(data, n);
}

ReadBuffer::LineStatus
ReadBuffer::nextLine(std::string_view &line)
{
    const char *base = buf_.data();
    if (scan_ < pos_)
        scan_ = pos_;
    const void *nl =
        std::memchr(base + scan_, '\n', buf_.size() - scan_);
    if (nl != nullptr) {
        const size_t at =
            static_cast<size_t>(static_cast<const char *>(nl) - base);
        size_t len = at - pos_;
        if (len > 0 && base[pos_ + len - 1] == '\r')
            --len;
        line = std::string_view(base + pos_, len);
        pos_ = at + 1;
        scan_ = pos_;
        return LineStatus::Line;
    }
    scan_ = buf_.size();
    if (pending() > kMaxLine) {
        // Keep a short prefix for the diagnostic reply; drop the rest
        // of the hoarded bytes (and release their capacity).
        overflow_.assign(buf_, pos_,
                         std::min(kOverflowPrefix, pending()));
        buf_.clear();
        buf_.shrink_to_fit();
        pos_ = scan_ = 0;
        line = overflow_;
        return LineStatus::Overflow;
    }
    return LineStatus::None;
}

std::string_view
ReadBuffer::takeTail()
{
    std::string_view tail(buf_.data() + pos_, pending());
    pos_ = buf_.size();
    scan_ = pos_;
    return tail;
}

void
ReadBuffer::compact()
{
    if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = scan_ = 0;
    } else if (pos_ >= 4096 && pos_ >= buf_.size() - pos_) {
        buf_.erase(0, pos_);
        scan_ -= pos_;
        pos_ = 0;
    }
}

WriteBuffer::FlushStatus
WriteBuffer::flush(int fd, int64_t &sys_calls)
{
    while (pending() > 0) {
        ssize_t n =
            ::send(fd, buf_.data() + pos_, pending(), MSG_NOSIGNAL);
        ++sys_calls;
        if (n >= 0) {
            pos_ += static_cast<size_t>(n);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            // Drop the written prefix once it dominates, so a slow
            // reader cannot pin an ever-growing buffer.
            if (pos_ >= 65536 && pos_ >= buf_.size() - pos_) {
                buf_.erase(0, pos_);
                pos_ = 0;
            }
            return FlushStatus::Blocked;
        }
        return FlushStatus::Error;
    }
    buf_.clear();
    pos_ = 0;
    return FlushStatus::Drained;
}

} // namespace square::net
