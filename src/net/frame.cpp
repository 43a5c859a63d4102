#include "net/frame.hpp"

#include <sys/socket.h>

#include <cerrno>

#include "net/socket.hpp"

namespace lbist::net {

void LineFramer::feed(const char* data, std::size_t n) {
  buffer_.append(data, n);
}

bool LineFramer::next(std::string* out) {
  const std::size_t nl = buffer_.find('\n', scanned_);
  if (nl == std::string::npos) {
    scanned_ = buffer_.size();
    if (buffer_.size() > max_line_) {
      throw Error("request line exceeds " + std::to_string(max_line_) +
                  " bytes");
    }
    return false;
  }
  out->assign(buffer_, 0, nl);
  buffer_.erase(0, nl + 1);
  scanned_ = 0;
  if (out->size() > max_line_) {
    throw Error("request line exceeds " + std::to_string(max_line_) +
                " bytes");
  }
  if (!out->empty() && out->back() == '\r') out->pop_back();
  return true;
}

bool LineFramer::finish(std::string* out) {
  if (buffer_.empty()) return false;
  *out = std::move(buffer_);
  buffer_.clear();
  scanned_ = 0;
  if (!out->empty() && out->back() == '\r') out->pop_back();
  return true;
}

bool recv_line(int fd, LineFramer& framer, std::string* out) {
  char chunk[4096];
  while (!framer.next(out)) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("recv");
    }
    if (n == 0) return framer.finish(out);
    framer.feed(chunk, static_cast<std::size_t>(n));
  }
  return true;
}

bool OutboundBuffer::append(std::string_view data) {
  if (pending() + data.size() > limit_) return false;
  // Reclaim the sent prefix before growing, so the buffer's footprint
  // stays proportional to unsent bytes, not to connection lifetime.
  if (offset_ > 0 && (offset_ >= pending_.size() / 2 || pending() == 0)) {
    pending_.erase(0, offset_);
    offset_ = 0;
  }
  pending_.append(data);
  return true;
}

OutboundBuffer::Flush OutboundBuffer::flush(int fd) {
  while (offset_ < pending_.size()) {
    const ssize_t n = ::send(fd, pending_.data() + offset_,
                             pending_.size() - offset_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Flush::Partial;
      return Flush::PeerGone;
    }
    offset_ += static_cast<std::size_t>(n);
  }
  pending_.clear();
  offset_ = 0;
  return Flush::Drained;
}

}  // namespace lbist::net
