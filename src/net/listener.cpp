#include "net/listener.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <string>

namespace lbist::net {

namespace {

Socket open_reserve() {
  // /dev/null is always openable and costs nothing; any fd works as the
  // EMFILE shedding reserve.
  return Socket(::open("/dev/null", O_RDONLY | O_CLOEXEC));
}

}  // namespace

ReuseportListener::ReuseportListener(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) fail_errno("socket");
  sock_ = Socket(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
    fail_errno("setsockopt SO_REUSEPORT");
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    fail_errno("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, SOMAXCONN) != 0) fail_errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    fail_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  reserve_ = open_reserve();
}

ReuseportListener::AcceptStatus ReuseportListener::accept_one(Socket* out) {
  const int fd = ::accept(sock_.fd(), nullptr, nullptr);
  if (fd >= 0) {
    *out = Socket(fd);
    set_nonblocking(fd);
    return AcceptStatus::Accepted;
  }
  switch (errno) {
    case EAGAIN:
#if EAGAIN != EWOULDBLOCK
    case EWOULDBLOCK:
#endif
      return AcceptStatus::WouldBlock;
    case EINTR:
    case ECONNABORTED:
#ifdef EPROTO
    case EPROTO:
#endif
      return AcceptStatus::Retry;
    case EMFILE:
    case ENFILE:
    case ENOBUFS:
    case ENOMEM: {
      // Reserve-fd shedding: free one slot, accept the pending connection
      // and close it immediately so the peer gets a clean close instead of
      // hanging in the backlog, then reacquire the reserve.  The kernel
      // allocates the fd before it looks at the backlog, so the original
      // EMFILE does not prove anything was pending — an EAGAIN here means
      // the backlog is empty and the caller should stop the accept burst
      // instead of shedding in a loop.
      reserve_.close();
      const int shed = ::accept(sock_.fd(), nullptr, nullptr);
      if (shed >= 0) ::close(shed);
      const bool backlog_empty =
          shed < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
      reserve_ = open_reserve();
      return backlog_empty ? AcceptStatus::WouldBlock
                           : AcceptStatus::FdExhausted;
    }
    default:
      fail_errno("accept");
  }
}

}  // namespace lbist::net
