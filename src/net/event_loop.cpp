#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <string>

#include "net/socket.hpp"
#include "support/check.hpp"

namespace lbist::net {

namespace {

// The wakeup eventfd is registered under a tag no shard connection can
// collide with (connection ids count up from 1).
constexpr std::uint64_t kWakeTag = ~0ULL;

std::uint32_t to_epoll(std::uint32_t events) {
  std::uint32_t e = 0;
  if ((events & EventLoop::kRead) != 0) e |= EPOLLIN;
  if ((events & EventLoop::kWrite) != 0) e |= EPOLLOUT;
  return e;
}

}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) fail_errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    fail_errno("eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    ::close(wake_fd_);
    ::close(epoll_fd_);
    fail_errno("epoll_ctl add wakeup");
  }
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::add(int fd, std::uint32_t events, std::uint64_t tag) {
  epoll_event ev{};
  ev.events = to_epoll(events);
  ev.data.u64 = tag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    fail_errno("epoll_ctl add");
  }
}

void EventLoop::mod(int fd, std::uint32_t events, std::uint64_t tag) {
  epoll_event ev{};
  ev.events = to_epoll(events);
  ev.data.u64 = tag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    fail_errno("epoll_ctl mod");
  }
}

void EventLoop::del(int fd) {
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr) != 0) {
    fail_errno("epoll_ctl del");
  }
}

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

int EventLoop::wait(std::vector<Ready>* out, int timeout_ms, bool* woken) {
  if (iteration_hook_ && busy_since_ns_ != 0) {
    iteration_hook_(steady_now_ns() - busy_since_ns_);
  }
  out->clear();
  *woken = false;
  epoll_event events[64];
  int n = 0;
  do {
    n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) fail_errno("epoll_wait");
  if (iteration_hook_) busy_since_ns_ = steady_now_ns();
  out->reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (events[i].data.u64 == kWakeTag) {
      std::uint64_t counter = 0;
      // Drain the eventfd counter so level-triggered epoll quiets down;
      // coalesced wakeups arrive as one read.
      [[maybe_unused]] const ssize_t r =
          ::read(wake_fd_, &counter, sizeof counter);
      *woken = true;
      continue;
    }
    Ready ready;
    ready.tag = events[i].data.u64;
    ready.readable = (events[i].events & EPOLLIN) != 0;
    ready.writable = (events[i].events & EPOLLOUT) != 0;
    ready.hangup = (events[i].events & (EPOLLHUP | EPOLLERR)) != 0;
    out->push_back(ready);
  }
  return static_cast<int>(out->size());
}

void EventLoop::wakeup() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

}  // namespace lbist::net
