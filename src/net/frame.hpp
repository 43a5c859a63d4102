#pragma once
// Non-blocking framed line I/O for the sharded server.
//
// LineFramer is the read half: an incremental newline-delimited frame
// decoder.  The shard feeds it whatever recv() returned — a frame split
// across any number of reads, or many frames in one read — and pops
// complete lines.  A line larger than the bound throws lbist::Error with
// the same "request line exceeds N bytes" message the thread-per-
// connection server used, so clients see identical protocol errors.
//
// OutboundBuffer is the write half: a bounded pending-bytes queue with
// explicit backpressure.  Workers append response lines; the shard
// flushes with non-blocking send() and arms EPOLLOUT for the remainder.
// append() refuses to grow past the bound — the server treats that as a
// slow reader and disconnects instead of buffering without limit.
// Neither class is thread-safe by itself; the server serializes access
// per connection.
//
// recv_line is the blocking client's read half: it drives a LineFramer
// from a blocking socket, so the client and the server frame lines with
// the same code and the same bound.

#include <cstddef>
#include <string>
#include <string_view>

#include "support/check.hpp"

namespace lbist::net {

class LineFramer {
 public:
  /// `max_line` bounds buffered bytes per line so one hostile client
  /// cannot balloon server memory.
  explicit LineFramer(std::size_t max_line = 1 << 20)
      : max_line_(max_line) {}

  /// Appends raw bytes from the wire.
  void feed(const char* data, std::size_t n);
  void feed(std::string_view data) { feed(data.data(), data.size()); }

  /// Pops the next complete line (newline stripped, trailing '\r' too).
  /// Returns false when no complete line is buffered yet.  Throws Error
  /// when the buffered partial line exceeds max_line.
  [[nodiscard]] bool next(std::string* out);

  /// Call at end-of-stream: delivers a final unterminated line, if any.
  [[nodiscard]] bool finish(std::string* out);

  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  std::size_t max_line_;
  std::string buffer_;
  std::size_t scanned_ = 0;  ///< prefix already known to hold no '\n'
};

/// Blocking read of the next line from `fd` through `framer`.  Returns
/// false at clean end-of-stream, after a final unterminated line (if any)
/// has been delivered.  Throws Error on a recv failure or when a line
/// exceeds the framer's bound.
[[nodiscard]] bool recv_line(int fd, LineFramer& framer, std::string* out);

class OutboundBuffer {
 public:
  /// Result of one non-blocking flush attempt.
  enum class Flush {
    Drained,   ///< everything pending was written
    Partial,   ///< the socket buffer filled; arm EPOLLOUT and retry later
    PeerGone,  ///< the peer reset / closed; drop the connection
  };

  /// `limit` bounds pending (unsent) bytes per connection.
  explicit OutboundBuffer(std::size_t limit) : limit_(limit) {}

  /// Queues bytes for sending.  Returns false — WITHOUT queueing — when
  /// pending + data would exceed the bound; the caller should treat the
  /// peer as a slow reader and disconnect.
  [[nodiscard]] bool append(std::string_view data);

  /// Writes as much pending data as the socket accepts (non-blocking;
  /// MSG_NOSIGNAL).  `fd` must be a non-blocking socket.
  [[nodiscard]] Flush flush(int fd);

  [[nodiscard]] bool empty() const { return offset_ == pending_.size(); }
  [[nodiscard]] std::size_t pending() const {
    return pending_.size() - offset_;
  }

 private:
  std::string pending_;
  std::size_t offset_ = 0;  ///< bytes of pending_ already sent
  std::size_t limit_;
};

}  // namespace lbist::net
