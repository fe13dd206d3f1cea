#ifndef PCDB_SERVER_NET_SOCKET_H_
#define PCDB_SERVER_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

/// \file
/// RAII wrappers over POSIX TCP sockets and poll(2).
///
/// Every raw socket syscall in the project lives in net_socket.{h,cc}
/// (enforced by pcdb-analyze's `raw-socket` checker): the rest
/// of the server subsystem speaks Socket/Listener/Poll and gets
/// consistent Status error mapping, EINTR retries, and fault-injection
/// sites for free.
///
/// Failpoint sites (tools/ci.sh faults sweeps them):
///   server.accept      fires in Listener::Accept
///   server.read        fires in Socket::Recv
///   server.read.short  behavioural: while armed, Recv reads at most one
///                      byte per call (exercises every resume-from-
///                      short-read path in the frame decoder)
///   server.write       fires in Socket::Send

namespace pcdb {

/// Outcome of one non-blocking read or write.
struct IoResult {
  size_t bytes = 0;        ///< Bytes transferred (0 on EOF / would-block).
  bool would_block = false;  ///< The operation would have blocked.
  bool eof = false;          ///< Peer closed the connection (reads only).
};

/// \brief An owned TCP socket file descriptor (move-only).
class Socket {
 public:
  Socket() = default;
  /// Takes ownership of `fd` (-1 = invalid).
  explicit Socket(int fd) : fd_(fd) {}
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  ~Socket() { Close(); }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Toggles O_NONBLOCK.
  [[nodiscard]] Status SetNonBlocking(bool non_blocking);

  /// SO_RCVTIMEO for blocking sockets (client side); 0 disables.
  [[nodiscard]] Status SetRecvTimeoutMillis(int millis);

  /// Disables Nagle (TCP_NODELAY) — the protocol writes whole frames.
  [[nodiscard]] Status SetNoDelay(bool no_delay);

  /// Half-close: shutdown(SHUT_WR). The peer sees EOF but this end can
  /// still read — how a client signals "no more requests" while waiting
  /// for the answers it is owed.
  [[nodiscard]] Status ShutdownWrite();

  /// Reads up to `len` bytes. EINTR is retried; EAGAIN/EWOULDBLOCK is
  /// reported as would_block, a peer close as eof. A timed-out blocking
  /// read surfaces as Status kTimeout.
  [[nodiscard]] Result<IoResult> Recv(void* buf, size_t len);

  /// Writes up to `len` bytes (MSG_NOSIGNAL; a closed peer is a Status,
  /// never a SIGPIPE).
  [[nodiscard]] Result<IoResult> Send(const void* buf, size_t len);

  /// Blocking helper: writes all of `data` or fails.
  [[nodiscard]] Status SendAll(const void* data, size_t len);

  /// Blocking helper: reads exactly `len` bytes into `buf`; kTimeout on
  /// receive timeout, kUnavailable when the peer closes mid-read.
  [[nodiscard]] Status RecvExact(void* buf, size_t len);

  void Close();

 private:
  int fd_ = -1;
};

/// \brief A listening TCP socket bound to `host:port`.
class Listener {
 public:
  Listener() = default;
  Listener(Listener&&) = default;
  Listener& operator=(Listener&&) = default;

  /// Binds and listens; port 0 picks an ephemeral port (read it back
  /// with port()). The listener is created non-blocking: Accept reports
  /// would_block instead of waiting.
  [[nodiscard]] static Result<Listener> BindAndListen(const std::string& host,
                                        uint16_t port, int backlog = 128);

  bool valid() const { return sock_.valid(); }
  int fd() const { return sock_.fd(); }
  uint16_t port() const { return port_; }

  /// Accepts one pending connection. `would_block` is set when none is
  /// pending; the returned socket is left in blocking mode.
  struct AcceptResult {
    Socket socket;
    bool would_block = false;
  };
  [[nodiscard]] Result<AcceptResult> Accept();

 private:
  Socket sock_;
  uint16_t port_ = 0;
};

/// Connects to `host:port` (blocking). The socket is returned in
/// blocking mode with TCP_NODELAY set.
[[nodiscard]] Result<Socket> TcpConnect(const std::string& host, uint16_t port);

/// \brief One fd's interest set and readiness for Poll().
struct PollItem {
  int fd = -1;
  bool want_read = false;
  bool want_write = false;
  // Outputs, overwritten by Poll():
  bool readable = false;
  bool writable = false;
  bool error = false;  ///< POLLERR / POLLHUP / POLLNVAL.
};

/// poll(2) over `items`; blocks up to `timeout_millis` (-1 = forever).
/// Returns the number of ready items; EINTR is retried.
[[nodiscard]] Result<int> Poll(std::vector<PollItem>* items, int timeout_millis);

/// \brief A self-pipe used to wake a Poll()ing thread from another
/// thread (eval workers notify the event loop of finished queries).
class WakePipe {
 public:
  WakePipe() = default;
  WakePipe(WakePipe&&) = default;
  WakePipe& operator=(WakePipe&&) = default;

  [[nodiscard]] static Result<WakePipe> Create();

  int read_fd() const { return read_end_.fd(); }

  /// Makes the next (or current) Poll on read_fd readable. Async-signal
  /// unsafe parts avoided: a single write(2), full pipe tolerated.
  void Notify();

  /// Consumes all pending wake bytes.
  void Drain();

 private:
  Socket read_end_;   // plain fds; Socket is just an fd owner here
  Socket write_end_;
};

}  // namespace pcdb

#endif  // PCDB_SERVER_NET_SOCKET_H_
