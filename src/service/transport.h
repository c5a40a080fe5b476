// Transport layer of the compile service (docs/ARCHITECTURE.md, "Service
// layers"): raw stream sockets plus SDFSVC1 frame I/O, shared by the
// server (service/server.h), the blocking client (service/client.h) and
// the fleet router (service/router.h).
//
// The split keeps the layers separable:
//
//   transport  — this file: listen/connect/send_all + FrameReader, and the
//                ConnectionHost both the server and the router run on
//   routing    — service/ring.h + service/router.h (who owns a key)
//   cache      — service/hot_tier.h over service/cache.h (where bytes live)
//
// Nothing here interprets payloads; framing integrity (magic, kind,
// length, CRC) is the only protocol knowledge at this layer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/protocol.h"

namespace sdf::svc {

/// close() + reset to -1; no-op on -1. Safe on any thread.
void close_fd(int& fd) noexcept;

/// Closes `fd` on scope exit; reset() swaps in another descriptor.
class FdGuard {
 public:
  explicit FdGuard(int fd) noexcept : fd_(fd) {}
  ~FdGuard() { close_fd(fd_); }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
  [[nodiscard]] int get() const noexcept { return fd_; }
  void reset(int fd) noexcept {
    close_fd(fd_);
    fd_ = fd;
  }

 private:
  int fd_;
};

/// Ignores SIGPIPE process-wide (idempotent). Every send here already
/// passes MSG_NOSIGNAL, but library users and stdio can still write to a
/// dead pipe; a daemon must never die for that. Called from server,
/// router, and client setup.
void ignore_sigpipe() noexcept;

/// Writes all of `data` (MSG_NOSIGNAL, EINTR-retried). False when the
/// peer went away — callers on the serving side just drop the connection.
[[nodiscard]] bool send_all(int fd, std::string_view data) noexcept;

/// Sends one frame on a serving connection. A half-sent reply is
/// unrecoverable there, so a short write shuts the socket down: the
/// peer's blocking read sees EOF (a typed kClosed) instead of waiting
/// forever on a torn frame.
void send_frame(int fd, FrameKind kind, std::string_view payload);

/// send_all for client-side paths where a short write is an error worth
/// reporting; throws IoError with the errno detail.
void send_all_or_throw(int fd, std::string_view data);

/// Connects to a Unix-domain socket. Throws BadArgumentError / IoError.
[[nodiscard]] int connect_unix(const std::string& path);

/// Connects to loopback TCP. Throws BadArgumentError / IoError.
[[nodiscard]] int connect_tcp(int port);

/// One network address: Unix socket path when non-empty, else loopback
/// TCP. The same convention as ClientOptions / ServerOptions.
struct Endpoint {
  std::string socket_path;
  int tcp_port = 0;

  [[nodiscard]] std::string name() const {
    return socket_path.empty() ? "127.0.0.1:" + std::to_string(tcp_port)
                               : socket_path;
  }
  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

/// Connects to `ep`; throws BadArgumentError when neither field is set.
[[nodiscard]] int connect_endpoint(const Endpoint& ep);

enum class ReadOutcome {
  kFrame,     ///< one complete frame decoded into *out
  kClosed,    ///< EOF or socket error before a complete frame
  kTimeout,   ///< timeout_ms elapsed without a complete frame
  kBadFrame,  ///< framing violation — see FrameReader::last_decode()
};

/// Incremental SDFSVC1 frame reader over one stream socket. Owns the
/// partial-frame buffer, so bytes of a following frame that arrive in
/// the same recv() are kept for the next read() call. Not thread-safe;
/// one reader per connection.
class FrameReader {
 public:
  /// Blocks (poll + recv) until a full frame, EOF, a framing error, or
  /// the timeout. `timeout_ms` < 0 blocks indefinitely; the timeout is a
  /// total deadline for this call, not per-recv. EINTR never surfaces.
  [[nodiscard]] ReadOutcome read(int fd, Frame* out, int timeout_ms = -1);

  /// The decode status behind the last kBadFrame outcome.
  [[nodiscard]] DecodeStatus last_decode() const noexcept { return last_; }

  /// True when a partial frame is buffered (EOF now = torn frame).
  [[nodiscard]] bool mid_frame() const noexcept { return !buffer_.empty(); }

 private:
  std::string buffer_;
  DecodeStatus last_ = DecodeStatus::kNeedMore;
};

/// The listeners and connection threads of a serving process: the one
/// accept loop and per-connection read loop that the daemon
/// (service/server.h) and the fleet router (service/router.h) share.
/// The owner supplies only a frame handler and an error sender.
///
/// run() polls and accepts (fault site svc_accept); each connection gets
/// a thread that decodes frames with a 50 ms drain tick. Bad framing is
/// answered with a typed kBadArgument error and drops the connection; a
/// handler that throws is answered with the exception's typed
/// diagnostic. On stop() or the process shutdown flag (util/shutdown.h)
/// it stops accepting, runs on_drain, closes and unlinks the listeners,
/// and joins every connection thread once its received requests are
/// answered.
///
/// Bounded resources: finished connection threads are joined on every
/// accept tick; live connections are capped by connection_cap(), and an
/// excess one gets a typed kOverloaded error; an accept() that fails for
/// lack of descriptors (EMFILE/ENFILE) backs off one tick instead of
/// spinning on the still-readable listener.
class ConnectionHost {
 public:
  struct Hooks {
    /// Answers one decoded frame on `fd`; may throw.
    std::function<void(int fd, const Frame& frame)> on_frame;
    /// Sends one typed error frame (the owner counts it).
    std::function<void(int fd, const Diagnostic& diag)> send_error;
    /// Counts one connection dropped on bad framing, before its error.
    std::function<void()> on_bad_frame;
    /// Runs once accepting stopped, before the joins; may be empty.
    std::function<void()> on_drain;
  };

  /// `who` prefixes listener and overload messages ("serve", "route").
  ConnectionHost(std::string who, Hooks hooks);
  /// Joins any connection thread still running and closes the listeners.
  ~ConnectionHost();

  ConnectionHost(const ConnectionHost&) = delete;
  ConnectionHost& operator=(const ConnectionHost&) = delete;

  /// Ignores SIGPIPE and binds the listeners (empty path / zero port
  /// disables one). Throws BadArgumentError when both are disabled,
  /// IoError when a bind fails.
  void listen(const std::string& socket_path, int tcp_port);
  /// Accept loop plus drain; listen() must have succeeded.
  void run();

  /// Requests a drain (idempotent, callable from any thread).
  void stop() noexcept;
  [[nodiscard]] bool stop_requested() const noexcept;
  /// Sleeps `interval_ms` in 20 ms slices for a housekeeping thread;
  /// false as soon as a drain is requested.
  [[nodiscard]] bool wait_unless_stopped(int interval_ms) const;

  /// The bound TCP port (after listen()); 0 when TCP is off.
  [[nodiscard]] int tcp_port() const noexcept { return bound_tcp_port_; }
  /// Connections accepted (rejected excess ones included).
  [[nodiscard]] std::int64_t connections() const noexcept {
    return connections_.load(std::memory_order_relaxed);
  }

  /// Live-connection cap from the soft RLIMIT_NOFILE, read when run()
  /// starts: (limit - 64) / 4, at least 1. The 64 descriptors stay free
  /// for listeners, cache and journal files; 4 is the most one routed
  /// request holds (client, owner, one peer).
  [[nodiscard]] static int connection_cap() noexcept;

 private:
  using Clock = std::chrono::steady_clock;
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_one(int listener, std::size_t cap);
  void serve(int fd);
  /// Answers kOverloaded and closes one tick later, so the client's
  /// request write still succeeds and its read sees the error frame.
  void reject(int fd, const std::string& reason);
  /// Joins finished connection threads and closes expired rejections;
  /// `all` joins and closes everything (the drain).
  void reap(bool all);

  std::string who_;
  Hooks hooks_;
  std::string socket_path_;
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int bound_tcp_port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> connections_{0};
  /// Touched only by the thread in run() (and the destructor after it).
  std::list<Connection> live_;
  std::vector<std::pair<int, Clock::time_point>> rejected_;
};

}  // namespace sdf::svc
