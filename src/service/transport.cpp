#include "service/transport.h"

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <system_error>

#include "sdf/diagnostics.h"
#include "util/fault.h"
#include "util/shutdown.h"
#include "util/status.h"

namespace sdf::svc {
namespace {

/// Accept-loop poll period and per-connection read timeout: how quickly a
/// drain request is noticed.
constexpr std::chrono::milliseconds kTick{50};

[[nodiscard]] sockaddr_un unix_addr(const std::string& path,
                                    std::string_view who) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw BadArgumentError(std::string(who) + ": socket path too long: " +
                           path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

[[nodiscard]] sockaddr_in loopback_addr(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port > 0 ? static_cast<std::uint16_t>(port) : 0);
  return addr;
}

/// connect() with EINTR handled correctly. A blocking connect interrupted
/// by a signal keeps establishing in the background (POSIX); re-calling
/// connect() would yield a spurious EALREADY/EISCONN. Wait for the socket
/// to become writable, then read the real result from SO_ERROR.
[[nodiscard]] int connect_eintr(int fd, const sockaddr* addr,
                                socklen_t len) noexcept {
  if (::connect(fd, addr, len) == 0) return 0;
  if (errno != EINTR) return -1;
  for (;;) {
    pollfd p{fd, POLLOUT, 0};
    const int r = ::poll(&p, 1, -1);
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r > 0) break;
  }
  int err = 0;
  socklen_t elen = sizeof err;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &elen) != 0) return -1;
  if (err != 0) {
    errno = err;
    return -1;
  }
  return 0;
}

}  // namespace

void close_fd(int& fd) noexcept {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void ignore_sigpipe() noexcept { std::signal(SIGPIPE, SIG_IGN); }

bool send_all(int fd, std::string_view data) noexcept {
  if (fault::enabled() && fault::should_fail("svc_send_short")) {
    return false;  // injected: the peer vanished mid-write
  }
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // peer went away; nothing sensible to do
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void send_frame(int fd, FrameKind kind, std::string_view payload) {
  if (!send_all(fd, encode_frame(kind, payload))) ::shutdown(fd, SHUT_RDWR);
}

void send_all_or_throw(int fd, std::string_view data) {
  errno = 0;
  if (!send_all(fd, data)) {
    // errno stays 0 only when the svc_send_short fault fired.
    throw IoError(std::string("client: send(): ") +
                  (errno != 0 ? std::strerror(errno)
                              : "injected svc_send_short fault"));
  }
}

namespace {

/// Binds + listens on a Unix-domain socket, replacing any stale socket
/// file at `path`.
int listen_unix(const std::string& path) {
  const sockaddr_un addr = unix_addr(path, "serve");
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw IoError(std::string("serve: socket(): ") + std::strerror(errno));
  }
  ::unlink(path.c_str());  // replace a stale socket
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(fd, 64) != 0) {
    const std::string detail = std::strerror(errno);
    close_fd(fd);
    throw IoError("serve: cannot listen on " + path + ": " + detail);
  }
  return fd;
}

/// Binds + listens on loopback TCP; `port` < 0 asks for an ephemeral one.
int listen_tcp(int port, int* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw IoError(std::string("serve: socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  const sockaddr_in addr = loopback_addr(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(fd, 64) != 0) {
    const std::string detail = std::strerror(errno);
    close_fd(fd);
    throw IoError("serve: cannot listen on loopback TCP: " + detail);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (bound_port != nullptr &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

}  // namespace

int connect_unix(const std::string& path) {
  const sockaddr_un addr = unix_addr(path, "client");
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw IoError(std::string("client: socket(): ") + std::strerror(errno));
  }
  if (connect_eintr(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) != 0) {
    const std::string detail = std::strerror(errno);
    close_fd(fd);
    throw IoError("client: cannot connect to " + path + ": " + detail);
  }
  return fd;
}

int connect_tcp(int port) {
  if (port <= 0) {
    throw BadArgumentError("client: invalid TCP port " +
                           std::to_string(port));
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw IoError(std::string("client: socket(): ") + std::strerror(errno));
  }
  const sockaddr_in addr = loopback_addr(port);
  if (connect_eintr(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) != 0) {
    const std::string detail = std::strerror(errno);
    close_fd(fd);
    throw IoError("client: cannot connect to 127.0.0.1:" +
                  std::to_string(port) + ": " + detail);
  }
  return fd;
}

int connect_endpoint(const Endpoint& ep) {
  if (!ep.socket_path.empty()) return connect_unix(ep.socket_path);
  if (ep.tcp_port > 0) return connect_tcp(ep.tcp_port);
  throw BadArgumentError("client: no endpoint (need --socket or --port)");
}

ReadOutcome FrameReader::read(int fd, Frame* out, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      timeout_ms < 0 ? Clock::time_point::max()
                     : Clock::now() + std::chrono::milliseconds(timeout_ms);
  char chunk[65536];
  for (;;) {
    std::size_t consumed = 0;
    const DecodeStatus st = decode_frame(buffer_, out, &consumed);
    if (st == DecodeStatus::kOk) {
      buffer_.erase(0, consumed);
      return ReadOutcome::kFrame;
    }
    if (st != DecodeStatus::kNeedMore) {
      last_ = st;
      return ReadOutcome::kBadFrame;
    }
    int wait = -1;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      if (left <= 0) return ReadOutcome::kTimeout;
      wait = static_cast<int>(left);
    }
    pollfd p{fd, POLLIN, 0};
    const int r = ::poll(&p, 1, wait);
    if (r < 0) {
      if (errno == EINTR) continue;
      return ReadOutcome::kClosed;
    }
    if (r == 0) return ReadOutcome::kTimeout;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ReadOutcome::kClosed;
    }
    if (n == 0) return ReadOutcome::kClosed;
    if (fault::enabled() && fault::should_fail("svc_recv_torn")) {
      // Injected: the stream tears here — whatever was buffered is a
      // torn frame, exactly like a peer dying mid-send.
      buffer_.clear();
      return ReadOutcome::kClosed;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

ConnectionHost::ConnectionHost(std::string who, Hooks hooks)
    : who_(std::move(who)), hooks_(std::move(hooks)) {}

ConnectionHost::~ConnectionHost() {
  stop();
  reap(/*all=*/true);
  close_fd(unix_fd_);
  close_fd(tcp_fd_);
}

bool ConnectionHost::stop_requested() const noexcept {
  return stop_.load(std::memory_order_relaxed) || util::shutdown_requested();
}

void ConnectionHost::stop() noexcept {
  stop_.store(true, std::memory_order_relaxed);
}

bool ConnectionHost::wait_unless_stopped(int interval_ms) const {
  for (int waited = 0; waited < interval_ms && !stop_requested();
       waited += 20) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return !stop_requested();
}

int ConnectionHost::connection_cap() noexcept {
  constexpr rlim_t kReservedFds = 64;
  constexpr rlim_t kFdsPerConnection = 4;
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0 || lim.rlim_cur == RLIM_INFINITY) {
    return std::numeric_limits<int>::max();
  }
  const rlim_t usable =
      lim.rlim_cur > kReservedFds ? lim.rlim_cur - kReservedFds : 0;
  return static_cast<int>(std::clamp<rlim_t>(
      usable / kFdsPerConnection, 1, std::numeric_limits<int>::max()));
}

void ConnectionHost::listen(const std::string& socket_path, int tcp_port) {
  if (socket_path.empty() && tcp_port == 0) {
    throw BadArgumentError(who_ + ": no listener configured "
                                  "(need --socket and/or --port)");
  }
  // A peer that hangs up mid-response turns the next send into EPIPE,
  // not a process-killing SIGPIPE.
  ignore_sigpipe();
  if (!socket_path.empty()) {
    unix_fd_ = listen_unix(socket_path);
    socket_path_ = socket_path;
  }
  if (tcp_port != 0) {
    try {
      tcp_fd_ = listen_tcp(tcp_port, &bound_tcp_port_);
    } catch (...) {
      close_fd(unix_fd_);
      throw;
    }
  }
}

void ConnectionHost::run() {
  const auto cap = static_cast<std::size_t>(connection_cap());
  while (!stop_requested()) {
    reap(/*all=*/false);
    pollfd fds[2];
    nfds_t nfds = 0;
    if (unix_fd_ >= 0) fds[nfds++] = pollfd{unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) fds[nfds++] = pollfd{tcp_fd_, POLLIN, 0};
    const int r = ::poll(fds, nfds, static_cast<int>(kTick.count()));
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (nfds_t i = 0; i < nfds; ++i) {
      if ((fds[i].revents & POLLIN) != 0) accept_one(fds[i].fd, cap);
    }
  }
  if (hooks_.on_drain) hooks_.on_drain();
  close_fd(unix_fd_);
  close_fd(tcp_fd_);
  if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
  reap(/*all=*/true);
}

void ConnectionHost::accept_one(int listener, std::size_t cap) {
  const int fd = ::accept(listener, nullptr, nullptr);
  if (fd < 0) {
    // Out of descriptors: the pending connection keeps the listener
    // readable, so an immediate retry would spin poll at full CPU. Wait
    // a tick for connections to finish. EINTR and every other accept
    // error just fall back to the poll loop.
    if (errno == EMFILE || errno == ENFILE) std::this_thread::sleep_for(kTick);
    return;
  }
  if (fault::enabled() && fault::should_fail("svc_accept")) {
    ::close(fd);  // injected: the accepted connection is dropped
    return;
  }
  connections_.fetch_add(1, std::memory_order_relaxed);
  if (live_.size() >= cap) reap(/*all=*/false);  // count only live ones
  if (live_.size() >= cap) {
    reject(fd, "connection limit of " + std::to_string(cap) +
                   " reached (derived from RLIMIT_NOFILE)");
    return;
  }
  Connection& conn = live_.emplace_back();
  try {
    conn.thread = std::thread([this, fd, &conn] {
      serve(fd);
      conn.done.store(true, std::memory_order_release);
    });
  } catch (const std::system_error&) {
    live_.pop_back();
    reject(fd, "cannot start a connection thread");
  }
}

void ConnectionHost::serve(int fd) {
  // Buffered frames are always decoded and answered before the next
  // poll (FrameReader drains its buffer first), so requests received
  // before a drain still get their responses.
  FrameReader reader;
  for (;;) {
    Frame frame;
    const ReadOutcome rc =
        reader.read(fd, &frame, static_cast<int>(kTick.count()));
    if (rc == ReadOutcome::kFrame) {
      try {
        hooks_.on_frame(fd, frame);
      } catch (const std::exception& e) {
        // Backstop: a handler that throws (cache IO, disk full) answers
        // typed instead of an exception escaping this thread.
        hooks_.send_error(fd, diagnostic_from_exception(e));
      }
      continue;
    }
    if (rc == ReadOutcome::kTimeout) {
      if (stop_requested()) break;
      continue;
    }
    if (rc == ReadOutcome::kClosed) break;  // EOF — the peer is done
    hooks_.on_bad_frame();
    Diagnostic diag;
    diag.code = ErrorCode::kBadArgument;
    diag.message =
        "bad frame: " + std::string(decode_status_name(reader.last_decode())) +
        " (protocol SDFSVC1, see docs/SERVICE.md)";
    hooks_.send_error(fd, diag);
    break;
  }
  ::close(fd);
}

void ConnectionHost::reject(int fd, const std::string& reason) {
  Diagnostic diag;
  diag.code = ErrorCode::kOverloaded;
  diag.message = who_ + " overloaded: " + reason + "; retry later";
  hooks_.send_error(fd, diag);
  ::shutdown(fd, SHUT_WR);
  rejected_.emplace_back(fd, Clock::now() + kTick);
}

void ConnectionHost::reap(bool all) {
  for (auto it = live_.begin(); it != live_.end();) {
    if (all || it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = live_.erase(it);
    } else {
      ++it;
    }
  }
  const Clock::time_point now = Clock::now();
  std::erase_if(rejected_, [&](std::pair<int, Clock::time_point>& r) {
    if (!all && r.second > now) return false;
    close_fd(r.first);
    return true;
  });
}

}  // namespace sdf::svc
