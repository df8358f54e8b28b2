#include "relay.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "tracer.h"

namespace perfbench {

namespace {

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

void no_delay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool send_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t sent = ::send(fd, data, n, MSG_NOSIGNAL);
    if (sent < 0 && errno == EINTR) continue;
    if (sent <= 0) return false;
    data += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return true;
}

}  // namespace

RecordingRelay::~RecordingRelay() { stop(); }

std::string RecordingRelay::start(std::uint16_t target_port) {
  target_port_ = target_port;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return std::string("relay socket: ") + std::strerror(errno);
  sockaddr_in addr = loopback(0);
  socklen_t len = sizeof(addr);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 8) != 0 ||
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return std::string("relay bind: ") + std::strerror(errno);
  port_ = ntohs(addr.sin_port);
  thread_ = std::thread([this] { loop(); });
  return "";
}

void RecordingRelay::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

void RecordingRelay::loop() {
  struct Pair {
    int worker;
    int coordinator;
  };
  std::vector<Pair> pairs;  // Index == streams_ index; -1 fds once closed.
  std::vector<pollfd> fds;
  char buffer[64 * 1024];
  while (!stop_.load()) {
    fds.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const Pair& pair : pairs) {
      fds.push_back({pair.worker, POLLIN, 0});
      fds.push_back({pair.coordinator, POLLIN, 0});
    }
    if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
    const std::size_t known = pairs.size();
    if ((fds[0].revents & POLLIN) != 0) {
      const int worker = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (worker >= 0) {
        const int coordinator = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        const sockaddr_in target = loopback(target_port_);
        if (coordinator >= 0 &&
            ::connect(coordinator, reinterpret_cast<const sockaddr*>(&target),
                      sizeof(target)) == 0) {
          no_delay(worker);
          no_delay(coordinator);
          pairs.push_back({worker, coordinator});
          streams_.emplace_back();
        } else {
          ::close(worker);
          if (coordinator >= 0) ::close(coordinator);
        }
      }
    }
    for (std::size_t i = 0; i < known; ++i) {
      Pair& pair = pairs[i];
      for (const bool from_worker : {true, false}) {
        const pollfd& polled = fds[1 + 2 * i + (from_worker ? 0 : 1)];
        if (pair.worker < 0 || (polled.revents & (POLLIN | POLLHUP | POLLERR)) == 0)
          continue;
        const int from = from_worker ? pair.worker : pair.coordinator;
        const int to = from_worker ? pair.coordinator : pair.worker;
        const ssize_t n = ::recv(from, buffer, sizeof(buffer), 0);
        if (n < 0 && errno == EINTR) continue;
        const std::int64_t when = now_ns();
        if (n > 0 && send_all(to, buffer, static_cast<std::size_t>(n))) {
          auto& chunks = from_worker ? streams_[i].to_coordinator
                                     : streams_[i].to_worker;
          chunks.push_back({when, std::string(buffer, static_cast<std::size_t>(n))});
          continue;
        }
        // EOF or error on either side ends the relayed connection.
        ::close(pair.worker);
        ::close(pair.coordinator);
        pair.worker = pair.coordinator = -1;
      }
    }
  }
  for (const Pair& pair : pairs) {
    if (pair.worker < 0) continue;
    ::close(pair.worker);
    ::close(pair.coordinator);
  }
}

}  // namespace perfbench
