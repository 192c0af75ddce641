#include "plinda/net/endpoint.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <thread>

namespace fpdm::plinda::net {

namespace {

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

int FailFd(std::string* error, std::string message) {
  Fail(error, std::move(message));
  return -1;
}

/// Accept-queue depth of the server's listening socket.
constexpr int kListenBacklog = 128;

/// Longest path sun_path holds with its terminating NUL.
constexpr size_t kMaxSocketPath = sizeof(sockaddr_un{}.sun_path) - 1;

/// Fills a sockaddr_un for `path`, refusing one that would truncate.
bool FillUnixAddr(const std::string& path, sockaddr_un* addr,
                  std::string* error) {
  if (path.size() > kMaxSocketPath) {
    return Fail(error, "socket path of " + std::to_string(path.size()) +
                           " bytes exceeds the " +
                           std::to_string(kMaxSocketPath) +
                           "-byte sun_path limit: " + path);
  }
  ::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  ::memcpy(addr->sun_path, path.c_str(), path.size());
  return true;
}

}  // namespace

bool ParseEndpoint(const std::string& text, std::string* path,
                   std::string* error) {
  for (const char* retired : {"tcp", "shm"}) {
    if (text.rfind(std::string(retired) + ":", 0) == 0) {
      return Fail(error, "bad endpoint \"" + text + "\": the " + retired +
                             " transport is retired; use a unix socket "
                             "path");
    }
  }
  std::string parsed = text.rfind("unix:", 0) == 0 ? text.substr(5) : text;
  if (parsed.empty()) {
    return Fail(error, "bad endpoint \"" + text + "\": empty socket path");
  }
  sockaddr_un addr;
  if (!FillUnixAddr(parsed, &addr, error)) return false;
  *path = std::move(parsed);
  return true;
}

int ConnectSocket(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!FillUnixAddr(path, &addr, error)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return FailFd(error, "socket(AF_UNIX) failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    return FailFd(error,
                  "connect to " + path + " failed: " + ::strerror(saved));
  }
  return fd;
}

int ListenSocket(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!FillUnixAddr(path, &addr, error)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return FailFd(error, "socket(AF_UNIX) failed");
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, kListenBacklog) != 0) {
    const int saved = errno;
    ::close(fd);
    return FailFd(error,
                  "bind/listen on " + path + " failed: " + ::strerror(saved));
  }
  return fd;
}

bool WaitForEndpoint(const std::string& endpoint, double timeout_s) {
  using Clock = std::chrono::steady_clock;
  std::string path;
  if (!ParseEndpoint(endpoint, &path)) return false;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (;;) {
    const int fd = ConnectSocket(path);
    if (fd >= 0) {
      ::close(fd);
      return true;
    }
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace fpdm::plinda::net
