#include "common/line_socket.h"

#include <cerrno>
#include <cstring>
#include <memory>

#include "common/error.h"

#ifndef _WIN32
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace flaml {

#ifndef _WIN32

namespace {

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  FLAML_REQUIRE(path.size() < sizeof(addr.sun_path),
                "socket path too long: '" << path << "'");
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  return addr;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t w = ::send(fd, bytes.data() + written, bytes.size() - written,
                             MSG_NOSIGNAL);
    if (w <= 0) return;
    written += static_cast<std::size_t>(w);
  }
}

}  // namespace

int listen_unix(const std::string& path, int backlog) {
  const sockaddr_un addr = unix_address(path);
  ::unlink(path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  FLAML_REQUIRE(fd >= 0, "socket(): " << std::strerror(errno));
  FLAML_REQUIRE(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0,
                "bind('" << path << "'): " << std::strerror(errno));
  FLAML_REQUIRE(::listen(fd, backlog) == 0, "listen(): " << std::strerror(errno));
  return fd;
}

void serve_lines(int client,
                 const std::function<std::string(const std::string&)>& handle,
                 const std::function<bool()>& stop) {
  constexpr std::size_t kChunk = 64 * 1024;
  // Not zero-filled: a page of it becomes resident only once a read
  // reaches it, so small requests keep the connection's memory small.
  const auto chunk = std::make_unique_for_overwrite<char[]>(kChunk);
  std::string buffer;  // bytes after the last '\n' seen, none of them '\n'
  std::string line;
  ssize_t n = 0;
  while (!(stop && stop()) && (n = ::read(client, chunk.get(), kChunk)) > 0) {
    std::size_t scan = buffer.size();  // the first byte not yet searched
    buffer.append(chunk.get(), static_cast<std::size_t>(n));
    std::size_t begin = 0;  // the first byte of the next line
    while (const void* nl = std::memchr(buffer.data() + scan, '\n', buffer.size() - scan)) {
      const std::size_t end = static_cast<std::size_t>(static_cast<const char*>(nl) - buffer.data());
      if (end > begin) {
        line.assign(buffer, begin, end - begin);
        std::string reply = handle(line);
        reply += '\n';
        send_all(client, reply);
      }
      begin = scan = end + 1;
    }
    buffer.erase(0, begin);
  }
}

std::string round_trip(const std::string& path, const std::string& request) {
  const sockaddr_un addr = unix_address(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  FLAML_REQUIRE(fd >= 0, "socket(): " << std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw InvalidArgument("connect('" + path + "'): " + std::strerror(errno));
  }
  const std::string line = request + "\n";
  std::size_t written = 0;
  while (written < line.size()) {
    const ssize_t w = ::write(fd, line.data() + written, line.size() - written);
    FLAML_REQUIRE(w > 0, "write(): " << std::strerror(errno));
    written += static_cast<std::size_t>(w);
  }
  std::string response;
  char c = 0;
  while (::read(fd, &c, 1) == 1 && c != '\n') response.push_back(c);
  ::close(fd);
  FLAML_REQUIRE(!response.empty(), "daemon closed the connection mid-request");
  return response;
}

#else

int listen_unix(const std::string&, int) {
  throw InvalidArgument("socket mode is POSIX-only; use stdio mode");
}

void serve_lines(int, const std::function<std::string(const std::string&)>&,
                 const std::function<bool()>&) {
  throw InvalidArgument("socket mode is POSIX-only; use stdio mode");
}

std::string round_trip(const std::string&, const std::string&) {
  throw InvalidArgument("client mode is POSIX-only");
}

#endif  // _WIN32

}  // namespace flaml
