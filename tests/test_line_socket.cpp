// Line framing of the daemons' socket loop (common/line_socket.h): lines
// that straddle reads are reassembled, empty lines are skipped, and every
// reply comes back in request order; an overlong line gets one typed error
// and ends its connection; the one-shot client reads a long reply intact
// and rejects a hang-up before the reply's newline.
#include "common/line_socket.h"

#include <gtest/gtest.h>

#ifndef _WIN32

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>

#include "common/error.h"
#include "common/json.h"

namespace flaml {
namespace {

TEST(LineSocket, PipelinedLinesAcrossReadsAreAnsweredInOrder) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int client = fds[0];
  const int server = fds[1];

  // ~290 KB in one write: several 64 KiB reads, so some lines are split
  // between reads. Lines grow in length so the split points vary.
  constexpr int kLines = 20000;
  std::string input;
  for (int i = 0; i < kLines; ++i) {
    input += "line-" + std::to_string(i) + std::string(static_cast<std::size_t>(i % 7), 'x');
    input += i % 1000 == 0 ? "\n\n" : "\n";
  }

  std::thread daemon([server] {
    serve_lines(server, [](const std::string& line) { return "r:" + line; });
    ::close(server);
  });
  // Write from another thread: replies flow back while requests are still
  // being sent, and neither side may block the other for good.
  std::thread writer([client, &input] {
    std::size_t written = 0;
    while (written < input.size()) {
      const ssize_t w = ::write(client, input.data() + written, input.size() - written);
      if (w <= 0) break;
      written += static_cast<std::size_t>(w);
    }
    ::shutdown(client, SHUT_WR);
  });

  std::string replies;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(client, buf, sizeof(buf))) > 0) {
    replies.append(buf, static_cast<std::size_t>(n));
  }
  writer.join();
  daemon.join();
  ::close(client);

  std::string want;
  for (int i = 0; i < kLines; ++i) {
    want += "r:line-" + std::to_string(i) + std::string(static_cast<std::size_t>(i % 7), 'x') + "\n";
  }
  EXPECT_EQ(replies.size(), want.size());
  EXPECT_TRUE(replies == want) << "replies differ from the requests, in content or order";
}

// Writes all of `bytes` unless the peer goes away first.
void send_until_closed(int fd, const std::string& bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t w = ::send(fd, bytes.data() + written, bytes.size() - written,
                             MSG_NOSIGNAL);
    if (w <= 0) return;
    written += static_cast<std::size_t>(w);
  }
}

std::string read_until_eof(int fd) {
  std::string out;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

// Sends `input` on a fresh socketpair served by serve_lines(handle), then
// half-closes, and returns every byte the server sent back.
std::string exchange(const std::string& input,
                     const std::function<std::string(const std::string&)>& handle) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int client = fds[0];
  const int server = fds[1];
  std::thread daemon([server, &handle] {
    serve_lines(server, handle);
    ::close(server);
  });
  std::thread writer([client, &input] {
    send_until_closed(client, input);
    ::shutdown(client, SHUT_WR);
  });
  std::string replies = read_until_eof(client);
  writer.join();
  daemon.join();
  ::close(client);
  return replies;
}

TEST(LineSocket, OverlongLineGetsOneErrorAndEndsOnlyThatConnection) {
  int handled = 0;
  const auto handle = [&handled](const std::string& line) {
    ++handled;
    return "r:" + line;
  };
  const std::string overlong(kMaxLineBytes + 1, 'x');
  // Unfinished: the daemon must not wait for a '\n' that may never come.
  // Finished: the line after it must not be answered either.
  for (const std::string& tail : {overlong, overlong + "\nafter\n"}) {
    handled = 0;
    const std::string replies = exchange("first\n" + tail, handle);
    const std::size_t nl = replies.find('\n');
    ASSERT_NE(nl, std::string::npos);
    EXPECT_EQ(replies.substr(0, nl), "r:first");
    const std::string error = replies.substr(nl + 1);
    ASSERT_FALSE(error.empty());
    EXPECT_EQ(error.find('\n'), error.size() - 1) << "want exactly one error line";
    const JsonValue reply = parse_json(error.substr(0, error.size() - 1));
    ASSERT_NE(reply.find("ok"), nullptr);
    EXPECT_FALSE(reply.find("ok")->boolean);
    ASSERT_NE(reply.find("error"), nullptr);
    EXPECT_NE(reply.find("error")->str.find("longer than"), std::string::npos)
        << reply.find("error")->str;
    EXPECT_EQ(handled, 1);
  }
  // A line of exactly the cap is still served, and so is a fresh connection.
  handled = 0;
  const std::string at_cap(kMaxLineBytes, 'y');
  EXPECT_TRUE(exchange(at_cap + "\nping\n", handle) ==
              "r:" + at_cap + "\nr:ping\n");
  EXPECT_EQ(handled, 2);
}

TEST(LineSocket, RoundTripReadsALongReplyAndRejectsAHangUp) {
  const std::string path = ::testing::TempDir() + "line_socket_" +
                           std::to_string(::getpid()) + ".sock";
  const int listener = listen_unix(path, 4);
  const std::string big(std::size_t{1} << 20, 'y');
  std::thread daemon([listener, &big] {
    // First and second connections: one reply line of 1 MiB plus the
    // request, or the error line for an overlong request.
    for (int i = 0; i < 2; ++i) {
      const int client = ::accept(listener, nullptr, nullptr);
      serve_lines(client, [&big](const std::string& line) { return big + line; });
      ::close(client);
    }
    // Third connection: take the request, send half a reply, hang up.
    const int client = ::accept(listener, nullptr, nullptr);
    char buf[64];
    (void)::read(client, buf, sizeof(buf));
    send_until_closed(client, "{\"ok\":");
    ::close(client);
  });
  std::string reply;
  EXPECT_NO_THROW(reply = round_trip(path, "req"));
  EXPECT_TRUE(reply == big + "req") << "got " << reply.size() << " bytes";
  // The daemon hangs up while the client is still sending; the client must
  // neither die of SIGPIPE nor lose the error line.
  reply.clear();
  const std::string overlong(kMaxLineBytes + (std::size_t{4} << 20), 'z');
  EXPECT_NO_THROW(reply = round_trip(path, overlong));
  EXPECT_NE(reply.find("longer than"), std::string::npos) << reply;
  EXPECT_THROW(round_trip(path, "req"), InvalidArgument);
  daemon.join();
  ::close(listener);
  ::unlink(path.c_str());
}

TEST(LineSocket, RoundTripJoinsAReplySentInPiecesAndStopsAtItsNewline) {
  const std::string path = ::testing::TempDir() + "line_socket_pieces_" +
                           std::to_string(::getpid()) + ".sock";
  const int listener = listen_unix(path, 1);
  std::thread daemon([listener] {
    const int client = ::accept(listener, nullptr, nullptr);
    char buf[64];
    (void)::read(client, buf, sizeof(buf));
    // Three separate writes, the newline only in the last, followed by
    // bytes that belong to no reply.
    for (const char* piece : {"{\"ok\":", "true,\"v\":", "1}\ntrailing"}) {
      send_until_closed(client, piece);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ::close(client);
  });
  std::string reply;
  EXPECT_NO_THROW(reply = round_trip(path, "req"));
  EXPECT_EQ(reply, "{\"ok\":true,\"v\":1}");
  daemon.join();
  ::close(listener);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace flaml

#endif  // _WIN32
