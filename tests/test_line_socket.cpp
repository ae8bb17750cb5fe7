// Line framing of the daemons' socket loop (common/line_socket.h): lines
// that straddle reads are reassembled, empty lines are skipped, and every
// reply comes back in request order.
#include "common/line_socket.h"

#include <gtest/gtest.h>

#ifndef _WIN32

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>

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

}  // namespace
}  // namespace flaml

#endif  // _WIN32
