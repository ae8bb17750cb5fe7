// Newline-framed JSON over AF_UNIX stream sockets: the transport shared by
// both daemons (tools/flaml_serve and tools/flaml_predict_serve) and their
// one-shot clients. Each request is one '\n'-terminated line and gets one
// '\n'-terminated reply, in order. POSIX only: on other platforms every
// function throws InvalidArgument.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace flaml {

// Longest request line serve_lines accepts, '\n' excluded. The largest
// request the bundled clients send is a 20000-row inline predict of about
// 0.3 MB; larger batches belong in a CSV file the daemon reads itself.
inline constexpr std::size_t kMaxLineBytes = std::size_t{16} << 20;

// Bind a listening socket at `path` (a stale file there is unlinked
// first). Throws InvalidArgument when the path is too long or any socket
// call fails.
int listen_unix(const std::string& path, int backlog);

// Answer every non-empty line read from `client` with handle(line) + '\n',
// until EOF, a read error, or `stop()` returning true before a read. Each
// read takes up to 64 KiB; only its new bytes are searched for '\n', and
// consumed lines are dropped once per read, so pipelined input costs time
// linear in its size. A line longer than kMaxLineBytes, finished or not,
// gets one wire::error_response line instead of a handle() call, and ends
// the connection: a connection never buffers more than kMaxLineBytes plus
// one read. Replies are sent with MSG_NOSIGNAL: a client that hangs up
// before its reply ends only this connection, never the process. Does not
// close `client`.
void serve_lines(int client,
                 const std::function<std::string(const std::string&)>& handle,
                 const std::function<bool()>& stop = {});

// Connect to `path`, send `request` + '\n', and return the reply line
// without its '\n'. Throws InvalidArgument when the daemon is unreachable
// or hangs up before the reply's '\n'.
std::string round_trip(const std::string& path, const std::string& request);

}  // namespace flaml
