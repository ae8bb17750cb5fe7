// flaml_predict_serve — the prediction daemon over compiled artifacts, its
// artifact compiler, and its client, in one binary.
//
// Compile an artifact (once, offline):
//   flaml_predict_serve compile --model=model.txt --out=model.bin
//   flaml_predict_serve compile --checkpoint=search.ckpt --out=model.bin
//
// Daemon (protocol in src/serve/predict_service.h):
//   flaml_predict_serve serve [--artifact=model.bin]
//       [--max-batch-rows=256] [--threads=0] [--trace=events.jsonl]  # stdio
//   flaml_predict_serve serve --socket=/tmp/predict.sock ...    # AF_UNIX
//
// stdio mode reads one JSON request per line on stdin — scriptable with a
// heredoc, which is what scripts/predict_serve_smoke.sh does in CI. Socket
// mode serves EACH connection on its own thread, so one batch spans
// concurrent clients: a request is served as soon as the batcher is idle,
// and requests arriving while a batch is in flight form the next batch —
// one row-sharded predict_many call of at most --max-batch-rows rows
// (bit-identical to scoring them alone).
//
// Client (every subcommand needs --socket=PATH):
//   flaml_predict_serve ping|stats|drain|reload|shutdown --socket=PATH
//   flaml_predict_serve load|swap --socket=PATH --artifact=model.bin
//   flaml_predict_serve predict  --socket=PATH --csv=rows.csv
//   flaml_predict_serve request  --socket=PATH --json='{"op":...}'
//
// Each client invocation sends one request and prints the one-line JSON
// response verbatim; the exit code is 0 iff the response has "ok": true.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/line_socket.h"
#include "serve/predict_service.h"

#ifndef _WIN32
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

using namespace flaml;
using namespace flaml::serve;

namespace {

std::string flag(int argc, char** argv, const std::string& key,
                 const std::string& fallback) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
    if (arg == "--" + key) return "1";
  }
  return fallback;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: flaml_predict_serve compile (--model=F | --checkpoint=F) --out=F\n"
      "       flaml_predict_serve serve [--artifact=F] [--socket=PATH]\n"
      "                   [--max-batch-rows=256] [--threads=0] [--trace=FILE]\n"
      "       flaml_predict_serve ping|stats|drain|reload|shutdown --socket=PATH\n"
      "       flaml_predict_serve load|swap --socket=PATH --artifact=F\n"
      "       flaml_predict_serve predict --socket=PATH --csv=rows.csv\n"
      "       flaml_predict_serve request --socket=PATH --json='{\"op\":...}'\n");
  return 2;
}

int run_compile(int argc, char** argv) {
  const std::string model = flag(argc, argv, "model", "");
  const std::string checkpoint = flag(argc, argv, "checkpoint", "");
  const std::string out = flag(argc, argv, "out", "");
  FLAML_REQUIRE(model.empty() != checkpoint.empty(),
                "compile needs exactly one of --model / --checkpoint");
  FLAML_REQUIRE(!out.empty(), "compile needs --out=artifact");
  CompiledModel compiled;
  if (!model.empty()) {
    std::ifstream in(model);
    FLAML_REQUIRE(in.good(), "cannot open model file '" << model << "'");
    compiled = compile_saved(in);
  } else {
    compiled = compile_checkpoint_file(checkpoint);
  }
  compiled.save_file(out);
  std::fprintf(stderr, "compiled %zu trees / %zu nodes -> %s\n",
               compiled.n_trees(), compiled.n_nodes(), out.c_str());
  return 0;
}

#ifndef _WIN32

// One thread per accepted connection, so one batch spans clients.
int serve_socket(PredictService& service, const std::string& path) {
  const int fd = listen_unix(path, 64);
  std::fprintf(stderr, "listening on %s\n", path.c_str());

  std::vector<std::thread> clients;
  while (!service.shutdown_requested()) {
    // Poll before accepting: a shutdown op is answered on a CLIENT thread,
    // so a bare accept() would block forever waiting for a connection that
    // never comes.
    pollfd pending{fd, POLLIN, 0};
    const int ready = ::poll(&pending, 1, 200);
    if (ready < 0) break;
    if (ready == 0) continue;
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) break;
    clients.emplace_back([&service, client] {
      serve_lines(client, [&service](const std::string& line) {
        return service.handle_line(line);
      });
      ::close(client);
    });
  }
  for (std::thread& t : clients) t.join();
  ::close(fd);
  ::unlink(path.c_str());
  return 0;
}

#else

int serve_socket(PredictService&, const std::string&) {
  std::fprintf(stderr, "socket mode is POSIX-only; use stdio mode\n");
  return 2;
}

#endif  // _WIN32

int run_serve(int argc, char** argv) {
  PredictDaemonOptions options;
  options.max_batch_rows = static_cast<std::size_t>(
      std::stoul(flag(argc, argv, "max-batch-rows", "256")));
  options.n_threads = std::stoi(flag(argc, argv, "threads", "0"));
  const std::string trace_path = flag(argc, argv, "trace", "");
  if (!trace_path.empty()) {
    options.trace_sink =
        std::make_shared<observe::JsonlTraceSink>(trace_path);
  }
  PredictDaemon daemon(options);
  const std::string artifact = flag(argc, argv, "artifact", "");
  if (!artifact.empty()) daemon.load(artifact);
  PredictService service(daemon);
  const std::string socket_path = flag(argc, argv, "socket", "");
  if (!socket_path.empty()) return serve_socket(service, socket_path);
  service.serve_stream(std::cin, std::cout);
  // EOF without a shutdown op still tears the daemon down cleanly
  // (fail queued requests, join the batcher) via ~PredictDaemon.
  return 0;
}

int run_client(const std::string& op, int argc, char** argv) {
  const std::string socket_path = flag(argc, argv, "socket", "");
  if (socket_path.empty()) {
    std::fprintf(stderr, "client mode needs --socket=PATH\n");
    return 2;
  }
  std::string line;
  if (op == "request") {
    line = flag(argc, argv, "json", "");
    FLAML_REQUIRE(!line.empty(), "request needs --json='{...}'");
  } else {
    JsonValue request = JsonValue::make_object();
    request.set("op", JsonValue::make_string(op));
    const std::string artifact = flag(argc, argv, "artifact", "");
    if (!artifact.empty()) {
      request.set("artifact", JsonValue::make_string(artifact));
    }
    if (op == "predict") {
      const std::string csv = flag(argc, argv, "csv", "");
      FLAML_REQUIRE(!csv.empty(), "predict needs --csv=rows.csv");
      request.set("csv", JsonValue::make_string(csv));
    }
    line = dump_json_compact(request);
  }
  const std::string response = round_trip(socket_path, line);
  std::printf("%s\n", response.c_str());
  const JsonValue parsed = parse_json(response);
  const JsonValue* ok = parsed.find("ok");
  return ok != nullptr && ok->is_bool() && ok->boolean ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    if (command == "compile") return run_compile(argc, argv);
    if (command == "serve") return run_serve(argc, argv);
    const bool known = command == "ping" || command == "stats" ||
                       command == "drain" || command == "reload" ||
                       command == "shutdown" || command == "load" ||
                       command == "swap" || command == "predict" ||
                       command == "request";
    if (!known) return usage();
    return run_client(command, argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
