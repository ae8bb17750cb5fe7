// Serve workloads: prediction requests to a real `flaml_predict_serve
// serve --socket` daemon over AF_UNIX, from one load-generator thread.
//
// Set-up trains two fixed-config lgbm models on the adult analogue,
// compiles each to a `flaml-compiled v1` artifact, starts the daemon and
// loads the first. serve_small is an open loop of 1-16-row requests at a
// few fixed rates with a hot swap about once a second; serve_bulk is a
// closed loop of 256-row requests. Every reply is checked against
// CompiledModel::predict_many under the generation the reply reports.
//
// The traced run repeats the socket run, then replays a prefix of the same
// request stream in-process through parse_json, PredictDaemon::predict,
// CompiledModel::predict_many, dump_json_compact and
// PredictService::handle_line to time each layer.

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.h"
#include "common/rng.h"
#include "learners/registry.h"
#include "metrics/error_metric.h"
#include "observe/trace.h"
#include "serve/compiled_model.h"
#include "serve/predict_daemon.h"
#include "serve/predict_service.h"
#include "workloads.h"

extern char** environ;

namespace e2e {

using namespace flaml;
using namespace flaml::serve;

namespace {

struct ServeSpec {
  std::string name;
  bool open_loop;
  // Open loop: requests/s per phase; the middle phase, whose latency is
  // reported, runs half of the time and the others share the rest.
  std::vector<double> rates;
  std::size_t min_rows;
  std::size_t max_rows;
  double swap_every_s;        // 0 = no swaps
};

const std::vector<ServeSpec>& specs() {
  static const std::vector<ServeSpec> all = {
      {"serve_small", true, {100.0, 200.0, 300.0}, 1, 16, 1.0},
      {"serve_bulk", false, {}, 256, 256, 0.0},
  };
  return all;
}

const ServeSpec& spec_of(const std::string& name) {
  for (const ServeSpec& s : specs()) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown serve workload '" + name + "'");
}

constexpr int kClients = 2;          // predict connections
constexpr double kLatencyLimitMs = 10.0;
constexpr std::size_t kReplayRequests = 1500;

// ------------------------------------------------------------ artifacts

struct Artifact {
  std::string path;
  std::vector<std::string> expected;  // per test row: its values as the daemon writes them
  CompiledModel compiled;
};

// Fixed lgbm configs of the two artifacts hot swaps alternate between.
Config artifact_config(std::size_t n_rows, int which) {
  const LearnerPtr lgbm = builtin_learner("lgbm");
  Config config = lgbm->space(Task::BinaryClassification, n_rows).initial_config();
  config["tree_num"] = 64;
  config["leaf_num"] = 32;
  config["min_child_weight"] = 1.0;
  config["learning_rate"] = which == 0 ? 0.1 : 0.05;
  return config;
}

Artifact make_artifact(const SplitData& data, int which, const std::string& path) {
  const LearnerPtr lgbm = builtin_learner("lgbm");
  TrainContext ctx;
  ctx.train = DataView(data.train);
  ctx.seed = 1;
  ctx.n_threads = 2;
  const std::unique_ptr<Model> model =
      lgbm->train(ctx, artifact_config(data.train.n_rows(), which));
  std::stringstream text;
  model->save(text);
  Artifact a;
  a.path = path;
  a.compiled = compile_saved(text);
  a.compiled.save_file(path);
  const Predictions pred = a.compiled.predict_many(DataView(data.test), 1);
  for (std::size_t r = 0; r < pred.n_rows(); ++r) {
    JsonValue row = JsonValue::make_array();
    for (int c = 0; c < pred.n_classes; ++c) row.push(JsonValue::make_number(pred.prob(r, c)));
    a.expected.push_back(dump_json_compact(row));
  }
  return a;
}

// ----------------------------------------------------------- the daemon

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error(std::string("socket(): ") + std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::runtime_error("socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Blocking request/response on a connected socket.
std::string round_trip(int fd, const std::string& request) {
  const std::string line = request + "\n";
  std::size_t written = 0;
  while (written < line.size()) {
    const ssize_t w = ::write(fd, line.data() + written, line.size() - written);
    if (w <= 0) throw std::runtime_error("daemon connection closed on write");
    written += static_cast<std::size_t>(w);
  }
  std::string response;
  char c = 0;
  while (::read(fd, &c, 1) == 1 && c != '\n') response.push_back(c);
  if (response.empty()) throw std::runtime_error("daemon closed the connection");
  return response;
}

// One flaml_predict_serve daemon process; the destructor stops it.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket_path)
      : socket_(socket_path) {
    std::filesystem::remove(socket_path);
    const std::string socket_flag = "--socket=" + socket_path;
    std::vector<std::string> args = {binary, "serve", socket_flag, "--threads=2"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      throw std::runtime_error("cannot start " + binary + ": " + std::strerror(rc));
    }
    const double deadline = now_s() + 20.0;
    while ((control_ = connect_unix(socket_path)) < 0) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("daemon exited during start-up");
      }
      if (now_s() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        throw std::runtime_error("daemon did not start listening");
      }
      ::usleep(2000);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const { return pid_; }
  // Request on the control connection (blocking).
  JsonValue request(const std::string& line) { return parse_json(round_trip(control_, line)); }

  // Shut the daemon down and reap it; kills it if it does not exit.
  void stop() {
    if (pid_ <= 0) return;
    if (control_ >= 0) {
      try {
        round_trip(control_, R"({"op":"shutdown"})");
      } catch (const std::exception&) {
      }
      ::close(control_);
      control_ = -1;
    }
    int status = 0;
    const double deadline = now_s() + 10.0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_s() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(2000);
    }
    pid_ = -1;
    std::filesystem::remove(socket_);
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  int control_ = -1;
};

// ------------------------------------------------------------- requests

struct Request {
  // JSON request + '\n'; closed-loop resends share the pool's copy.
  std::shared_ptr<const std::string> line;
  std::vector<std::uint32_t> rows;  // test-split row indices
  int client = 0;
  int phase = 0;
  double due = 0.0;   // seconds after the load starts (open loop)
  double sent = -1.0;
  double done = -1.0;
};

std::string cell(float v) {
  if (std::isnan(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(v));
  return buf;
}

std::string request_line(const Dataset& test, const std::vector<std::uint32_t>& rows) {
  std::string line = R"({"op":"predict","rows":[)";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    line += i == 0 ? "[" : ",[";
    for (std::size_t c = 0; c < test.n_cols(); ++c) {
      if (c > 0) line += ',';
      line += cell(test.value(rows[i], c));
    }
    line += ']';
  }
  line += "]}\n";
  return line;
}

std::vector<std::uint32_t> draw_rows(const ServeSpec& spec, std::size_t n_test, Rng& rng) {
  const std::size_t n = spec.min_rows + rng.uniform_index(spec.max_rows - spec.min_rows + 1);
  std::vector<std::uint32_t> rows(n);
  for (auto& r : rows) r = static_cast<std::uint32_t>(rng.uniform_index(n_test));
  return rows;
}

// Start and end (seconds into the run) of open-loop phase p.
std::pair<double, double> phase_window(const ServeSpec& spec, std::size_t p, double seconds) {
  const std::size_t n = spec.rates.size();
  const std::size_t middle = n / 2;
  const double side = n > 1 ? 0.5 * seconds / static_cast<double>(n - 1) : 0.0;
  const auto length = [&](std::size_t i) { return i == middle ? seconds - side * (n - 1) : side; };
  double start = 0.0;
  for (std::size_t i = 0; i < p; ++i) start += length(i);
  return {start, start + length(p)};
}

// Open loop: Poisson arrivals per phase, requests alternating between
// clients.
std::vector<Request> open_loop_schedule(const ServeSpec& spec, const Dataset& test,
                                        double seconds, std::uint64_t seed) {
  Rng rng(derive_seed(seed, spec.name + ".requests"));
  std::vector<Request> out;
  for (std::size_t p = 0; p < spec.rates.size(); ++p) {
    const auto [begin, end] = phase_window(spec, p, seconds);
    double t = begin;
    while (true) {
      t += -std::log(1.0 - rng.uniform()) / spec.rates[p];
      if (t >= end) break;
      Request r;
      r.rows = draw_rows(spec, test.n_rows(), rng);
      r.line = std::make_shared<const std::string>(request_line(test, r.rows));
      r.client = static_cast<int>(out.size() % kClients);
      r.phase = static_cast<int>(p);
      r.due = t;
      out.push_back(std::move(r));
    }
  }
  return out;
}

// Closed loop: a fixed pool of requests each client cycles through.
std::vector<Request> request_pool(const ServeSpec& spec, const Dataset& test,
                                  std::uint64_t seed) {
  Rng rng(derive_seed(seed, spec.name + ".requests"));
  std::vector<Request> pool(64);
  for (Request& r : pool) {
    r.rows = draw_rows(spec, test.n_rows(), rng);
    r.line = std::make_shared<const std::string>(request_line(test, r.rows));
  }
  return pool;
}

// ---------------------------------------------------------- load generator

struct Connection {
  int fd = -1;
  std::string out;
  std::string in;
  std::deque<std::size_t> pending;  // request indices awaiting replies, in order
};

struct LoadResult {
  std::vector<Request> requests;  // every request sent (closed loop: in send order)
  std::size_t swaps = 0;
  double elapsed_s = 0.0;
  double rss_before_mb = 0.0;
  double rss_after_mb = 0.0;
  double peak_rss_mb = 0.0;
};

void set_nonblocking(int fd) { ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK); }

// Checks replies against predict_many under the generation they report.
class ReplyChecker {
 public:
  ReplyChecker(const std::vector<Artifact>& artifacts, Result& result)
      : artifacts_(artifacts), result_(result) {}

  void set_generation(std::uint64_t generation, int artifact) {
    by_generation_[generation] = artifact;
    std::vector<std::pair<std::string, std::vector<std::uint32_t>>> waiting;
    waiting.swap(deferred_);
    for (auto& [reply, rows] : waiting) check(reply, rows);
  }

  // `rows` are the test-split rows the request asked for.
  void check(const std::string& reply, const std::vector<std::uint32_t>& rows) {
    const std::uint64_t generation = field_number(reply, "\"generation\":");
    const auto it = by_generation_.find(generation);
    if (it == by_generation_.end()) {
      deferred_.emplace_back(reply, rows);
      return;
    }
    if (reply.rfind(R"({"ok":true)", 0) != 0) {
      result_.fail("request answered with an error: " + reply.substr(0, 200));
      return;
    }
    const std::size_t begin = reply.find("\"values\":");
    const std::size_t end = reply.find(",\"classes\":", begin);
    if (begin == std::string::npos || end == std::string::npos) {
      result_.fail("reply without values: " + reply.substr(0, 200));
      return;
    }
    const std::vector<std::string>& values = artifacts_[it->second].expected;
    expected_.assign("[");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) expected_ += ',';
      expected_ += values[rows[i]];
    }
    expected_ += ']';
    const std::size_t at = begin + std::strlen("\"values\":");
    if (reply.compare(at, end - at, expected_) != 0) {
      result_.fail("reply differs from predict_many under generation " +
                   std::to_string(generation));
    }
  }

  // Replies whose generation no swap reply ever named.
  std::size_t unresolved() const { return deferred_.size(); }

 private:
  static std::uint64_t field_number(const std::string& text, const char* key) {
    const std::size_t at = text.find(key);
    if (at == std::string::npos) return 0;
    return std::strtoull(text.c_str() + at + std::strlen(key), nullptr, 10);
  }

  const std::vector<Artifact>& artifacts_;
  Result& result_;
  std::map<std::uint64_t, int> by_generation_;
  std::vector<std::pair<std::string, std::vector<std::uint32_t>>> deferred_;
  std::string expected_;
};

// Drives the daemon from this thread: open loop (send each request when
// due) or closed loop (each client sends its next request on the reply).
// Swaps go over a third connection.
LoadResult drive(const ServeSpec& spec, Daemon& daemon, const std::string& socket_path,
                 std::vector<Request> schedule, const std::vector<Artifact>& artifacts,
                 double seconds, ReplyChecker& checker, Result& result) {
  LoadResult out;
  std::vector<Connection> conns(kClients + 1);  // the last one carries swaps
  for (Connection& c : conns) {
    c.fd = connect_unix(socket_path);
    if (c.fd < 0) throw std::runtime_error("cannot connect to the daemon");
    set_nonblocking(c.fd);
  }
  Connection& swap_conn = conns.back();
  // Closed loop: `schedule` arrives as the pool each client cycles through
  // and becomes the log of requests sent.
  std::vector<Request> pool;
  if (!spec.open_loop) pool.swap(schedule);
  std::vector<std::size_t> next_in_pool(kClients);
  for (int c = 0; c < kClients; ++c) next_in_pool[c] = static_cast<std::size_t>(c) * 7;

  out.rss_before_mb = current_rss_mb(daemon.pid());
  const double start = now_s();
  const double stop_sending = start + seconds;
  const double hard_stop = stop_sending + 5.0;
  std::size_t next_due = 0;
  double next_swap = spec.swap_every_s > 0 ? start + spec.swap_every_s : 1e300;
  int swap_artifact = 0;
  std::deque<double> swap_sent;

  const auto send = [&](std::size_t index, double now) {
    Request& r = schedule[index];
    r.sent = now;
    Connection& c = conns[static_cast<std::size_t>(r.client)];
    c.out += *r.line;
    c.pending.push_back(index);
  };
  const auto closed_loop_send = [&](int client, double now) {
    Request r = pool[next_in_pool[client] % pool.size()];
    ++next_in_pool[client];
    r.client = client;
    schedule.push_back(std::move(r));
    send(schedule.size() - 1, now);
  };
  if (!spec.open_loop) {
    for (int c = 0; c < kClients; ++c) closed_loop_send(c, now_s());
  }

  char buf[65536];
  while (true) {
    double now = now_s();
    if (spec.open_loop) {
      while (next_due < schedule.size() && start + schedule[next_due].due <= now) {
        send(next_due++, now);
      }
    }
    if (now >= next_swap && now < stop_sending) {
      swap_artifact = 1 - swap_artifact;
      swap_conn.out += R"({"op":"swap","artifact":")" + artifacts[swap_artifact].path + "\"}\n";
      swap_sent.push_back(now);
      next_swap += spec.swap_every_s;
    }
    bool waiting = false;
    for (Connection& c : conns) waiting = waiting || !c.pending.empty();
    waiting = waiting || !swap_sent.empty();
    const bool more = spec.open_loop ? next_due < schedule.size() : now < stop_sending;
    if ((!more && !waiting) || now > hard_stop) break;

    std::vector<pollfd> fds;
    for (Connection& c : conns) {
      if (!c.out.empty()) {
        const ssize_t w = ::write(c.fd, c.out.data(), c.out.size());
        if (w > 0) c.out.erase(0, static_cast<std::size_t>(w));
      }
      fds.push_back({c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0});
    }
    double wait_s = 0.05;
    if (spec.open_loop && next_due < schedule.size()) {
      wait_s = std::min(wait_s, start + schedule[next_due].due - now);
    }
    wait_s = std::max(0.0, std::min(wait_s, next_swap - now));
    timespec timeout{static_cast<time_t>(wait_s),
                     static_cast<long>((wait_s - std::floor(wait_s)) * 1e9)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("ppoll(): ") + std::strerror(errno));
    }
    for (std::size_t k = 0; k < conns.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& c = conns[k];
      const ssize_t n = ::read(c.fd, buf, sizeof(buf));
      if (n <= 0) throw std::runtime_error("the daemon closed a client connection");
      c.in.append(buf, static_cast<std::size_t>(n));
      std::size_t pos = 0;
      while ((pos = c.in.find('\n')) != std::string::npos) {
        const std::string reply = c.in.substr(0, pos);
        c.in.erase(0, pos + 1);
        const double done = now_s();
        if (k == conns.size() - 1) {
          swap_sent.pop_front();
          ++out.swaps;
          const JsonValue parsed = parse_json(reply);
          const JsonValue* model = parsed.find("model");
          if (model == nullptr) {
            result.fail("swap failed: " + reply);
          } else {
            checker.set_generation(
                static_cast<std::uint64_t>(model->at("generation").number),
                reply.find(artifacts[0].path) != std::string::npos ? 0 : 1);
          }
          continue;
        }
        Request& r = schedule[c.pending.front()];
        c.pending.pop_front();
        r.done = done;
        checker.check(reply, r.rows);
        if (!spec.open_loop && done < stop_sending) closed_loop_send(static_cast<int>(k), done);
      }
    }
  }
  out.elapsed_s = now_s() - start;
  out.rss_after_mb = current_rss_mb(daemon.pid());
  out.peak_rss_mb = peak_rss_mb(daemon.pid());
  for (Connection& c : conns) ::close(c.fd);
  // Express due times on the same clock as sent/done.
  for (Request& r : schedule) {
    r.due = spec.open_loop ? start + r.due : r.sent;
  }
  out.requests = std::move(schedule);
  return out;
}

// ------------------------------------------------------------- set-up

struct Served {
  SplitData data;
  std::vector<Artifact> artifacts;
  std::unique_ptr<Daemon> daemon;
  std::string socket;
  std::uint64_t generation = 0;  // of the first artifact, loaded at set-up
};

Served set_up(const Options& options, const ServeSpec& spec, int attempt) {
  const std::string stem = options.out_dir + "/" + spec.name + "-" +
                           std::to_string(::getpid()) + "-" + std::to_string(attempt);
  Served s{make_split_data("adult", options.seed), {}, nullptr, stem + ".sock"};
  s.artifacts.push_back(make_artifact(s.data, 0, stem + "-a.bin"));
  s.artifacts.push_back(make_artifact(s.data, 1, stem + "-b.bin"));
  s.daemon = std::make_unique<Daemon>(options.bin_dir + "/flaml_predict_serve", s.socket);
  const JsonValue loaded =
      s.daemon->request(R"({"op":"load","artifact":")" + s.artifacts[0].path + "\"}");
  const JsonValue* model = loaded.find("model");
  if (model == nullptr) throw std::runtime_error("daemon failed to load the artifact");
  s.generation = static_cast<std::uint64_t>(model->at("generation").number);
  return s;
}

void tear_down(Served& s) {
  s.daemon.reset();
  for (const Artifact& a : s.artifacts) std::filesystem::remove(a.path);
}

// Median set-up time over five set-ups; the last one stays up.
double timed_setup(const Options& options, const ServeSpec& spec, std::optional<Served>& served) {
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) {
    if (served) tear_down(*served);
    const double t0 = now_s();
    served.emplace(set_up(options, spec, i));
    samples.push_back(now_s() - t0);
  }
  return median(samples);
}

double test_error(const Served& s) {
  const DataView test(s.data.test);
  return ErrorMetric::default_for(s.data.test.task())(
      s.artifacts[0].compiled.predict_many(test, 1), test.labels());
}

struct PhaseStats {
  double rate = 0.0;      // achieved requests/s
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool sustained = false;
  std::vector<double> latency_ms;  // from when each request was due
};

// A phase is sustained when p99 meets the latency limit, every request was
// answered and the latency of its last fifth shows no backlog growing over
// its first fifth.
PhaseStats phase_stats(const std::vector<Request>& requests, int phase, double phase_s) {
  PhaseStats p;
  bool all_answered = true;
  for (const Request& r : requests) {
    if (r.phase != phase) continue;
    if (r.done < 0) {
      all_answered = false;
      continue;
    }
    p.latency_ms.push_back(1e3 * (r.done - r.due));
  }
  const std::vector<double>& lat = p.latency_ms;
  p.rate = static_cast<double>(lat.size()) / phase_s;
  p.p50_ms = quantile(lat, 0.5);
  p.p99_ms = quantile(lat, 0.99);
  const std::size_t fifth = lat.size() / 5;
  double head = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < fifth; ++i) {
    head += lat[i];
    tail += lat[lat.size() - 1 - i];
  }
  const bool growing = fifth > 0 && tail > 2.0 * head + static_cast<double>(fifth);
  p.sustained = all_answered && !lat.empty() && p.p99_ms <= kLatencyLimitMs && !growing;
  return p;
}

struct LoadSummary {
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double throughput = 0.0;  // serve_small: goodput; serve_bulk: rows/s
  std::vector<double> sent_latency_ms;  // reply - send, every request
};

LoadSummary summarize(const ServeSpec& spec, const LoadResult& load, double seconds,
                      Result& result) {
  LoadSummary s;
  std::size_t rows = 0, within_limit = 0;
  for (const Request& r : load.requests) {
    ++result.attempted;
    if (r.done < 0) {
      result.fail("request without a reply");
      continue;
    }
    rows += r.rows.size();
    s.sent_latency_ms.push_back(1e3 * (r.done - r.sent));
    if (1e3 * (r.done - r.due) <= kLatencyLimitMs) ++within_limit;
  }
  result.attempted += load.swaps;
  std::vector<double> latency_ms = s.sent_latency_ms;
  if (spec.open_loop) {
    double sustained = 0.0;
    for (std::size_t p = 0; p < spec.rates.size(); ++p) {
      const auto [begin, end] = phase_window(spec, p, seconds);
      const PhaseStats stats = phase_stats(load.requests, static_cast<int>(p), end - begin);
      const std::string rate = "rate_" + std::to_string(static_cast<int>(spec.rates[p]));
      result.note(rate + ".p50_ms", stats.p50_ms, "ms");
      result.note(rate + ".p99_ms", stats.p99_ms, "ms");
      if (stats.sustained) sustained = stats.rate;
      if (p == spec.rates.size() / 2) latency_ms = stats.latency_ms;
    }
    // Requests answered within the latency limit of when they were due,
    // per second of the run.
    s.throughput = static_cast<double>(within_limit) / seconds;
    result.note("sustained_rps", sustained, "1/s");
    result.note("goodput_rps", s.throughput, "1/s");
  } else {
    s.throughput = static_cast<double>(rows) / load.elapsed_s;
    result.note("rows_per_s", s.throughput, "1/s");
  }
  s.latency_p50_ms = quantile(latency_ms, 0.5);
  s.latency_p90_ms = quantile(latency_ms, 0.9);
  result.note("requests", static_cast<double>(load.requests.size()), "count");
  result.note("latency_p50_ms", s.latency_p50_ms, "ms");
  result.note("latency_p90_ms", s.latency_p90_ms, "ms");
  result.note("latency_p99_ms", quantile(latency_ms, 0.99), "ms");
  result.note("swaps", static_cast<double>(load.swaps), "count");
  return s;
}

LoadResult socket_run(const Options& options, const ServeSpec& spec, Served& served,
                      Result& result) {
  std::vector<Request> schedule =
      spec.open_loop ? open_loop_schedule(spec, served.data.test, options.seconds, options.seed)
                     : request_pool(spec, served.data.test, options.seed);
  ReplyChecker checker(served.artifacts, result);
  checker.set_generation(served.generation, 0);
  LoadResult load = drive(spec, *served.daemon, served.socket, std::move(schedule),
                          served.artifacts, options.seconds, checker, result);
  if (checker.unresolved() > 0) {
    result.fail(std::to_string(checker.unresolved()) +
                    " replies name a generation no load or swap produced",
                checker.unresolved());
  }
  return load;
}

// ------------------------------------------------------ untraced (trace 0)

Result run_untraced(const Options& options, const ServeSpec& spec) {
  Result result;
  std::optional<Served> served;
  result.set("setup_s", timed_setup(options, spec, served));
  const LoadResult load = socket_run(options, spec, *served, result);
  const LoadSummary summary = summarize(spec, load, options.seconds, result);
  result.set("peak_rss_mb", load.peak_rss_mb);
  result.set("throughput_per_s", summary.throughput);
  result.set("latency_p50_ms", summary.latency_p50_ms);
  result.note("test_error", test_error(*served), "error");
  tear_down(*served);
  return result;
}

// -------------------------------------------------------- traced (trace 1)

struct ReplayTimes {
  std::vector<double> parse_ms, queue_ms, batch_rows, batch_requests, score_ms,
      serialize_ms, handle_ms;
};

std::vector<std::vector<float>> rows_of(const Dataset& test, const Request& r) {
  std::vector<std::vector<float>> rows;
  for (std::uint32_t i : r.rows) {
    std::vector<float> row(test.n_cols());
    for (std::size_t c = 0; c < row.size(); ++c) row[c] = test.value(i, c);
    rows.push_back(std::move(row));
  }
  return rows;
}

// One client's share of the replayed stream, closed loop, each request
// through the layers in turn and then whole through handle_line.
void replay_client(const std::vector<const Request*>& requests, const Served& served,
                   PredictDaemon& daemon, PredictService& service, SpanLog& spans,
                   ReplayTimes& t) {
  const Dataset& test = served.data.test;
  const CompiledModel& compiled = served.artifacts[0].compiled;
  for (const Request* r : requests) {
    const std::string key = "req-" + std::to_string(r - requests.front());
    const std::uint64_t root = spans.next_id();
    const std::string line = r->line->substr(0, r->line->size() - 1);
    const double t0 = now_s();
    const JsonValue parsed = parse_json(line);
    const double t1 = now_s();
    const std::vector<std::vector<float>> rows = rows_of(test, *r);
    const double t2 = now_s();
    const PredictDaemon::Reply reply = daemon.predict(rows);
    const double t3 = now_s();
    // Score as many rows as the batch that served the request held.
    std::vector<std::uint32_t> batch = r->rows;
    for (std::size_t i = 0; batch.size() < reply.batch_rows; ++i) {
      batch.push_back(static_cast<std::uint32_t>(i % test.n_rows()));
    }
    const DataView batch_view(test, batch);
    const double t4 = now_s();
    compiled.predict_many(batch_view, 2);
    const double t5 = now_s();
    const JsonValue response = service.handle(parsed);
    const double t6 = now_s();
    const std::string text = dump_json_compact(response);
    const double t7 = now_s();
    service.handle_line(line);
    const double t8 = now_s();
    spans.add(root, "serve.parse_json", t0, t1, key);
    const std::uint64_t predict_id = spans.add(root, "serve.daemon_predict", t2, t3, key);
    spans.add(predict_id, "serve.queue", t2, t2 + reply.queue_ms / 1e3, key);
    spans.add(root, "serve.predict_many", t4, t5, key);
    spans.add(root, "serve.dump_json", t6, t7, key);
    spans.add(root, "serve.handle_line", t7, t8, key);
    spans.record(root, 0, "replay.request", t0, t8, key);
    t.parse_ms.push_back(1e3 * (t1 - t0));
    t.queue_ms.push_back(reply.queue_ms);
    t.batch_rows.push_back(static_cast<double>(reply.batch_rows));
    t.batch_requests.push_back(static_cast<double>(reply.batch_requests));
    t.score_ms.push_back(1e3 * (t5 - t4));
    t.serialize_ms.push_back(1e3 * (t7 - t6));
    t.handle_ms.push_back(1e3 * (t8 - t7));
  }
}

double mean_of(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

// Wall time of handle_line over `lines`, on a fresh daemon with or without
// a trace sink.
double handle_wall(const Served& served, const std::vector<const Request*>& lines, bool traced) {
  PredictDaemonOptions o;
  o.n_threads = 2;
  if (traced) o.trace_sink = std::make_shared<observe::MemoryTraceSink>();
  PredictDaemon daemon(o);
  daemon.load(served.artifacts[0].path);
  PredictService service(daemon);
  const double t0 = now_s();
  for (const Request* r : lines) service.handle_line(r->line->substr(0, r->line->size() - 1));
  return now_s() - t0;
}

Result run_traced(const Options& options, const ServeSpec& spec) {
  Result result;
  SpanLog spans;
  std::optional<Served> served;
  served.emplace(set_up(options, spec, 0));
  const LoadResult load = socket_run(options, spec, *served, result);
  const LoadSummary summary = summarize(spec, load, options.seconds, result);
  for (std::size_t i = 0; i < load.requests.size(); ++i) {
    const Request& r = load.requests[i];
    if (r.done >= 0) spans.add(0, "loadgen.request", r.sent, r.done, "sock-" + std::to_string(i));
  }
  std::vector<double> lag_ms;
  for (const Request& r : load.requests) lag_ms.push_back(1e3 * (r.sent - r.due));
  result.set("loadgen.lag_p99_ms", quantile(lag_ms, 0.99));
  result.set("serve.swaps", static_cast<double>(load.swaps));
  result.set("serve.rss_mb_per_10k_req",
             (load.rss_after_mb - load.rss_before_mb) * 1e4 /
                 static_cast<double>(std::max<std::size_t>(1, load.requests.size())));

  // In-process replay of the stream's prefix, one thread per client.
  PredictDaemonOptions daemon_options;
  daemon_options.n_threads = 2;
  PredictDaemon daemon(daemon_options);
  daemon.load(served->artifacts[0].path);
  PredictService service(daemon);
  std::vector<std::vector<const Request*>> per_client(kClients);
  std::vector<const Request*> prefix;
  for (std::size_t i = 0; i < load.requests.size() && i < kReplayRequests; ++i) {
    per_client[static_cast<std::size_t>(load.requests[i].client)].push_back(&load.requests[i]);
    prefix.push_back(&load.requests[i]);
  }
  std::vector<ReplayTimes> times(kClients);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        replay_client(per_client[c], *served, daemon, service, spans, times[c]);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  ReplayTimes all;
  for (const ReplayTimes& t : times) {
    for (auto [dst, src] : {std::pair{&all.parse_ms, &t.parse_ms},
                            {&all.queue_ms, &t.queue_ms},
                            {&all.batch_rows, &t.batch_rows},
                            {&all.batch_requests, &t.batch_requests},
                            {&all.score_ms, &t.score_ms},
                            {&all.serialize_ms, &t.serialize_ms},
                            {&all.handle_ms, &t.handle_ms}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
  }
  result.attempted += prefix.size();
  result.set("serve.parse_ms", mean_of(all.parse_ms));
  result.set("serve.serialize_ms", mean_of(all.serialize_ms));
  result.set("serve.queue_p50_ms", quantile(all.queue_ms, 0.5));
  result.set("serve.queue_p99_ms", quantile(all.queue_ms, 0.99));
  result.set("serve.batch_rows", mean_of(all.batch_rows));
  result.set("serve.batch_requests", mean_of(all.batch_requests));
  result.set("serve.score_ms", mean_of(all.score_ms));
  const double handle_p50 = quantile(all.handle_ms, 0.5);
  result.set("serve.handle_p50_ms", handle_p50);
  result.set("serve.handle_p99_ms", quantile(all.handle_ms, 0.99));
  result.set("serve.transport_ms", quantile(summary.sent_latency_ms, 0.5) - handle_p50);

  std::vector<double> stats_ms;
  for (int i = 0; i < 5; ++i) {
    const double t0 = now_s();
    daemon.stats();
    stats_ms.push_back(1e3 * (now_s() - t0));
  }
  result.set("observe.stats_ms", median(stats_ms));
  std::vector<double> swap_ms;
  for (std::size_t i = 0; i < load.swaps; ++i) {
    const double t0 = now_s();
    daemon.swap(served->artifacts[(i + 1) % 2].path);
    const double t1 = now_s();
    swap_ms.push_back(1e3 * (t1 - t0));
    spans.add(0, "serve.swap", t0, t1, "swap-" + std::to_string(i));
  }
  result.set("serve.swap_ms", mean_of(swap_ms));

  const std::vector<const Request*> head(prefix.begin(),
                                         prefix.begin() + std::min<std::size_t>(300, prefix.size()));
  const double plain = handle_wall(*served, head, false);
  const double traced = handle_wall(*served, head, true);
  result.set("observe.trace_overhead_ratio", traced / plain);
  tear_down(*served);

  std::filesystem::create_directories(options.out_dir + "/spans");
  const std::string span_path = options.out_dir + "/spans/" + spec.name + "-seed" +
                                std::to_string(options.seed) + ".jsonl";
  spans.write_jsonl(span_path);
  std::fprintf(stderr, "spans: %s\n", span_path.c_str());
  return result;
}

}  // namespace

const std::vector<std::string>& serve_workloads() {
  static const std::vector<std::string> names = {"serve_small", "serve_bulk"};
  return names;
}

Result run_serve(const Options& options) {
  const ServeSpec& spec = spec_of(options.workload);
  std::filesystem::create_directories(options.out_dir);
  return options.trace ? run_traced(options, spec) : run_untraced(options, spec);
}

}  // namespace e2e
