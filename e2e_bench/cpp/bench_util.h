// Shared pieces of the end-to-end benchmark program: command-line options,
// the result record printed as the last stdout line, order statistics,
// in-memory spans, process memory readings and seed derivation.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory (relative to the working directory) for sockets, artifacts,
  // checkpoints and span files; created on demand.
  std::string out_dir = ".bench_out";
  // Directory holding the flaml_predict_serve binary.
  std::string bin_dir = ".";
  // File of pinned default-seed trial digests ("<workload> <hex>" lines).
  std::string golden;
};

// The seed whose search digests are pinned in the golden file.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;  // metric name -> value
  std::vector<Metric> report;            // human-readable lines

  void set(const std::string& name, double value) { values[name] = value; }
  void note(const std::string& name, double value, const std::string& unit) {
    report.push_back({name, value, unit});
  }
  // A failed output check: the operation counts as failed and the run as
  // incorrect. `what` goes to stderr.
  void fail(const std::string& what, std::uint64_t n_ops = 1);
};

// Print the report lines, then the final JSON line with every metric of
// `catalog` (name and unit from the catalog, value from the result). A
// catalog metric the result lacks reads 0 when `zero_fill` (a layer the
// workload leaves idle) and throws otherwise; a measured metric the catalog
// lacks throws too.
void print_result(const std::string& workload, const Result& result,
                  const std::vector<Metric>& catalog, bool zero_fill);

// Linear-interpolated quantile (q in [0, 1]) of `xs`; 0 when empty.
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

// Seconds on the steady clock since the first call in this process.
double now_s();

// One timed interval at a layer boundary. `parent` is the id of the span
// that caused it (0 = root); `key` groups the spans of one trial or request.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::string key;
};

// Thread-safe in-memory span recorder, written out once at the end.
class SpanLog {
 public:
  // Reserve an id for a span whose children are recorded before it ends.
  std::uint64_t next_id();
  void record(std::uint64_t id, std::uint64_t parent, std::string name,
              double start, double end, std::string key);
  // Convenience: fresh id, returns it.
  std::uint64_t add(std::uint64_t parent, std::string name, double start,
                    double end, std::string key);
  // One JSON object per line: {"id","parent","name","start","end","key"}.
  void write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

// Peak / current resident set size of a process in MiB from /proc (0 when
// unreadable). pid 0 = this process.
double peak_rss_mb(int pid = 0);
double current_rss_mb(int pid = 0);
// Restart this process's peak (VmHWM) from its current resident size,
// after returning freed heap memory to the system.
void reset_peak_rss();

// Independent sub-seed for a named purpose (splitmix64 of seed ^ hash(tag)).
std::uint64_t derive_seed(std::uint64_t seed, const std::string& tag);

// FNV-1a 64 over bytes, chained from `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n);
std::string hex64(std::uint64_t x);

// The pinned digest of `workload` in the golden file, or "" when absent.
std::string golden_digest(const std::string& path, const std::string& workload);

}  // namespace e2e
