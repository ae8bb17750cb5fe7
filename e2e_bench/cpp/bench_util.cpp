#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <sstream>
#include <stdexcept>

#include "common/json.h"

namespace e2e {

void Result::fail(const std::string& what, std::uint64_t n_ops) {
  correct = false;
  failed += n_ops;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

void print_result(const std::string& workload, const Result& result,
                  const std::vector<Metric>& catalog, bool zero_fill) {
  using flaml::JsonValue;
  for (const auto& [name, value] : result.values) {
    const bool listed = std::any_of(catalog.begin(), catalog.end(),
                                    [&](const Metric& m) { return m.name == name; });
    if (!listed) throw std::logic_error("metric " + name + " is not in the catalog");
  }
  JsonValue metrics = JsonValue::make_object();
  for (const Metric& m : catalog) {
    const auto it = result.values.find(m.name);
    if (it == result.values.end() && !zero_fill) {
      throw std::logic_error("workload " + workload + " did not measure " + m.name);
    }
    JsonValue entry = JsonValue::make_object();
    entry.set("value", JsonValue::make_number(it == result.values.end() ? 0.0 : it->second));
    entry.set("unit", JsonValue::make_string(m.unit));
    metrics.set(m.name, std::move(entry));
  }
  for (const Metric& m : result.report) {
    std::printf("%-14s %-30s %.6g %s\n", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  JsonValue out = JsonValue::make_object();
  out.set("correct", JsonValue::make_bool(result.correct));
  out.set("attempted", JsonValue::make_number(static_cast<double>(result.attempted)));
  out.set("failed", JsonValue::make_number(static_cast<double>(result.failed)));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", flaml::dump_json_compact(out).c_str());
  std::fflush(stdout);
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin)
      .count();
}

std::uint64_t SpanLog::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++last_id_;
}

void SpanLog::record(std::uint64_t id, std::uint64_t parent, std::string name,
                     double start, double end, std::string key) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({id, parent, std::move(name), start, end, std::move(key)});
}

std::uint64_t SpanLog::add(std::uint64_t parent, std::string name, double start,
                           double end, std::string key) {
  const std::uint64_t id = next_id();
  record(id, parent, std::move(name), start, end, std::move(key));
  return id;
}

void SpanLog::write_jsonl(const std::string& path) const {
  using flaml::JsonValue;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file '" + path + "'");
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    JsonValue line = JsonValue::make_object();
    line.set("id", JsonValue::make_number(static_cast<double>(s.id)));
    line.set("parent", JsonValue::make_number(static_cast<double>(s.parent)));
    line.set("name", JsonValue::make_string(s.name));
    line.set("start", JsonValue::make_number(s.start));
    line.set("end", JsonValue::make_number(s.end));
    line.set("key", JsonValue::make_string(s.key));
    out << flaml::dump_json_compact(line) << '\n';
  }
}

namespace {

double status_field_mb(int pid, const std::string& field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream fields(line.substr(field.size() + 1));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb(int pid) { return status_field_mb(pid, "VmHWM"); }
double current_rss_mb(int pid) { return status_field_mb(pid, "VmRSS"); }

void reset_peak_rss() {
  ::malloc_trim(0);  // return freed heap first, so the new peak starts low
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t derive_seed(std::uint64_t seed, const std::string& tag) {
  std::uint64_t x = seed ^ fnv1a(14695981039346656037ULL, tag.data(), tag.size());
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string hex64(std::uint64_t x) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

std::string golden_digest(const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  std::string name, digest;
  while (in >> name >> digest) {
    if (name == workload) return digest;
  }
  return "";
}

}  // namespace e2e
