// flaml_e2e_bench — one workload of the end-to-end benchmark per process.
//
//   flaml_e2e_bench --workload search_holdout --metrics BENCHMARK.json --seed 1
//       --seconds 25 --trace 0 [--out-dir .bench_out] [--bin-dir DIR]
//       [--golden golden_digests.txt]
//   flaml_e2e_bench --calibrate search_holdout [--seed 1]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}}. --trace 0 prints the
// end-to-end metrics of the --metrics file, --trace 1 its per-layer ones.
// The exit code is 1 when an output check failed. run.py builds this
// binary and is the usual entry.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/json.h"
#include "workloads.h"

namespace {

// The metric catalog of one mode: BENCHMARK.json's "end_to_end" (trace 0)
// or "per_layer" (trace 1) names and units.
std::vector<e2e::Metric> load_catalog(const std::string& path, bool trace) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read metric catalog '" + path + "'");
  std::stringstream text;
  text << in.rdbuf();
  const flaml::JsonValue spec = flaml::parse_json(text.str());
  std::vector<e2e::Metric> catalog;
  for (const flaml::JsonValue& m : spec.at(trace ? "per_layer" : "end_to_end").array) {
    catalog.push_back({m.at("name").str, 0.0, m.at("unit").str});
  }
  return catalog;
}

int usage() {
  std::fprintf(stderr,
               "usage: flaml_e2e_bench --workload NAME --metrics BENCHMARK.json [--seed N]\n"
               "           [--seconds S] [--trace 0|1] [--out-dir DIR] [--bin-dir DIR]\n"
               "           [--golden FILE]\n"
               "       flaml_e2e_bench --calibrate SEARCH_WORKLOAD [--seed N]\n");
  return 2;
}

bool contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  std::string calibrate, metrics;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") options.workload = value;
    else if (key == "--seed") options.seed = std::stoull(value);
    else if (key == "--seconds") options.seconds = std::stod(value);
    else if (key == "--trace") options.trace = value != "0";
    else if (key == "--out-dir") options.out_dir = value;
    else if (key == "--bin-dir") options.bin_dir = value;
    else if (key == "--golden") options.golden = value;
    else if (key == "--calibrate") calibrate = value;
    else if (key == "--metrics") metrics = value;
    else return usage();
  }
  if (argc % 2 == 0) return usage();
  try {
    if (!calibrate.empty()) {
      options.workload = calibrate;
      std::filesystem::create_directories(options.out_dir);
      return e2e::calibrate_cost_model(options);
    }
    const std::vector<e2e::Metric> catalog = load_catalog(metrics, options.trace);
    e2e::Result result;
    if (contains(e2e::search_workloads(), options.workload)) {
      result = e2e::run_search(options);
    } else if (contains(e2e::serve_workloads(), options.workload)) {
      result = e2e::run_serve(options);
    } else {
      return usage();
    }
    if (result.attempted == 0) result.fail(options.workload + ": no operation ran");
    e2e::print_result(options.workload, result, catalog, options.trace);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
