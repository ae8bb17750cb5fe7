// The benchmark's workloads. Each run_* function executes one workload in
// this process and returns the record main() prints.
#pragma once

#include <string>
#include <vector>

#include "bench_util.h"
#include "data/dataset.h"

namespace e2e {

// A benchmark_suite() analogue drawn with a seed-specific generator stream
// and split 80/20 into train and test.
struct SplitData {
  flaml::Dataset train;
  flaml::Dataset test;
};
SplitData make_split_data(const std::string& suite, std::uint64_t seed);

const std::vector<std::string>& search_workloads();  // search_holdout, search_cv
const std::vector<std::string>& serve_workloads();   // serve_small, serve_bulk

// --trace 0: the end-to-end metrics; --trace 1: the per-layer metrics plus
// a span file under options.out_dir.
Result run_search(const Options& options);
Result run_serve(const Options& options);

// Prints per-learner trial and time shares of a wall-clock search and of
// each candidate trial cost model on a search workload (see README.md).
int calibrate_cost_model(const Options& options);

}  // namespace e2e
