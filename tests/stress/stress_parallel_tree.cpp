// Nested-parallelism stress for intra-trial tree training (docs/TESTING.md):
// trial-level workers (an outer ThreadPool, as the AutoML controller uses)
// each train models that fan out on the process-wide shared_pool() with
// n_threads > 1. Every model must still come out byte-identical to its
// serial reference — under TSan this doubles as a race hunt over the
// forest bagging, score-update and row-sharded prediction paths.
#include <gtest/gtest.h>

#include <future>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "automl/automl.h"
#include "boosting/gbdt.h"
#include "common/thread_pool.h"
#include "data/generators.h"
#include "forest/forest.h"

namespace flaml {
namespace {

Dataset job_dataset(std::uint64_t seed, bool classification) {
  SyntheticSpec spec;
  spec.task = classification ? Task::BinaryClassification : Task::Regression;
  spec.n_rows = 600;
  spec.n_features = 6;
  spec.categorical_fraction = 0.2;
  spec.missing_fraction = 0.1;
  spec.seed = seed;
  return classification ? make_classification(spec) : make_regression(spec);
}

std::string gbdt_string(const Dataset& data, int n_threads) {
  GBDTParams params;
  params.n_trees = 6;
  params.max_leaves = 16;
  params.subsample = 0.8;
  params.colsample_bytree = 0.8;
  params.seed = 0x9d5ULL;
  params.n_threads = n_threads;
  return train_gbdt(DataView(data), nullptr, params).to_string();
}

std::string forest_string(const Dataset& data, int n_threads) {
  ForestParams params;
  params.n_trees = 8;
  params.max_features = 0.7;
  params.seed = 0x8a1ULL;
  params.n_threads = n_threads;
  std::ostringstream os;
  train_forest(DataView(data), params).save(os);
  return os.str();
}

TEST(StressParallelTree, NestedGbdtTrainingMatchesSerial) {
  // Serial references first, on this thread, with every knob at 1.
  constexpr int kJobs = 8;
  std::vector<Dataset> datasets;
  std::vector<std::string> serial;
  for (int j = 0; j < kJobs; ++j) {
    datasets.push_back(job_dataset(1000 + static_cast<std::uint64_t>(j), j % 2 == 0));
    serial.push_back(gbdt_string(datasets.back(), 1));
  }
  // Now the same fits, four trials at a time, each fanning out on the
  // shared pool (outer pool workers are NOT shared-pool workers, so the
  // inner parallel_for really submits).
  ThreadPool outer(4);
  std::vector<std::future<std::string>> results;
  for (int j = 0; j < kJobs; ++j) {
    results.push_back(
        outer.submit([&datasets, j] { return gbdt_string(datasets[j], 4); }));
  }
  for (int j = 0; j < kJobs; ++j) {
    EXPECT_EQ(results[static_cast<std::size_t>(j)].get(), serial[static_cast<std::size_t>(j)])
        << "job " << j;
  }
}

TEST(StressParallelTree, NestedForestTrainingMatchesSerial) {
  // Forests parallelize across trees; nested under an outer trial pool the
  // bagging must degrade gracefully and stay bit-identical.
  constexpr int kJobs = 6;
  std::vector<Dataset> datasets;
  std::vector<std::string> serial;
  for (int j = 0; j < kJobs; ++j) {
    datasets.push_back(job_dataset(2000 + static_cast<std::uint64_t>(j), j % 2 == 0));
    serial.push_back(forest_string(datasets.back(), 1));
  }
  ThreadPool outer(3);
  std::vector<std::future<std::string>> results;
  for (int j = 0; j < kJobs; ++j) {
    results.push_back(
        outer.submit([&datasets, j] { return forest_string(datasets[j], 4); }));
  }
  for (int j = 0; j < kJobs; ++j) {
    EXPECT_EQ(results[static_cast<std::size_t>(j)].get(), serial[static_cast<std::size_t>(j)])
        << "job " << j;
  }
}

TEST(StressParallelTree, SharedPoolPredictionUnderConcurrency) {
  // Many threads predicting through the same model on the shared pool at
  // once: read-only model state, disjoint output shards.
  Dataset data = job_dataset(31, /*classification=*/true);
  DataView view(data);
  ForestParams params;
  params.n_trees = 10;
  params.seed = 7;
  params.n_threads = 4;
  ForestModel model = train_forest(view, params);
  const Predictions reference = model.predict(view, 1);
  ThreadPool outer(4);
  std::vector<std::future<Predictions>> results;
  for (int j = 0; j < 8; ++j) {
    results.push_back(outer.submit([&] { return model.predict(view, 4); }));
  }
  for (auto& f : results) {
    Predictions p = f.get();
    ASSERT_EQ(p.values.size(), reference.values.size());
    for (std::size_t i = 0; i < p.values.size(); ++i) {
      EXPECT_EQ(p.values[i], reference.values[i]);
    }
  }
}

TEST(StressParallelTree, AutoMLHistoryIdenticalAcrossThreadCounts) {
  // Full-stack composition: n_parallel trials in flight, each trial's model
  // fit fanning out over n_threads. The search history must be a pure
  // function of the seed — identical records whether fits are serial or
  // parallel inside.
  Dataset data = job_dataset(77, /*classification=*/true);
  auto run = [&](int n_threads) {
    AutoMLOptions options;
    options.time_budget_seconds = 1e6;  // iteration cap terminates, not time
    options.max_iterations = 8;
    options.initial_sample_size = 64;
    options.resampling = ResamplingPolicy::ForceHoldout;
    options.learner_choice = LearnerChoice::RoundRobin;
    options.estimator_list = {"lgbm", "rf"};
    options.n_parallel = 2;
    options.n_threads = n_threads;
    options.retrain_full = false;
    options.seed = 1234;
    // Deterministic trial cost: keeps the sample-size schedule and ECI
    // bookkeeping independent of real timing.
    options.trial_cost_model = [](const Learner&, const Config&,
                                  std::size_t sample_size) {
      return 0.05 + 0.001 * static_cast<double>(sample_size);
    };
    AutoML automl;
    automl.fit(data, options);
    return automl.history();
  };
  const TrialHistory serial = run(1);
  const TrialHistory parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].iteration, parallel[i].iteration) << "record " << i;
    EXPECT_EQ(serial[i].learner, parallel[i].learner) << "record " << i;
    EXPECT_EQ(serial[i].config, parallel[i].config) << "record " << i;
    EXPECT_EQ(serial[i].sample_size, parallel[i].sample_size) << "record " << i;
    // Models are bit-identical, so errors must match exactly, not nearly.
    EXPECT_EQ(serial[i].error, parallel[i].error) << "record " << i;
    EXPECT_EQ(serial[i].best_error_so_far, parallel[i].best_error_so_far)
        << "record " << i;
  }
}

}  // namespace
}  // namespace flaml
