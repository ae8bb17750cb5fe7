// Cross-module property tests for the invariants called out in DESIGN.md §5.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>

#include "automl/automl.h"
#include "boosting/gbdt.h"
#include "common/clock.h"
#include "data/generators.h"
#include "tree/binning.h"

namespace flaml {
namespace {

// Binning: bin_for is monotone non-decreasing in the value.
class BinningMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(BinningMonotoneTest, BinForIsMonotone) {
  const int max_bin = GetParam();
  Rng rng(11);
  Dataset data(Task::Regression, {{"x", ColumnType::Numeric, 0}});
  std::vector<float> values(3000);
  for (auto& v : values) v = static_cast<float>(rng.normal() * 10.0);
  data.set_column(0, std::move(values));
  data.set_labels(std::vector<double>(3000, 0.0));
  BinMapper mapper = BinMapper::fit(DataView(data), max_bin);
  const FeatureBins& fb = mapper.feature(0);
  int prev = -1;
  for (float v = -40.0f; v <= 40.0f; v += 0.37f) {
    int b = fb.bin_for(v);
    EXPECT_GE(b, prev);
    EXPECT_LT(b, fb.n_value_bins);
    prev = b;
  }
}

INSTANTIATE_TEST_SUITE_P(MaxBins, BinningMonotoneTest,
                         ::testing::Values(4, 16, 64, 255, 1023));

// Observation 3: GBDT trial cost grows with the cost-related
// hyperparameters. Checked as a cost ordering over a tree_num sweep.
TEST(CostModel, GbdtCostMonotoneInTreeNum) {
  SyntheticSpec spec;
  spec.task = Task::BinaryClassification;
  spec.n_rows = 3000;
  spec.n_features = 12;
  spec.seed = 21;
  Dataset data = make_classification(spec);
  DataView view(data);
  std::vector<double> costs;
  for (int trees : {5, 20, 80}) {
    WallClock clock;
    GBDTParams params;
    params.n_trees = trees;
    params.max_leaves = 15;
    train_gbdt(view, nullptr, params);
    costs.push_back(clock.now());
  }
  EXPECT_LT(costs[0], costs[2]);
  EXPECT_LT(costs[1], costs[2]);
}

// The ECI-based learner proposer must allocate more trials to the cheap
// learner when errors are comparable (Property 4 through sampling weights).
TEST(Controller, CheapLearnersGetMoreTrials) {
  SyntheticSpec spec;
  spec.task = Task::BinaryClassification;
  spec.n_rows = 2000;
  spec.n_features = 10;
  spec.seed = 23;
  Dataset data = make_classification(spec);
  AutoML automl;
  AutoMLOptions options;
  options.time_budget_seconds = 1e6;  // the trial cap ends the search
  options.max_iterations = 10;
  options.initial_sample_size = 400;
  options.estimator_list = {"lgbm", "catboost"};  // 1x vs 15x cost multiplier
  options.seed = 7;
  // Modeled trial costs in the learners' own cost ratio, growing with the
  // sample: measured seconds would make the allocation depend on how busy
  // the machine is (e.g. under ctest -j).
  options.trial_cost_model = [](const Learner& learner, const Config&,
                                std::size_t sample_size) {
    return learner.initial_cost_multiplier() *
           (0.05 + 0.001 * static_cast<double>(sample_size));
  };
  automl.fit(data, options);
  std::map<std::string, int> trials;
  for (const auto& r : automl.history()) trials[r.learner] += 1;
  EXPECT_GT(trials["lgbm"], trials["catboost"])
      << trials["lgbm"] << " lgbm vs " << trials["catboost"] << " catboost";
}

// Sample size never decreases within a learner's run except at restarts
// (which reset to the initial size).
TEST(Controller, SampleSizeMonotoneUpToRestarts) {
  SyntheticSpec spec;
  spec.task = Task::BinaryClassification;
  spec.n_rows = 6000;
  spec.n_features = 8;
  spec.seed = 29;
  Dataset data = make_classification(spec);
  AutoML automl;
  AutoMLOptions options;
  options.time_budget_seconds = 1.5;
  options.initial_sample_size = 300;
  options.estimator_list = {"lgbm"};
  options.seed = 9;
  automl.fit(data, options);
  std::size_t prev = 0;
  for (const auto& r : automl.history()) {
    if (r.sample_size < prev) {
      // Only allowed as a restart reset to the initial size.
      EXPECT_EQ(r.sample_size, 300u);
    }
    prev = r.sample_size;
  }
}

// GBDT predictions are always finite, whatever the configuration.
TEST(Robustness, GbdtPredictionsFiniteAcrossConfigs) {
  SyntheticSpec spec;
  spec.task = Task::Regression;
  spec.n_rows = 400;
  spec.n_features = 6;
  spec.label_noise = 1.0;
  spec.seed = 31;
  Dataset data = make_regression(spec);
  Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    GBDTParams params;
    params.n_trees = 1 + static_cast<int>(rng.uniform_index(50));
    params.max_leaves = 2 + static_cast<int>(rng.uniform_index(100));
    params.learning_rate = rng.uniform(0.01, 1.0);
    params.reg_alpha = rng.uniform(0.0, 1.0);
    params.reg_lambda = rng.uniform(1e-10, 1.0);
    params.subsample = rng.uniform(0.6, 1.0);
    GBDTModel model = train_gbdt(DataView(data), nullptr, params);
    for (double v : model.predict(DataView(data)).values) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
}

// Truncate keeps exactly the first n_keep iterations.
TEST(Gbdt, TruncateKeepsPrefix) {
  SyntheticSpec spec;
  spec.task = Task::MultiClassification;
  spec.n_classes = 3;
  spec.n_rows = 300;
  spec.n_features = 5;
  spec.seed = 37;
  Dataset data = make_classification(spec);
  GBDTParams params;
  params.n_trees = 10;
  GBDTModel model = train_gbdt(DataView(data), nullptr, params);
  ASSERT_EQ(model.n_iterations(), 10u);
  model.truncate(4);
  EXPECT_EQ(model.n_iterations(), 4u);
  EXPECT_EQ(model.trees().size(), 12u);  // 4 iterations x 3 classes
  // Truncating beyond the current size is a no-op.
  model.truncate(100);
  EXPECT_EQ(model.n_iterations(), 4u);
}

// Budget accounting: the sum of trial costs never exceeds elapsed time.
TEST(Controller, TrialCostsSumBelowElapsed) {
  SyntheticSpec spec;
  spec.task = Task::BinaryClassification;
  spec.n_rows = 1500;
  spec.n_features = 8;
  spec.seed = 41;
  Dataset data = make_classification(spec);
  AutoML automl;
  AutoMLOptions options;
  options.time_budget_seconds = 0.8;
  options.initial_sample_size = 300;
  options.seed = 11;
  automl.fit(data, options);
  const TrialHistory& history = automl.history();
  ASSERT_FALSE(history.empty());
  double total_cost = 0.0;
  for (const auto& r : history) total_cost += r.cost;
  EXPECT_LE(total_cost, history.back().finished_at * 1.05 + 0.05);
}

}  // namespace
}  // namespace flaml
