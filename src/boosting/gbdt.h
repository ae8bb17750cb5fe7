// Gradient-boosted decision trees.
//
// One trainer covers the three boosted learners of the paper's search space
// (Table 5) through parameterization:
//   * LightGBM-style — leaf-wise growth, tunable max_bin, per-tree column
//     sampling;
//   * XGBoost-style  — leaf-wise growth, per-level + per-tree column
//     sampling, fixed 256-bin histograms;
//   * CatBoost-style — oblivious (symmetric) trees of fixed depth with
//     early stopping on a validation set.
// Trial cost scales ~linearly in sample size × n_trees × leaves, which is
// the Observation-3 relation the AutoML layer exploits.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "boosting/objectives.h"
#include "common/progress.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "tree/grower.h"

namespace flaml {

struct GBDTParams {
  int n_trees = 100;
  double learning_rate = 0.1;
  int max_leaves = 31;
  int max_depth = 0;
  double min_child_weight = 1e-3;
  double reg_alpha = 0.0;
  double reg_lambda = 1.0;
  double subsample = 1.0;          // row sampling per iteration (w/o replacement)
  double colsample_bytree = 1.0;   // feature sampling per tree
  double colsample_bylevel = 1.0;  // feature sampling per split search
  int max_bin = 255;
  TreeStyle tree_style = TreeStyle::LeafWise;
  int oblivious_depth = 6;
  // Stop when the validation loss has not improved for this many rounds
  // (0 = disabled; requires a validation view at train time).
  int early_stopping_rounds = 0;
  // Wall-clock training budget in seconds (0 = unlimited). When
  // fail_on_deadline, crossing it throws DeadlineExceeded (killed-trial
  // semantics); otherwise training stops after the offending tree and the
  // partial model is returned (see DESIGN.md).
  double max_seconds = 0.0;
  bool fail_on_deadline = false;
  std::uint64_t seed = 0;
  // Intra-trial parallelism on the shared_pool(): row-sharded score update
  // and prediction. Boosting is sequential across trees and each tree grows
  // serially; any value yields the bit-identical model.
  int n_threads = 1;
  // Optional prebuilt fit+encode of exactly the training rows at max_bin
  // (tree/binning.h). Null return or a rows/max_bin mismatch falls back to
  // a fresh fit; either way the model is byte-identical.
  SubstrateProvider substrate;
  // Streamed learning-curve observer (common/progress.h): invoked once per
  // boosting iteration with the validation objective loss (requires a
  // validation view). Returning false throws TrialRaced. Pure observation:
  // a callback that always returns true leaves the model byte-identical
  // (validation scoring never feeds back into training).
  ProgressCallback progress;
  // Optional out-param filled progressively with iterations run / planned
  // and the stop reason — valid even when the fit exits by throwing.
  TrainReport* report = nullptr;
};

class GBDTModel {
 public:
  GBDTModel() = default;
  GBDTModel(Task task, int n_classes, std::vector<double> base_scores);

  Task task() const { return task_; }
  int n_classes() const { return n_classes_; }
  int n_outputs() const { return static_cast<int>(base_scores_.size()); }
  std::size_t n_iterations() const {
    return trees_.empty() ? 0 : trees_.size() / base_scores_.size();
  }

  // Append the tree for output column k of the current iteration.
  void add_tree(Tree tree, double learning_rate);

  // Raw additive scores, row-major n × n_outputs. Row-sharded over
  // n_threads; each row accumulates its trees in tree order, so any thread
  // count gives bit-identical scores.
  std::vector<double> raw_scores(const DataView& view, int n_threads = 1) const;
  // Probabilities / targets.
  Predictions predict(const DataView& view, int n_threads = 1) const;

  // Human-readable text serialization (round-trips via load()).
  void save(std::ostream& out) const;
  static GBDTModel load(std::istream& in);
  std::string to_string() const;
  static GBDTModel from_string(const std::string& text);

  const std::vector<Tree>& trees() const { return trees_; }
  const std::vector<double>& tree_scales() const { return scales_; }
  const std::vector<double>& base_scores() const { return base_scores_; }

  // Drop iterations after `n_keep` (used by early stopping).
  void truncate(std::size_t n_keep);

  // Gain-based feature importance: total split gain per feature over all
  // trees. `n_features` is the training dataset's column count.
  std::vector<double> feature_importance(std::size_t n_features) const;

 private:
  Task task_ = Task::Regression;
  int n_classes_ = 0;
  std::vector<double> base_scores_;  // per output column
  // trees_[iter * n_outputs + k]; scales_ holds the learning rate applied.
  std::vector<Tree> trees_;
  std::vector<double> scales_;
};

// Train on `train`; if params.early_stopping_rounds > 0, `valid` must be
// non-null and is used for the stopping criterion (best-iteration model is
// returned). The objective is chosen by the training view's task.
GBDTModel train_gbdt(const DataView& train, const DataView* valid,
                     const GBDTParams& params);

}  // namespace flaml
