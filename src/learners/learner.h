// The learner abstraction of the ML layer (paper Figure 3).
//
// A Learner bundles a training procedure with its hyperparameter search
// space (Table 5). Learners are stateless; train() returns a Model. Users
// can add custom learners through the registry (paper §3:
// `automl.add_learner(...)`) — anything with well-defined train/predict
// methods and a ConfigSpace qualifies.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "common/progress.h"
#include "data/dataset.h"
#include "metrics/error_metric.h"
#include "tree/binning.h"
#include "tuners/config_space.h"

namespace flaml {

class Model {
 public:
  virtual ~Model() = default;
  virtual Predictions predict(const DataView& view) const = 0;

  // Text serialization. All built-in learners support it; custom learners
  // may leave the default, which throws InvalidArgument.
  virtual void save(std::ostream& out) const;
};

struct TrainContext {
  DataView train;
  // Validation rows for learners with early stopping (may be null).
  const DataView* valid = nullptr;
  // Wall-clock cap for this single training call; the substitute for
  // killing an overrunning trial. CONTRACT: 0 means UNLIMITED — there is no
  // way to request a zero-second fit, and with an unlimited cap
  // fail_on_deadline is irrelevant because the deadline can never fire.
  // Learners must implement exactly this rule (the trial runner relies on
  // it when it divides an unlimited trial budget into per-fold caps: 0 / k
  // folds must stay "unlimited", not become "kill immediately").
  double max_seconds = 0.0;
  // Only meaningful when max_seconds > 0. true: exceeding max_seconds
  // throws DeadlineExceeded (kill semantics for search trials). false:
  // training stops early and returns the partial model (safety cap for
  // final retrains).
  bool fail_on_deadline = false;
  std::uint64_t seed = 0;
  // Intra-trial worker threads for learners that support them: forest
  // bagging and row-sharded score update/prediction (trees themselves grow
  // serially). Any value must produce the bit-identical model; 1 = serial.
  int n_threads = 1;
  // Optional cross-trial binned-substrate provider (tree/binning.h). When
  // set, histogram trainers ask it for a prebuilt fit+encode of exactly
  // ctx.train's rows instead of re-binning; a null return — or a substrate
  // whose rows/max_bin do not match — falls back to a fresh fit, so a
  // provider can never change the trained model, only skip redundant work.
  SubstrateProvider substrate;
  // Optional streamed learning-curve observer (racing). Invoked by learners
  // that train iteratively (boosting, forests) after each completed unit,
  // with the current validation loss; requires `valid` to be set for the
  // loss to be meaningful. Null = no streaming (default). A callback that
  // always returns true must not change the trained model.
  ProgressCallback progress;
  // Optional out-param: trainers record iterations_completed/planned and
  // the stop reason here, progressively, so the counts survive a throwing
  // exit. Null = not recorded.
  TrainReport* report = nullptr;
};

class Learner {
 public:
  virtual ~Learner() = default;

  virtual const std::string& name() const = 0;

  // Whether this learner supports the task (e.g. `lr` is
  // classification-only, as in the paper's search space).
  virtual bool supports(Task task) const = 0;

  // The hyperparameter space for `task` given the full training size S
  // (Table 5 ranges depend on S through min(32768, S) style caps).
  virtual ConfigSpace space(Task task, std::size_t full_size) const = 0;

  virtual std::unique_ptr<Model> train(const TrainContext& ctx,
                                       const Config& config) const = 0;

  // Relative cost of this learner's cheapest configuration versus the
  // fastest learner's (paper appendix constants: lightgbm 1, xgboost 1.6,
  // extra_tree 1.9, rf 2, catboost 15, lr 160). Seeds the cold-start ECI1.
  virtual double initial_cost_multiplier() const = 0;

  // Deserialize a model previously saved by one of this learner's models.
  // Default throws InvalidArgument (custom learners may not support it).
  virtual std::unique_ptr<Model> load_model(std::istream& in) const;
};

using LearnerPtr = std::shared_ptr<const Learner>;

}  // namespace flaml
