// The FLAML AutoML facade (paper §3 API) and its controller (§4).
//
//   AutoML automl;
//   AutoMLOptions options;
//   options.time_budget_seconds = 60;
//   automl.fit(data, options);
//   Predictions pred = automl.predict(test_view);
//
// fit() runs the four-component loop of Figure 3: the resampling proposer
// picks cv/holdout once (step 0); each iteration the learner proposer
// samples a learner with probability ∝ 1/ECI (step 1), the hyperparameter &
// sample-size proposer either doubles the sample or asks FLOW2 for a new
// config (step 2), and the controller runs the trial and updates the ECI
// bookkeeping (step 3). Custom learners and metrics plug in through
// add_learner() and options.metric.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "automl/eci.h"
#include "automl/history.h"
#include "automl/trial_runner.h"
#include "learners/registry.h"
#include "observe/metrics.h"
#include "observe/trace.h"
#include "resume/checkpoint.h"
#include "tuners/flow2.h"

namespace flaml {

// Ablation switches (paper §5.2), plus EciGreedy — always pick the
// argmin-ECI learner instead of sampling ∝ 1/ECI — to quantify the value of
// the FairChance randomization (Property 3).
enum class LearnerChoice { EciSampling, EciGreedy, RoundRobin };
enum class SamplePolicy { Adaptive, FullData };
enum class ResamplingPolicy { Auto, ForceCV, ForceHoldout };

// Answer of AutoMLOptions::search_control, polled at every trial boundary
// (the controller's cooperative yield points). Run continues the search;
// Preempt stops it cleanly at the boundary — no final model is trained,
// checkpoint_to() captures the state for a later byte-exact resume_from();
// Cancel stops the same way but marks the search as abandoned. The search
// daemon (src/server) is the primary caller: Preempt is how a scheduler
// evicts a low-priority job mid-flight and resumes it later.
enum class SearchSignal { Run, Preempt, Cancel };

const char* search_signal_name(SearchSignal signal);

struct AutoMLOptions {
  double time_budget_seconds = 60.0;
  // Empty = the task default (auc / log_loss / r2); or any built-in name.
  std::string metric;
  // Custom metric (overrides `metric` when set).
  std::optional<ErrorMetric> custom_metric;
  // Empty = all supported built-ins + learners added via add_learner().
  std::vector<std::string> estimator_list;

  // Sample-size schedule (paper: start 10K, multiply by c = 2). The start
  // size is scaled down with our dataset sizes; see DESIGN.md.
  std::size_t initial_sample_size = 1000;
  double sample_multiplier = 2.0;

  LearnerChoice learner_choice = LearnerChoice::EciSampling;
  SamplePolicy sample_policy = SamplePolicy::Adaptive;
  ResamplingPolicy resampling = ResamplingPolicy::Auto;
  int cv_folds = 5;
  double holdout_ratio = 0.1;

  // Frugal trial racing (src/automl/racing.h), default OFF. When enabled
  // (holdout resampling only; CV trials are never raced), iterative
  // learners stream per-iteration validation losses, and a trial whose
  // curve is dominated by the per-(learner, sample-size) incumbent envelope
  // beyond the configured slack is killed with TrialStatus::Raced — its
  // partial cost is charged (and, being not-ok, never becomes the learner's
  // κ under the ECI last_ok_cost rule). Racing legitimately changes the
  // search history: with `racing.enabled == false` the search is
  // byte-identical to the pre-racing goldens; racing-on runs pin their own
  // golden digests (tests/test_racing.cpp).
  RacingOptions racing;

  // Cross-trial binned-substrate cache (src/automl/substrate_cache.h): the
  // trial runner fits+encodes each (sample rows, max_bin) histogram
  // substrate once and shares it across trials, instead of every tree fit
  // re-binning from scratch. Byte-identical search either way — pinned by
  // the golden digest tests — so turning it off only trades speed for a
  // smaller resident footprint. Counters surface in metrics() under
  // "substrate_cache.*".
  bool reuse_binned_data = true;

  // Paper-equivalent budget used by the resampling rule = real budget /
  // budget_scale (benches run at scaled-down budgets; the rule's thresholds
  // are calibrated for paper-scale budgets).
  double budget_scale = 1.0;

  // Retrain the best configuration on all training rows after the search.
  bool retrain_full = true;

  // Optional stacked-ensemble post-processing (paper appendix): blend the
  // per-learner best models, weighted by validation error.
  //
  // Interaction with checkpointing: a blended ensemble is NOT serializable
  // (save_best_model throws; each member would need its own blob plus the
  // weights). Mid-search checkpoints are unaffected — they never carry a
  // model — and resuming re-trains the ensemble when the resumed fit()
  // finishes; but a post-fit checkpoint_to() omits the model blob when the
  // ensemble is enabled, so such a checkpoint restores the search state
  // only, not the predictor.
  bool enable_ensemble = false;

  // Parallel search threads (paper appendix): when > 1, up to n_parallel
  // trials run concurrently, each learner keeping at most one outstanding
  // trial; learners are sampled by ECI as workers free up. Trial costs are
  // still wall-clock per trial, so total CPU spent is ~n_parallel × budget.
  int n_parallel = 1;

  // Intra-trial worker threads on the process-wide shared pool, used for
  // forest bagging and row-sharded score update/prediction; each tree is
  // grown serially. Orthogonal to n_parallel (which runs whole trials
  // concurrently); the two compose. Any value produces bit-identical
  // models and search history.
  int n_threads = 1;

  // Warm-start configurations per learner name: FLOW2 starts its walk from
  // this config instead of the low-cost default (e.g. the best config of a
  // previous fit on related data).
  std::map<std::string, Config> starting_points;

  // Stop the search as soon as the best validation error reaches this value
  // (paper appendix: "search for the cheapest model with error below a
  // threshold"). Negative = disabled.
  double target_error = -1.0;

  // Stop after this many finished trials (0 = unlimited). Unlike the wall
  // budget this is deterministic, which the stress suite relies on: with a
  // trial_cost_model set and the same seed, the whole search is a pure
  // function of the options.
  std::size_t max_iterations = 0;

  // Testing/simulation: deterministic trial costs instead of measured
  // wall-clock seconds (see TrialCostModel in trial_runner.h).
  TrialCostModel trial_cost_model;

  // Structured search tracing (src/observe): every decision the paper
  // describes — learner proposals with the full ECI vector, FLOW2 moves,
  // sample-size doublings, trial outcomes — is emitted to this sink, plus a
  // run_summary event when fit() finishes. Null (the default) disables
  // tracing; the search loop then pays only a null check. With
  // n_parallel > 1 the sink receives events from multiple threads (the
  // provided sinks are thread-safe). See docs/TESTING.md for the schema and
  // tools/trace_inspect for rendering/validating a JSONL trace.
  observe::TraceSinkPtr trace_sink;

  // Crash-safe checkpointing (src/resume/checkpoint.h): when both are set,
  // fit() atomically rewrites `checkpoint_path` after every
  // checkpoint_every_n_trials-th committed trial (write to "<path>.tmp",
  // rename into place — a crash mid-write never clobbers the previous
  // checkpoint). Resume with AutoML::resume_from_file(), passing the SAME
  // dataset and options: the resumed search replays in-flight trials and
  // continues, producing the identical trial history and best model as the
  // never-interrupted run (tests/stress/stress_resume.cpp proves this at
  // every trial boundary). 0 / empty (the defaults) disable the writer.
  std::string checkpoint_path;
  std::size_t checkpoint_every_n_trials = 0;

  // Test hook: invoked after every committed trial, AFTER any due
  // checkpoint write, with the 1-based iteration number. Throwing from it
  // aborts fit() — the kill-anywhere replay suite simulates a crash at
  // trial boundary k by throwing on the k-th call.
  std::function<void(std::size_t iteration)> on_trial_committed;

  // Cooperative preemption hook, polled at every trial boundary (before
  // each new proposal, and after every commit in parallel mode) with the
  // committed-trial count. Returning Preempt or Cancel stops the search at
  // that boundary: in-flight parallel trials are drained and committed
  // first (so the stop point is a clean boundary the checkpoint/resume
  // machinery already proves byte-exact), then fit() returns WITHOUT
  // training a final model — fitted() stays false, interrupt_status()
  // reports the signal, and checkpoint_to() snapshots the state so
  // resume_from() can continue the search later as if never interrupted.
  // Null (the default) means the search only stops on budget/target/
  // iteration limits. Latency is one trial: a signal lands at the next
  // boundary, exactly like the kill-anywhere contract.
  std::function<SearchSignal(std::size_t iteration)> search_control;

  // Time source for the budget accounting (elapsed_seconds_ and the
  // per-trial remaining-budget caps). Null = a private steady-clock
  // WallClock, which is immune to system-time jumps (NTP steps, suspend);
  // inject a VirtualClock for deterministic tests, or a per-job clock in
  // daemon mode so each job is only charged for the time its own segments
  // actually run. Whatever the source, elapsed time is accumulated through
  // a BudgetMeter (common/clock.h): only forward motion counts, so even a
  // misbehaving clock that jumps backwards can neither kill the search
  // early nor immortalize it. Borrowed; must outlive fit().
  const Clock* clock = nullptr;

  std::uint64_t seed = 1;
};

class AutoML {
 public:
  AutoML();

  // Register a custom learner (paper §3: automl.add_learner(...)). Must be
  // called before fit(); the learner participates when its name appears in
  // options.estimator_list, or always when the list is empty.
  void add_learner(LearnerPtr learner);

  // Search for the best (learner, hyperparameters, sample size) under the
  // time budget. `data` must outlive this object (views are kept for
  // prediction-time schema checks).
  void fit(const Dataset& data, const AutoMLOptions& options);

  // Continue a search from a checkpoint, as if the original fit() had never
  // been interrupted. Pass the SAME dataset and options as the original run
  // (the checkpoint's task/metric/seed/resampling/lineup fingerprint is
  // cross-checked and a mismatch throws SerializationError); already-spent
  // budget carries over, so a resumed run stops at the same total
  // time_budget_seconds / max_iterations as the original would have.
  void resume_from(const Dataset& data, const AutoMLOptions& options,
                   const resume::SearchCheckpoint& checkpoint);
  void resume_from_file(const Dataset& data, const AutoMLOptions& options,
                        const std::string& path);

  // Snapshot the state after fit() returned (no in-flight trials), e.g. to
  // warm-start a later run with a larger budget. Includes the best-model
  // blob (loadable with load_automl_model) unless the ensemble is enabled
  // (see enable_ensemble) or the model does not support serialization.
  resume::SearchCheckpoint checkpoint_to() const;
  void checkpoint_to_file(const std::string& path) const;

  // Predict with the best model found. fit() must have been called.
  Predictions predict(const DataView& view) const;

  // Persist the best model (learner name + model blob). The saved file can
  // be loaded later with load_automl_model() — no dataset needed. Ensemble
  // mode is not serializable (save the underlying options instead).
  void save_best_model(std::ostream& out) const;
  void save_best_model_file(const std::string& path) const;

  // --- introspection (used by benches, examples and tests) ---
  bool fitted() const { return best_model_ != nullptr; }
  // How the last fit()/resume_from() ended: Run = ran to its budget/target/
  // iteration limit (a final model was trained); Preempt/Cancel = stopped
  // early by options.search_control at a trial boundary (no final model).
  SearchSignal interrupt_status() const { return interrupt_; }
  const std::string& best_learner() const { return best_learner_; }
  const Config& best_config() const { return best_config_; }
  double best_error() const { return best_error_; }
  std::size_t best_sample_size() const { return best_sample_size_; }
  Resampling resampling_used() const { return resampling_used_; }
  const TrialHistory& history() const { return history_; }
  // Search metrics of the last fit(): trial counters (total/ok/killed/
  // failed, per learner), sample doublings, FLOW2 restarts, trial cost and
  // error histograms, time-to-best. Always populated (independent of
  // trace_sink); reset at the start of every fit.
  const observe::MetricsRegistry& metrics() const { return metrics_; }
  // Best error achieved by each learner (learner name -> error), for the
  // Figure 4 per-learner trajectories.
  std::vector<std::pair<std::string, double>> per_learner_best() const;

 private:
  struct LearnerState {
    LearnerPtr learner;
    // Heap-allocated: the FLOW2 tuner keeps a pointer to this space, which
    // must stay stable while the states vector grows.
    std::unique_ptr<ConfigSpace> space;
    std::unique_ptr<Flow2> tuner;
    EciState eci;
    std::size_t sample_size = 0;
    double best_error = std::numeric_limits<double>::infinity();
    Config best_config;
    // Trials proposed for this learner so far; combined with the learner
    // name it salts the per-trial training seed, making each learner's
    // trial sequence independent of the global (parallel) launch order.
    std::uint64_t n_proposed = 0;
  };

  std::size_t choose_learner(Rng& rng, bool greedy, double c) const;

  // fit() and resume_from() share this; `checkpoint` restores the search
  // state after the (deterministic) setup phase and before the loop.
  void run_search(const Dataset& data, const AutoMLOptions& options,
                  const resume::SearchCheckpoint* checkpoint);
  resume::SearchCheckpoint make_checkpoint(
      const std::vector<resume::PendingTrial>& pending, bool include_model) const;

  std::vector<LearnerPtr> extra_learners_;

  // Fit results.
  const Dataset* data_ = nullptr;
  std::vector<LearnerState> states_;
  // Declared before runner_: the runner's substrate cache holds a pointer
  // to this registry, so the registry must outlive the runner.
  observe::MetricsRegistry metrics_;
  std::unique_ptr<TrialRunner> runner_;
  // Racing envelopes (racing.h): mutated only on the controller thread at
  // commit time; snapshotted into each trial's RacingPlan at launch.
  RacingMonitor racing_monitor_;
  std::unique_ptr<Model> best_model_;
  std::vector<std::unique_ptr<Model>> ensemble_models_;
  std::vector<double> ensemble_weights_;
  std::string best_learner_;
  Config best_config_;
  double best_error_ = std::numeric_limits<double>::infinity();
  std::size_t best_sample_size_ = 0;
  Resampling resampling_used_ = Resampling::Holdout;
  TrialHistory history_;

  // Search-loop state promoted to members so it can be checkpointed mid-fit
  // and restored on resume (formerly fit() locals).
  Rng rng_{1};                   // controller stream (learner sampling)
  int iteration_ = 0;            // committed trials
  bool calibrated_ = false;      // cold-start ECI1s seeded
  double elapsed_offset_ = 0.0;  // budget spent before this fit (resume)
  double elapsed_seconds_ = 0.0; // total elapsed at the last commit
  SearchSignal interrupt_ = SearchSignal::Run;  // how the last fit() ended
  std::string metric_name_;
  std::uint64_t seed_ = 1;
};

// Load a model saved by AutoML::save_best_model. The learner is resolved
// among the built-ins plus `extra_learners`.
std::unique_ptr<Model> load_automl_model(
    std::istream& in, const std::vector<LearnerPtr>& extra_learners = {});
std::unique_ptr<Model> load_automl_model_file(
    const std::string& path, const std::vector<LearnerPtr>& extra_learners = {});

// Write a trial history as CSV (header + one row per trial); configs are
// flattened as "name=value|name=value".
void write_history_csv(std::ostream& out, const TrialHistory& history);

}  // namespace flaml
