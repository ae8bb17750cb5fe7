// Search workloads: AutoML::fit over a fixed, deterministic trial sequence
// (max_iterations + a trial cost model), timed on the wall clock.
//
// An untraced run searches a panel of seed-derived datasets of one suite
// analogue and reports medians over it. The traced run searches the first
// dataset untraced, traced (MemoryTraceSink) and untraced again, then
// replays every committed trial through the layers' public functions
// (TrialRunner::run, build_substrate, Learner::train, Model::predict,
// ErrorMetric) to time each layer.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <unistd.h>

#include "automl/automl.h"
#include "automl/trial_runner.h"
#include "data/split.h"
#include "data/suite.h"
#include "learners/registry.h"
#include "observe/trace.h"
#include "resume/checkpoint.h"
#include "tree/binning.h"
#include "workloads.h"

namespace e2e {

using namespace flaml;

namespace {

struct SearchSpec {
  std::string name;
  std::string suite;  // benchmark_suite() entry the data imitates
  ResamplingPolicy resampling;
  int n_parallel;
  int n_threads;
  std::size_t max_iterations;
  std::size_t checkpoint_every;  // 0 = no checkpoint writes
};

const std::vector<SearchSpec>& specs() {
  static const std::vector<SearchSpec> all = {
      {"search_holdout", "adult", ResamplingPolicy::ForceHoldout, 1, 1, 60, 0},
      {"search_cv", "connect-4", ResamplingPolicy::ForceCV, 2, 2, 25, 10},
  };
  return all;
}

const SearchSpec& spec_of(const std::string& name) {
  for (const SearchSpec& s : specs()) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown search workload '" + name + "'");
}

// --------------------------------------------------------------- inputs

// Seed of the i-th dataset and search of a run's panel; the first is the
// run's own seed, so the pinned digest and the traced run refer to it.
std::uint64_t panel_seed(std::uint64_t seed, std::size_t i) {
  return i == 0 ? seed : derive_seed(seed, "panel." + std::to_string(i));
}

// ---------------------------------------------------------- cost models

double config_value(const Config& config, const char* name, double fallback) {
  const auto it = config.find(name);
  return it == config.end() ? fallback : it->second;
}

// Candidate κ(χ) formulas. Each is a pure function of (learner, config,
// sample size), so the trial sequence is machine-independent. See README.md
// for how `fitted` was chosen over the others.
TrialCostModel cost_model(const std::string& name) {
  if (name == "naive") {
    // multiplier × s × tree_num × leaf_num; learners without those
    // hyperparameters (catboost, lr) count 1 for each.
    return [](const Learner& learner, const Config& config, std::size_t s) {
      return learner.initial_cost_multiplier() * static_cast<double>(s) *
             config_value(config, "tree_num", 1.0) *
             config_value(config, "leaf_num", 1.0) * 1e-6;
    };
  }
  if (name == "rows") {
    // multiplier × (fixed + per-row) cost, configs ignored.
    return [](const Learner& learner, const Config&, std::size_t s) {
      return learner.initial_cost_multiplier() *
             (0.05 + 0.001 * static_cast<double>(s));
    };
  }
  if (name == "fitted") {
    // Per-learner seconds per unit of work, work = s × trees × (1 + log2
    // leaves) for boosting, s × trees for forests, s for catboost (its
    // trees are implicit: early stopping and a fixed depth) and lr. The
    // constants are medians of wall-clock cost / work over the trials of
    // wall-clock search_holdout runs (README.md, "Trial cost model").
    return [](const Learner& learner, const Config& config, std::size_t s) {
      const double rows = static_cast<double>(s);
      const double trees = config_value(config, "tree_num", 1.0);
      const double depth = 1.0 + std::log2(config_value(config, "leaf_num", 1.0));
      const std::string& n = learner.name();
      if (n == "lgbm") return 1.12e-7 * rows * trees * depth;
      if (n == "xgboost") return 5.85e-8 * rows * trees * depth;
      if (n == "rf") return 2.51e-6 * rows * trees;
      if (n == "extra_tree") return 8.44e-7 * rows * trees;
      if (n == "catboost") return 9.70e-5 * rows;
      if (n == "lr") return 5.85e-6 * rows;
      return 1e-6 * learner.initial_cost_multiplier() * rows;
    };
  }
  throw std::invalid_argument("unknown cost model '" + name + "'");
}

constexpr const char* kCostModel = "fitted";

AutoMLOptions search_options(const SearchSpec& spec, std::uint64_t seed,
                             const std::string& checkpoint_path) {
  AutoMLOptions o;
  o.time_budget_seconds = 1e6;  // the iteration limit ends the search
  o.max_iterations = spec.max_iterations;
  o.trial_cost_model = cost_model(kCostModel);
  o.resampling = spec.resampling;
  o.n_parallel = spec.n_parallel;
  o.n_threads = spec.n_threads;
  o.seed = derive_seed(seed, "automl");
  if (spec.checkpoint_every > 0) {
    o.checkpoint_path = checkpoint_path;
    o.checkpoint_every_n_trials = spec.checkpoint_every;
  }
  return o;
}

// Learner, config, sample size and error bits of every committed trial.
std::uint64_t history_digest(const TrialHistory& history) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const TrialRecord& r : history) {
    h = fnv1a(h, r.learner.data(), r.learner.size() + 1);
    for (const auto& [name, value] : r.config) {
      h = fnv1a(h, name.data(), name.size() + 1);
      h = fnv1a(h, &value, sizeof(value));
    }
    const std::uint64_t s = r.sample_size;
    h = fnv1a(h, &s, sizeof(s));
    h = fnv1a(h, &r.error, sizeof(r.error));
  }
  return h;
}

// ------------------------------------------------------------ one search

struct SearchRun {
  double fit_s = 0.0;                // wall time of fit(), final retrain included
  std::vector<double> commits;       // wall seconds since fit start, per trial
  std::uint64_t digest = 0;
  std::size_t trials = 0;
  std::size_t failed_trials = 0;     // trials that ended Killed or Failed
  double best_error = 0.0;
  double test_error = 0.0;
  double time_to_best_s = 0.0;
  std::map<std::string, std::size_t> trials_by_learner;
  std::map<std::string, double> wall_by_learner;  // commit-gap seconds
};

SearchRun search_once(const SplitData& data, AutoMLOptions options, AutoML& automl) {
  SearchRun run;
  double start = 0.0;
  options.on_trial_committed = [&](std::size_t) { run.commits.push_back(now_s() - start); };
  start = now_s();
  automl.fit(data.train, options);
  run.fit_s = now_s() - start;

  const TrialHistory& history = automl.history();
  run.digest = history_digest(history);
  run.trials = history.size();
  run.failed_trials = static_cast<std::size_t>(
      automl.metrics().value("trials_killed") + automl.metrics().value("trials_failed"));
  run.best_error = automl.best_error();
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (history[i].error == run.best_error && i < run.commits.size()) {
      run.time_to_best_s = run.commits[i];
      break;
    }
  }
  for (std::size_t i = 0; i < history.size() && i < run.commits.size(); ++i) {
    const double gap = run.commits[i] - (i == 0 ? 0.0 : run.commits[i - 1]);
    run.trials_by_learner[history[i].learner] += 1;
    run.wall_by_learner[history[i].learner] += gap;
  }
  const DataView test(data.test);
  run.test_error = ErrorMetric::default_for(data.test.task())(automl.predict(test),
                                                             test.labels());
  return run;
}

std::vector<double> commit_gaps_ms(const SearchRun& run) {
  std::vector<double> gaps;
  for (std::size_t i = 0; i < run.commits.size(); ++i) {
    gaps.push_back(1e3 * (run.commits[i] - (i == 0 ? 0.0 : run.commits[i - 1])));
  }
  return gaps;
}

std::string checkpoint_file(const Options& options, const SearchSpec& spec) {
  return options.out_dir + "/" + spec.name + "-" + std::to_string(::getpid()) + ".ckpt";
}

void remove_checkpoint(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  std::filesystem::remove(path + ".tmp", ignored);
}

// A search repeated with the same inputs must repeat the trial digest and
// the errors exactly.
void check_digest(const SearchSpec& spec, const SearchRun& first, const SearchRun& run,
                  Result& result) {
  if (run.digest != first.digest) {
    result.fail(spec.name + ": search digest " + hex64(run.digest) +
                    " differs from the first search's " + hex64(first.digest),
                run.trials);
  }
  if (run.best_error != first.best_error || run.test_error != first.test_error) {
    result.fail(spec.name + ": best/test error differ between searches of one seed");
  }
}

void check_golden(const Options& options, const SearchSpec& spec,
                  const SearchRun& run, Result& result) {
  if (options.seed != kDefaultSeed) return;
  const std::string want = golden_digest(options.golden, spec.name);
  if (want.empty()) {
    result.fail(spec.name + ": no pinned digest in '" + options.golden + "'");
  } else if (want != hex64(run.digest)) {
    result.fail(spec.name + ": trial digest " + hex64(run.digest) +
                    " does not match the pinned " + want,
                run.trials);
  }
}

// Median set-up time over five repetitions; keeps the last data.
double timed_setup(const SearchSpec& spec, std::uint64_t seed,
                   std::optional<SplitData>& data) {
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) {
    const double t0 = now_s();
    data.emplace(make_split_data(spec.suite, seed));
    samples.push_back(now_s() - t0);
  }
  return median(samples);
}

// ------------------------------------------------------ untraced (trace 0)

Result run_untraced(const Options& options, const SearchSpec& spec) {
  Result result;
  std::optional<SplitData> setup;
  result.set("setup_s", timed_setup(spec, options.seed, setup));

  // One search per dataset of the seed's panel until --seconds have
  // passed (at least two), then the first one once more, which must repeat
  // exactly. A seed always means the same sequence of datasets.
  const std::string ckpt = checkpoint_file(options, spec);
  std::vector<SearchRun> runs;
  std::vector<double> rss;
  const double deadline = now_s() + options.seconds;
  for (std::size_t i = 0; i < 2 || now_s() < deadline; ++i) {
    const std::uint64_t seed = panel_seed(options.seed, i);
    if (i > 0) setup.emplace(make_split_data(spec.suite, seed));
    reset_peak_rss();
    AutoML automl;
    runs.push_back(search_once(*setup, search_options(spec, seed, ckpt), automl));
    rss.push_back(peak_rss_mb());
  }
  {
    const SplitData data = make_split_data(spec.suite, options.seed);
    AutoML automl;
    const SearchRun again = search_once(data, search_options(spec, options.seed, ckpt), automl);
    check_digest(spec, runs.front(), again, result);
    result.attempted += again.trials;
    result.failed += again.failed_trials;
  }
  remove_checkpoint(ckpt);
  check_golden(options, spec, runs.front(), result);

  // Per-search figures are combined by their median: a search's cost is
  // skewed (a dataset that sends FLOW2 to large forests costs several times
  // another), and the median keeps one such search from moving the run.
  std::vector<double> gaps, trials_per_s, fit_s, ttb, best, test;
  double trials = 0.0;
  for (const SearchRun& r : runs) {
    result.attempted += r.trials;
    result.failed += r.failed_trials;
    const std::vector<double> g = commit_gaps_ms(r);
    gaps.insert(gaps.end(), g.begin(), g.end());
    trials += static_cast<double>(r.trials);
    trials_per_s.push_back(static_cast<double>(r.trials) / r.commits.back());
    fit_s.push_back(r.fit_s);
    ttb.push_back(r.time_to_best_s);
    best.push_back(r.best_error);
    test.push_back(r.test_error);
  }
  const auto mean = [](const std::vector<double>& xs) {
    double sum = 0.0;
    for (double x : xs) sum += x;
    return sum / static_cast<double>(xs.size());
  };
  result.set("peak_rss_mb", median(rss));
  result.set("throughput_per_s", median(trials_per_s));
  result.set("latency_p50_ms", quantile(gaps, 0.5));

  result.note("trial_p90_ms", quantile(gaps, 0.9), "ms");
  result.note("trial_p99_ms", quantile(gaps, 0.99), "ms");
  result.note("searches", static_cast<double>(runs.size()), "count");
  result.note("trials", trials, "count");
  result.note("search_s", median(fit_s), "s");
  result.note("trials_per_s", median(trials_per_s), "1/s");
  result.note("time_to_best_s", median(ttb), "s");
  result.note("best_error", mean(best), "error");
  result.note("test_error", mean(test), "error");
  result.note("failed_ratio",
              static_cast<double>(result.failed) / static_cast<double>(result.attempted),
              "ratio");
  std::fprintf(stderr, "%s seed %llu digest %s\n", spec.name.c_str(),
               static_cast<unsigned long long>(options.seed),
               hex64(runs.front().digest).c_str());
  return result;
}

// -------------------------------------------------------- traced (trace 1)

// Resampling views of the replay: the same shapes TrialRunner carves (a
// fixed 10% holdout after one stratified shuffle, or k folds of the sample).
struct ReplaySplits {
  DataView train;    // shuffled training rows; samples are prefixes
  DataView holdout;  // empty under CV
};

ReplaySplits replay_splits(const Dataset& data, Resampling resampling, std::uint64_t seed) {
  Rng rng(seed);
  DataView shuffled(data, task_shuffled_indices(data, rng));
  if (resampling == Resampling::CV) return {shuffled, DataView()};
  const std::size_t n = shuffled.n_rows();
  const std::size_t n_holdout =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(0.1 * n)));
  const std::vector<std::uint32_t>& rows = shuffled.rows();
  return {DataView(data, {rows.begin(), rows.end() - n_holdout}),
          DataView(data, {rows.end() - n_holdout, rows.end()})};
}

const std::vector<std::string>& learner_names() {
  static const std::vector<std::string> names = {"lgbm", "xgboost", "catboost",
                                                 "rf",   "extra_tree", "lr"};
  return names;
}

Result run_traced(const Options& options, const SearchSpec& spec) {
  Result result;
  SpanLog spans;

  const double g0 = now_s();
  const SplitData data = make_split_data(spec.suite, options.seed);
  const double g1 = now_s();
  spans.add(0, "data.generate", g0, g1, "setup");
  result.set("data.generate_s", g1 - g0);

  const std::string ckpt = checkpoint_file(options, spec);
  const AutoMLOptions plain = search_options(spec, options.seed, ckpt);

  // Untraced reference search: the traced one must reproduce it exactly.
  AutoML reference_automl;
  const SearchRun reference = search_once(data, plain, reference_automl);

  AutoMLOptions traced_options = plain;
  auto sink = std::make_shared<observe::MemoryTraceSink>();
  traced_options.trace_sink = sink;
  AutoML automl;
  const double fit_start = now_s();
  const SearchRun traced = search_once(data, traced_options, automl);
  // A second untraced search, warm like the traced one, is the base of the
  // tracing overhead.
  AutoML again_automl;
  const SearchRun again = search_once(data, plain, again_automl);
  for (const SearchRun* run : {&reference, &traced, &again}) {
    result.attempted += run->trials;
    result.failed += run->failed_trials;
  }
  check_digest(spec, reference, traced, result);
  check_digest(spec, reference, again, result);
  check_golden(options, spec, reference, result);
  result.set("observe.trace_overhead_ratio", traced.fit_s / again.fit_s);

  // Search-level spans and times from the trace and the commit clock.
  const std::uint64_t fit_id = spans.next_id();
  std::vector<double> trial_s;
  for (const observe::TraceEvent& e : sink->of_type("trial_finished")) {
    const double elapsed = e.fields.at("elapsed_seconds").number;
    const auto iteration = static_cast<std::size_t>(e.fields.at("iteration").number);
    trial_s.push_back(elapsed);
    const double end = iteration >= 1 && iteration <= traced.commits.size()
                           ? fit_start + traced.commits[iteration - 1]
                           : fit_start + e.time;
    spans.add(fit_id, "automl.trial." + e.fields.at("learner").str, end - elapsed, end,
              "trial-" + std::to_string(iteration));
  }
  const double last_commit = traced.commits.empty() ? 0.0 : traced.commits.back();
  const double retrain_s = traced.fit_s - last_commit;
  spans.add(fit_id, "automl.retrain", fit_start + last_commit, fit_start + traced.fit_s,
            "retrain");
  spans.record(fit_id, 0, "automl.fit", fit_start, fit_start + traced.fit_s, "fit");
  double trial_total = 0.0;
  for (double t : trial_s) trial_total += t;
  const double n_parallel = spec.n_parallel;
  result.set("automl.trial_s", trial_total);
  result.set("automl.trial_p50_ms", 1e3 * quantile(trial_s, 0.5));
  result.set("automl.trial_p90_ms", 1e3 * quantile(trial_s, 0.9));
  result.set("automl.retrain_s", retrain_s);
  // Wall time no worker spent in a trial: ECI, FLOW2 and bookkeeping (and,
  // with n_parallel > 1, workers idling while the controller decides).
  result.set("automl.controller_s", last_commit - trial_total / n_parallel);
  result.set("common.thread_pool.busy_ratio", trial_total / (n_parallel * traced.fit_s));
  const observe::MetricsRegistry& m = automl.metrics();
  const double hits = m.value("substrate_cache.hits");
  const double misses = m.value("substrate_cache.misses");
  result.set("automl.substrate_cache.hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0);
  result.set("automl.substrate_cache.mb", m.value("substrate_cache.bytes") / (1 << 20));

  // Checkpoint writes: the size the search wrote, and the time to write a
  // mid-search snapshot of the final state as often as the search did.
  if (spec.checkpoint_every > 0) {
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(ckpt, ec);
    if (ec) result.fail(spec.name + ": the search wrote no checkpoint");
    result.set("resume.checkpoint_bytes", ec ? 0.0 : static_cast<double>(bytes));
    resume::SearchCheckpoint snapshot = automl.checkpoint_to();
    snapshot.model_blob.clear();
    const std::size_t writes = traced.trials / spec.checkpoint_every;
    double write_s = 0.0;
    for (std::size_t i = 0; i < writes; ++i) {
      const double t0 = now_s();
      snapshot.save(ckpt);
      const double t1 = now_s();
      write_s += t1 - t0;
      spans.add(0, "resume.checkpoint_write", t0, t1, "checkpoint");
    }
    result.set("resume.checkpoint_write_s", write_s);
  }
  remove_checkpoint(ckpt);

  // Replay every committed trial: once whole through TrialRunner::run (the
  // runner keeps its own substrate cache, as in the search), once split
  // into the layer calls it is made of.
  const Resampling resampling =
      spec.resampling == ResamplingPolicy::ForceCV ? Resampling::CV : Resampling::Holdout;
  const ErrorMetric metric = ErrorMetric::default_for(data.train.task());
  TrialRunner::Options runner_options;
  runner_options.resampling = resampling;
  runner_options.seed = derive_seed(options.seed, "replay");
  runner_options.n_threads = spec.n_threads;
  TrialRunner runner(data.train, metric, runner_options);
  const ReplaySplits splits = replay_splits(data.train, resampling, runner_options.seed);

  std::map<std::tuple<std::size_t, int, int>, std::shared_ptr<const BinnedSubstrate>> substrates;
  std::map<std::string, double> train_s;
  std::map<std::string, double> train_calls;
  double substrate_s = 0.0, predict_s = 0.0, eval_s = 0.0, runner_s = 0.0;
  std::size_t substrate_builds = 0;
  for (const TrialRecord& record : automl.history()) {
    const std::string key = "trial-" + std::to_string(record.iteration);
    const LearnerPtr learner = builtin_learner(record.learner);
    const double r0 = now_s();
    const std::uint64_t replay_id = spans.next_id();
    runner.run(*learner, record.config, record.sample_size, 0.0,
               static_cast<std::uint64_t>(record.iteration));
    const double r1 = now_s();
    runner_s += r1 - r0;
    spans.add(replay_id, "automl.trial_runner.run", r0, r1, key);

    const DataView sample = splits.train.prefix(record.sample_size);
    std::vector<Fold> folds;
    if (resampling == Resampling::CV) {
      Rng fold_rng(derive_seed(options.seed, "folds." + std::to_string(record.sample_size)));
      folds = kfold_split(sample, choose_cv_k(sample, 5), fold_rng);
    } else {
      folds.push_back({sample, splits.holdout});
    }
    for (std::size_t f = 0; f < folds.size(); ++f) {
      const Fold& fold = folds[f];
      const std::uint64_t train_id = spans.next_id();
      double built_here = 0.0;
      TrainContext ctx;
      ctx.train = fold.train;
      ctx.valid = &fold.valid;
      ctx.seed = derive_seed(options.seed, key);
      ctx.n_threads = spec.n_threads;
      ctx.substrate = [&, f](int max_bin) {
        auto& slot = substrates[{record.sample_size, static_cast<int>(f), max_bin}];
        if (!slot) {
          const double b0 = now_s();
          slot = std::make_shared<const BinnedSubstrate>(build_substrate(fold.train, max_bin));
          const double b1 = now_s();
          built_here += b1 - b0;
          ++substrate_builds;
          spans.add(train_id, "tree.build_substrate", b0, b1, key);
        }
        return slot;
      };
      const double t0 = now_s();
      const std::unique_ptr<Model> model = learner->train(ctx, record.config);
      const double t1 = now_s();
      spans.record(train_id, replay_id, "learners.train." + record.learner, t0, t1, key);
      const Predictions pred = model->predict(fold.valid);
      const double t2 = now_s();
      spans.add(replay_id, "learners.predict", t1, t2, key);
      const double err = metric(pred, fold.valid.labels());
      const double t3 = now_s();
      spans.add(replay_id, "metrics.eval", t2, t3, key);
      if (!std::isfinite(err)) result.fail(key + ": replayed trial scored no finite error");
      substrate_s += built_here;
      train_s[record.learner] += (t1 - t0) - built_here;
      train_calls[record.learner] += 1;
      predict_s += t2 - t1;
      eval_s += t3 - t2;
    }
    spans.record(replay_id, 0, "replay.trial", r0, now_s(), key);
  }
  result.set("tree.substrate_build_s", substrate_s);
  result.set("tree.substrate_builds", static_cast<double>(substrate_builds));
  double layered = substrate_s + predict_s + eval_s;
  for (const std::string& name : learner_names()) {
    result.set("learners.train_s." + name, train_s[name]);
    result.set("learners.train_calls." + name, train_calls[name]);
    layered += train_s[name];
  }
  result.set("learners.valid_predict_s", predict_s);
  result.set("metrics.eval_s", eval_s);
  // Share of the search's trial time the replayed layer spans account for
  // (the remainder is unexplained by the spans).
  result.set("automl.span_coverage", trial_total > 0 ? layered / trial_total : 0.0);
  result.note("replay.trial_runner_s", runner_s, "s");
  result.note("replay.layers_s", layered, "s");

  std::filesystem::create_directories(options.out_dir + "/spans");
  const std::string span_path = options.out_dir + "/spans/" + spec.name + "-seed" +
                                std::to_string(options.seed) + ".jsonl";
  spans.write_jsonl(span_path);
  std::fprintf(stderr, "spans: %s\n", span_path.c_str());
  return result;
}

}  // namespace

SplitData make_split_data(const std::string& suite, std::uint64_t seed) {
  SuiteEntry entry = suite_entry(suite);
  entry.spec.seed = derive_seed(seed, "data." + suite);
  const Dataset full = make_suite_dataset(entry);
  Rng rng(derive_seed(seed, "split"));
  const TrainTestSplit split = holdout_split(DataView(full), 0.2, rng);
  return {materialize(split.train), materialize(split.test)};
}

const std::vector<std::string>& search_workloads() {
  static const std::vector<std::string> names = {"search_holdout", "search_cv"};
  return names;
}

Result run_search(const Options& options) {
  const SearchSpec& spec = spec_of(options.workload);
  std::filesystem::create_directories(options.out_dir);
  return options.trace ? run_traced(options, spec) : run_untraced(options, spec);
}

int calibrate_cost_model(const Options& options) {
  const SearchSpec& spec = spec_of(options.workload);
  const SplitData data = make_split_data(spec.suite, options.seed);
  // Per-learner share of trials and of wall time (commit gaps), in %.
  const auto shares = [](const SearchRun& run) {
    double wall = 0.0;
    for (const auto& [name, s] : run.wall_by_learner) wall += s;
    std::map<std::string, std::pair<double, double>> out;
    for (const std::string& name : learner_names()) {
      const auto n = run.trials_by_learner.find(name);
      const auto s = run.wall_by_learner.find(name);
      out[name] = {n == run.trials_by_learner.end()
                       ? 0.0
                       : 100.0 * static_cast<double>(n->second) / static_cast<double>(run.trials),
                   s == run.wall_by_learner.end() ? 0.0 : 100.0 * s->second / wall};
    }
    return out;
  };
  const auto print = [&](const std::string& label, const SearchRun& run) {
    std::printf("  %-9s %3zu trials %5.2fs", label.c_str(), run.trials, run.commits.back());
    for (const auto& [name, share] : shares(run)) {
      std::printf("  %s %2.0f/%2.0f", name.c_str(), share.first, share.second);
    }
    std::printf("\n");
  };
  std::printf("per-learner %% of trials / %% of wall time, %s seed %llu\n", spec.name.c_str(),
              static_cast<unsigned long long>(options.seed));
  for (const char* name : {"naive", "rows", "fitted"}) {
    AutoMLOptions o = search_options(spec, options.seed, "");
    o.trial_cost_model = cost_model(name);
    o.checkpoint_path.clear();
    o.checkpoint_every_n_trials = 0;
    AutoML modeled_automl;
    const SearchRun modeled = search_once(data, o, modeled_automl);
    // The wall-clock search of equal length the model is compared with.
    o.trial_cost_model = nullptr;
    o.max_iterations = 0;
    o.time_budget_seconds = modeled.commits.back();
    AutoML clock_automl;
    const SearchRun clock = search_once(data, o, clock_automl);
    std::ofstream csv(options.out_dir + "/calibrate-" + spec.name + "-" + name + "-seed" +
                      std::to_string(options.seed) + ".csv");
    write_history_csv(csv, clock_automl.history());
    double distance = 0.0;
    const auto a = shares(modeled), b = shares(clock);
    for (const std::string& learner : learner_names()) {
      distance += std::abs(a.at(learner).first - b.at(learner).first) +
                  std::abs(a.at(learner).second - b.at(learner).second);
    }
    std::printf("%s: L1 distance of shares %.0f\n", name, distance);
    print(name, modeled);
    print("wallclock", clock);
  }
  return 0;
}

}  // namespace e2e
