// Golden end-to-end search regression: a fixed-seed stub-lineup search is a
// pure function of its options, so its ENTIRE trial history — every learner
// choice, config, sample size and the exact double bits of every error and
// cost — can be pinned as one FNV-1a digest. Any unintended change to the
// proposer, FLOW2, the ECI bookkeeping, the RNG, the sample schedule or the
// trial runner shows up here as a digest mismatch, with the full history
// printed for diffing.
//
// If a change to the search loop is INTENTIONAL, re-pin the constants below
// from the test's failure output and call the change out in the PR.
#include "automl/automl.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "support/history_digest.h"
#include "support/resume_test_util.h"

namespace flaml {
namespace {

using testing::add_resume_lineup;
using testing::canonical_history;
using testing::expect_history_digest;
using testing::history_digest;
using testing::resume_options;
using testing::resume_tiny_binary;

void expect_golden(const AutoML& automl, std::uint64_t expected_digest,
                   const std::string& expected_best_learner,
                   const std::string& what) {
  EXPECT_EQ(automl.best_learner(), expected_best_learner) << what;
  expect_history_digest(automl.history(), expected_digest, what);
}

// Pinned digests of the seed-42, 15-trial stub search (serial and
// n_parallel=2). Re-pin ONLY for intentional search-behavior changes.
constexpr std::uint64_t kSerialDigest = 0xfdd0fbff7852ce12ULL;
constexpr const char* kSerialBestLearner = "stub_fast";
constexpr std::uint64_t kParallelDigest = 0x2ef12b227d53ce3eULL;
constexpr const char* kParallelBestLearner = "stub_fast";

TEST(GoldenSearch, SerialHistoryDigestIsPinned) {
  const Dataset data = resume_tiny_binary(1001);
  AutoML automl;
  add_resume_lineup(automl);
  automl.fit(data, resume_options(42, 15));
  ASSERT_EQ(automl.history().size(), 15u);
  expect_golden(automl, kSerialDigest, kSerialBestLearner, "serial golden");
}

TEST(GoldenSearch, ParallelHistoryDigestIsPinned) {
  const Dataset data = resume_tiny_binary(1001);
  AutoMLOptions options = resume_options(42, 15);
  options.n_parallel = 2;
  AutoML automl;
  add_resume_lineup(automl);
  automl.fit(data, options);
  ASSERT_EQ(automl.history().size(), 15u);
  expect_golden(automl, kParallelDigest, kParallelBestLearner,
                "parallel golden");
}

// ---------------------------------------------------------------------------
// Substrate-cache transparency goldens: with REAL tree learners (the stub
// lineup never bins data), the search history with reuse_binned_data on must
// be digest-identical to the history with it off. The cache serves shared
// BinMapper fits keyed by the exact row set, so any divergence here means a
// cached substrate differed from a fresh fit+encode — a correctness bug, not
// something to re-pin.

// Pure function of (learner, config, sample size): both runs being compared
// see identical search decisions, so a history divergence can only come from
// the trained models themselves.
TrialCostModel real_cost_model() {
  return [](const Learner& learner, const Config& config,
            std::size_t sample_size) {
    double config_sum = 0.0;
    for (const auto& [name, value] : config) config_sum += std::abs(value);
    return learner.initial_cost_multiplier() *
               (0.05 + 0.001 * static_cast<double>(sample_size)) +
           1e-6 * config_sum;
  };
}

AutoMLOptions real_options(bool reuse_binned_data, ResamplingPolicy resampling,
                           std::size_t n_parallel) {
  AutoMLOptions options;
  options.time_budget_seconds = 1e6;  // iteration budget terminates, not time
  options.max_iterations = 10;
  options.initial_sample_size = 32;
  options.resampling = resampling;
  options.estimator_list = {"lgbm", "rf"};
  options.trial_cost_model = real_cost_model();
  options.seed = 7;
  options.n_parallel = n_parallel;
  options.reuse_binned_data = reuse_binned_data;
  return options;
}

void expect_cache_transparent(ResamplingPolicy resampling,
                              std::size_t n_parallel, const std::string& what) {
  const Dataset data = resume_tiny_binary(2024);
  AutoML cached;
  cached.fit(data, real_options(true, resampling, n_parallel));
  AutoML fresh;
  fresh.fit(data, real_options(false, resampling, n_parallel));
  ASSERT_FALSE(cached.history().empty()) << what;
  std::ostringstream got;
  got << std::hex << history_digest(cached.history());
  std::ostringstream want;
  want << std::hex << history_digest(fresh.history());
  EXPECT_EQ(got.str(), want.str())
      << what << ": reuse_binned_data changed the search history — the "
      << "substrate cache must be byte-transparent.\nCached history:\n"
      << canonical_history(cached.history()) << "Fresh history:\n"
      << canonical_history(fresh.history());
  EXPECT_EQ(cached.best_learner(), fresh.best_learner()) << what;
  EXPECT_DOUBLE_EQ(cached.best_error(), fresh.best_error()) << what;
  // The cached run actually exercised the cache; the fresh run never built one.
  EXPECT_GT(cached.metrics().value("substrate_cache.hits"), 0.0) << what;
  EXPECT_DOUBLE_EQ(fresh.metrics().value("substrate_cache.hits"), 0.0) << what;
}

// ---------------------------------------------------------------------------
// Real-learner goldens: these runs use real tree learners — the stub lineup
// never bins data — so they pin the histogram kernels, the growers and the
// substrate path together. The digests are the ones the pre-kernel scalar
// column build produced: the packed kernels are bit-identical to that build
// (now the oracle in tests/support/scalar_histogram.h), whichever table the
// build compiles in. They also pin run-to-run and n_parallel=1 vs 2
// determinism.
// Re-pin the constants only for intentional changes to the search loop or
// the tree learners themselves; a change from a kernel edit alone is a
// bit-identity bug.

std::uint64_t real_search_digest(std::size_t n_parallel) {
  const Dataset data = resume_tiny_binary(2024);
  AutoML automl;
  automl.fit(data, real_options(false, ResamplingPolicy::ForceHoldout,
                                n_parallel));
  EXPECT_FALSE(automl.history().empty());
  return history_digest(automl.history());
}

// Pinned digests of the seed-7 real-learner holdout search, one per
// n_parallel.
constexpr std::uint64_t kRealSerialDigest = 0x4761dfa18c7e2d32ULL;
constexpr std::uint64_t kRealParallelDigest = 0x7ba5ed9c505cf6f1ULL;

void expect_digest(std::uint64_t got, std::uint64_t want,
                   const std::string& what) {
  std::ostringstream g, w;
  g << std::hex << got;
  w << std::hex << want;
  EXPECT_EQ(g.str(), w.str())
      << what << ": the real-learner search history changed. If the search "
      << "or the learners changed intentionally, re-pin; if only the "
      << "histogram kernels changed, this is a bit-identity bug.";
}

TEST(GoldenSearch, RealLearnerDigestIsPinnedAndRunToRunStable) {
  expect_digest(real_search_digest(1), kRealSerialDigest, "serial run 1");
  expect_digest(real_search_digest(1), kRealSerialDigest, "serial run 2");
  expect_digest(real_search_digest(2), kRealParallelDigest, "parallel run 1");
  expect_digest(real_search_digest(2), kRealParallelDigest, "parallel run 2");
}

TEST(GoldenSearch, SubstrateCacheTransparentHoldoutSerial) {
  expect_cache_transparent(ResamplingPolicy::ForceHoldout, 1,
                           "holdout serial");
}

TEST(GoldenSearch, SubstrateCacheTransparentCvSerial) {
  expect_cache_transparent(ResamplingPolicy::ForceCV, 1, "cv serial");
}

TEST(GoldenSearch, SubstrateCacheTransparentHoldoutParallel) {
  expect_cache_transparent(ResamplingPolicy::ForceHoldout, 2,
                           "holdout parallel");
}

TEST(GoldenSearch, SubstrateCacheTransparentCvParallel) {
  expect_cache_transparent(ResamplingPolicy::ForceCV, 2, "cv parallel");
}

}  // namespace
}  // namespace flaml
