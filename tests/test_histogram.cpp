// Equivalence properties of the shared histogram module (docs/TESTING.md):
//   * histogram subtraction (parent − child) equals a direct build over the
//     sibling's rows — exactly, when the inputs are dyadic rationals, and
//     within float tolerance for arbitrary inputs;
//   * the compact small-leaf slice equals the matching full-histogram slice.
// The builds are the column-walk oracle (support/scalar_histogram.h), which
// the kernel harness holds the packed production builds to at 0 ulp.
#include "tree/histogram.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "data/generators.h"
#include "support/prop.h"
#include "support/scalar_histogram.h"
#include "tree/binning.h"

namespace flaml {
namespace {

using testing::build_class_histogram;
using testing::build_gradient_histogram;
using testing::fill_feature_class_counts;
using testing::PropCase;
using testing::remove_rows_from_class_histogram;

struct BinnedData {
  Dataset data;
  BinMapper mapper;
  BinnedMatrix binned;
  std::vector<std::size_t> offsets;

  explicit BinnedData(Dataset d, int max_bin)
      : data(std::move(d)),
        mapper(BinMapper::fit(DataView(data), max_bin)),
        binned(mapper.encode(DataView(data))),
        offsets(histogram_offsets(mapper)) {}
};

BinnedData random_regression(Rng& rng) {
  SyntheticSpec spec;
  spec.task = Task::Regression;
  spec.n_rows = 64 + rng.uniform_index(700);
  spec.n_features = 3 + static_cast<int>(rng.uniform_index(8));
  spec.categorical_fraction = rng.uniform(0.0, 0.4);
  spec.missing_fraction = rng.uniform(0.0, 0.2);
  spec.seed = rng.next();
  const int max_bin = 15 + static_cast<int>(rng.uniform_index(241));
  return BinnedData(make_regression(spec), max_bin);
}

BinnedData random_classification(Rng& rng, int n_classes) {
  SyntheticSpec spec;
  spec.task = n_classes > 2 ? Task::MultiClassification : Task::BinaryClassification;
  spec.n_classes = n_classes;
  spec.n_rows = 64 + rng.uniform_index(700);
  spec.n_features = 3 + static_cast<int>(rng.uniform_index(8));
  spec.categorical_fraction = rng.uniform(0.0, 0.4);
  spec.missing_fraction = rng.uniform(0.0, 0.2);
  spec.seed = rng.next();
  const int max_bin = 15 + static_cast<int>(rng.uniform_index(241));
  return BinnedData(make_classification(spec), max_bin);
}

std::vector<int> all_features(const BinMapper& mapper) {
  std::vector<int> features(mapper.n_features());
  std::iota(features.begin(), features.end(), 0);
  return features;
}

// Split [0, n) into a random nonempty left part and its complement.
void random_partition(Rng& rng, std::size_t n, std::vector<std::uint32_t>& left,
                      std::vector<std::uint32_t>& right) {
  left.clear();
  right.clear();
  const double p = rng.uniform(0.1, 0.9);
  for (std::uint32_t i = 0; i < n; ++i) {
    (rng.bernoulli(p) ? left : right).push_back(i);
  }
  if (left.empty()) left.push_back(right.back()), right.pop_back();
  if (right.empty()) right.push_back(left.back()), left.pop_back();
}

// Dyadic rationals (k/4 with small k) add and subtract exactly in a double,
// so the parent-minus-child identity holds bitwise, not just approximately.
double dyadic(Rng& rng) {
  return static_cast<double>(static_cast<int>(rng.uniform_index(65)) - 32) * 0.25;
}

FLAML_PROP(HistogramProp, SubtractionMatchesDirectBuildExactly, 20) {
  BinnedData bd = random_regression(prop.rng);
  const std::size_t n = bd.data.n_rows();
  std::vector<double> grad(n), hess(n);
  for (std::size_t i = 0; i < n; ++i) {
    grad[i] = dyadic(prop.rng);
    hess[i] = std::fabs(dyadic(prop.rng)) + 0.25;
  }
  std::vector<std::uint32_t> parent_rows(n), left, right;
  std::iota(parent_rows.begin(), parent_rows.end(), 0u);
  random_partition(prop.rng, n, left, right);

  const std::vector<int> features = all_features(bd.mapper);
  std::vector<HistEntry> right_sub, left_hist, right_direct;
  build_gradient_histogram(bd.binned, bd.offsets, features, parent_rows.data(),
                           parent_rows.size(), grad, hess, right_sub);
  build_gradient_histogram(bd.binned, bd.offsets, features, left.data(),
                           left.size(), grad, hess, left_hist);
  build_gradient_histogram(bd.binned, bd.offsets, features, right.data(),
                           right.size(), grad, hess, right_direct);

  // The parent's buffer becomes the right child's, as in the growers.
  subtract_gradient_histogram_inplace(right_sub, left_hist);
  ASSERT_EQ(right_sub.size(), right_direct.size());
  for (std::size_t i = 0; i < right_sub.size(); ++i) {
    EXPECT_EQ(right_sub[i].g, right_direct[i].g) << "slot " << i;
    EXPECT_EQ(right_sub[i].h, right_direct[i].h) << "slot " << i;
    EXPECT_EQ(right_sub[i].n, right_direct[i].n) << "slot " << i;
  }
}

FLAML_PROP(HistogramProp, SubtractionNearDirectBuildForArbitraryFloats, 10) {
  BinnedData bd = random_regression(prop.rng);
  const std::size_t n = bd.data.n_rows();
  std::vector<double> grad(n), hess(n);
  for (std::size_t i = 0; i < n; ++i) {
    grad[i] = prop.rng.normal();
    hess[i] = prop.rng.uniform(1e-3, 2.0);
  }
  std::vector<std::uint32_t> parent_rows(n), left, right;
  std::iota(parent_rows.begin(), parent_rows.end(), 0u);
  random_partition(prop.rng, n, left, right);

  const std::vector<int> features = all_features(bd.mapper);
  std::vector<HistEntry> right_sub, left_hist, right_direct;
  build_gradient_histogram(bd.binned, bd.offsets, features, parent_rows.data(),
                           parent_rows.size(), grad, hess, right_sub);
  build_gradient_histogram(bd.binned, bd.offsets, features, left.data(),
                           left.size(), grad, hess, left_hist);
  build_gradient_histogram(bd.binned, bd.offsets, features, right.data(),
                           right.size(), grad, hess, right_direct);
  subtract_gradient_histogram_inplace(right_sub, left_hist);
  for (std::size_t i = 0; i < right_sub.size(); ++i) {
    EXPECT_NEAR(right_sub[i].g, right_direct[i].g, 1e-9 * static_cast<double>(n));
    EXPECT_NEAR(right_sub[i].h, right_direct[i].h, 1e-9 * static_cast<double>(n));
    EXPECT_EQ(right_sub[i].n, right_direct[i].n);
  }
}

// Both growers derive the larger child by subtracting in place from the
// parent's buffer: each slot must be exactly the IEEE difference of the two
// inputs, the same bits a fresh parent − child vector would hold.
FLAML_PROP(HistogramProp, InPlaceSubtractionIsSlotwiseIeeeDifference, 10) {
  const std::size_t n = 1 + prop.rng.uniform_index(500);
  std::vector<HistEntry> parent(n), child(n);
  for (std::size_t i = 0; i < n; ++i) {
    child[i] = {prop.rng.normal() * 1e3, prop.rng.uniform(0.0, 1e3),
                static_cast<std::uint32_t>(prop.rng.uniform_index(1000))};
    parent[i] = {prop.rng.normal() * 1e3, prop.rng.uniform(0.0, 1e3),
                 child[i].n +
                     static_cast<std::uint32_t>(prop.rng.uniform_index(1000))};
  }
  std::vector<HistEntry> diff = parent;
  subtract_gradient_histogram_inplace(diff, child);
  ASSERT_EQ(diff.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const double g = parent[i].g - child[i].g;
    const double h = parent[i].h - child[i].h;
    EXPECT_EQ(std::memcmp(&diff[i].g, &g, sizeof(double)), 0) << "slot " << i;
    EXPECT_EQ(std::memcmp(&diff[i].h, &h, sizeof(double)), 0) << "slot " << i;
    EXPECT_EQ(diff[i].n, parent[i].n - child[i].n) << "slot " << i;
  }
}

FLAML_PROP(HistogramProp, ClassRemoveRowsMatchesDirectBuildExactly, 15) {
  const int k = 2 + static_cast<int>(prop.rng.uniform_index(3));
  BinnedData bd = random_classification(prop.rng, k);
  const std::size_t n = bd.data.n_rows();
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(bd.data.label(i));
  }
  // Dyadic positive weights keep every sum exact; empty = unweighted path.
  std::vector<double> weights;
  if (prop.rng.bernoulli(0.5)) {
    weights.resize(n);
    for (double& w : weights) w = std::fabs(dyadic(prop.rng)) + 0.25;
  }
  std::vector<std::uint32_t> parent_rows(n), left, right;
  std::iota(parent_rows.begin(), parent_rows.end(), 0u);
  random_partition(prop.rng, n, left, right);

  std::vector<double> parent, right_direct;
  build_class_histogram(bd.binned, bd.offsets, k, parent_rows.data(),
                        parent_rows.size(), labels, weights, parent);
  build_class_histogram(bd.binned, bd.offsets, k, right.data(), right.size(),
                        labels, weights, right_direct);
  remove_rows_from_class_histogram(bd.binned, bd.offsets, k, left.data(),
                                   left.size(), labels, weights, parent);
  ASSERT_EQ(parent.size(), right_direct.size());
  for (std::size_t i = 0; i < parent.size(); ++i) {
    EXPECT_EQ(parent[i], right_direct[i]) << "slot " << i;
  }
}

FLAML_PROP(HistogramProp, CompactSliceMatchesFullHistogram, 15) {
  // The small-leaf path gathers one feature's counts on demand instead of
  // retaining a full histogram; both layouts must agree cell for cell.
  const int k = 2 + static_cast<int>(prop.rng.uniform_index(3));
  BinnedData bd = random_classification(prop.rng, k);
  const std::size_t n = bd.data.n_rows();
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(bd.data.label(i));
  }
  std::vector<double> weights;
  if (prop.rng.bernoulli(0.5)) {
    weights.resize(n);
    for (double& w : weights) w = std::fabs(dyadic(prop.rng)) + 0.25;
  }
  // A random small subset of rows — the leaves that skip histograms.
  std::vector<std::uint32_t> rows;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (prop.rng.bernoulli(0.2)) rows.push_back(i);
  }
  if (rows.empty()) rows.push_back(0);

  std::vector<double> full;
  build_class_histogram(bd.binned, bd.offsets, k, rows.data(), rows.size(),
                        labels, weights, full);
  std::vector<double> compact;
  for (std::size_t f = 0; f < bd.mapper.n_features(); ++f) {
    const int n_bins = bd.mapper.feature(f).n_bins();
    fill_feature_class_counts(bd.binned.feature(f), n_bins, k, rows.data(),
                              rows.size(), labels, weights, compact);
    const double* slice = full.data() + bd.offsets[f] * static_cast<std::size_t>(k);
    for (std::size_t cell = 0;
         cell < static_cast<std::size_t>(n_bins) * static_cast<std::size_t>(k);
         ++cell) {
      EXPECT_EQ(compact[cell], slice[cell]) << "feature " << f << " cell " << cell;
    }
  }
}

}  // namespace
}  // namespace flaml
