// Kernel differential-test harness (docs/TESTING.md, "Kernel differential
// testing"): every packed histogram kernel (portable / sse2, whichever this
// build supports) is compared against the column-walk oracle in
// support/scalar_histogram.h over a sweep of bin widths crossing the
// uint8/uint16 packing boundary and a battery of edge shapes:
//
//   * bin counts {2, 16, 255, 256, 257, 1024}: 256 is the last width that
//     packs to uint8 codes (max code 255), 257 the first that needs uint16;
//   * NaN feature values (missing bin via a real BinMapper encode);
//   * missing-bin-heavy synthetic codes;
//   * all rows in one bin (constant feature — the worst same-accumulator
//     dependency chain);
//   * empty features (excluded from the selection; zero-row builds).
//
// Contracts checked, per kernel:
//   * counts (n, and class-layout cells under unit weights) exactly equal;
//   * (g, h) sums within kUlpBound ulps of the oracle — pinned at ZERO: the
//     packed kernels execute the same IEEE adds in the same per-accumulator
//     order as the oracle's loop (see hist_kernels.cpp), so they are
//     bit-identical, NaN payloads included. The bound is a named constant so
//     a future kernel that genuinely must reorder states its looseness in
//     the diff of this file, not silently.
//   * kernel-vs-kernel and run-vs-run bit-identity — the determinism
//     contract the golden search digests rely on, whichever table the build
//     compiles in.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "data/generators.h"
#include "support/prop.h"
#include "support/scalar_histogram.h"
#include "tree/binning.h"
#include "tree/histogram.h"
#include "tree/packed_bins.h"

namespace flaml {
namespace {

using testing::build_class_histogram;
using testing::build_gradient_histogram;
using testing::fill_feature_class_counts;
using testing::PropCase;
using testing::remove_rows_from_class_histogram;

// Pinned accuracy bound for (g, h) sums vs the oracle, in ulps.
// Zero is intentional — see the file comment. Loosening it is an API-level
// decision, not a test fix.
constexpr std::int64_t kUlpBound = 0;

std::uint64_t double_bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// Distance in representable doubles. Identical bit patterns (including a
// shared NaN payload and -0.0 vs -0.0) are 0; any NaN-vs-non-NaN pair is
// maximal, never "close".
std::int64_t ulp_distance(double a, double b) {
  if (double_bits(a) == double_bits(b)) return 0;
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<std::int64_t>::max();
  }
  const auto ordered = [](double v) {
    const auto i = static_cast<std::int64_t>(double_bits(v));
    return i < 0 ? static_cast<std::int64_t>(0x8000000000000000ULL) - i : i;
  };
  const std::int64_t da = ordered(a), db = ordered(b);
  return da > db ? da - db : db - da;
}

// Every table this build compiles: portable always, sse2 when it is the
// build's kernel.
std::vector<HistKernel> packed_kernels() {
  std::vector<HistKernel> out{HistKernel::Portable};
  if (best_hist_kernel() == HistKernel::Sse2) out.push_back(HistKernel::Sse2);
  return out;
}

void expect_grad_equal(const std::vector<HistEntry>& got,
                       const std::vector<HistEntry>& ref,
                       const std::string& what) {
  ASSERT_EQ(got.size(), ref.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i].n, ref[i].n) << what << " slot " << i;
    EXPECT_LE(ulp_distance(got[i].g, ref[i].g), kUlpBound)
        << what << " slot " << i << " g: " << got[i].g << " vs " << ref[i].g;
    EXPECT_LE(ulp_distance(got[i].h, ref[i].h), kUlpBound)
        << what << " slot " << i << " h: " << got[i].h << " vs " << ref[i].h;
    if (::testing::Test::HasFailure()) return;  // one slot is enough noise
  }
}

void expect_cells_equal(const std::vector<double>& got,
                        const std::vector<double>& ref,
                        const std::string& what) {
  ASSERT_EQ(got.size(), ref.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_LE(ulp_distance(got[i], ref[i]), kUlpBound)
        << what << " cell " << i << ": " << got[i] << " vs " << ref[i];
    if (::testing::Test::HasFailure()) return;
  }
}

// One synthetic fixture: codes are authored directly (no BinMapper), so the
// sweep controls the exact bin width and edge shape.
enum class Edge { Random, AllOneBin, MissingHeavy, EmptyFeature };

const char* edge_name(Edge e) {
  switch (e) {
    case Edge::Random: return "random";
    case Edge::AllOneBin: return "all-one-bin";
    case Edge::MissingHeavy: return "missing-heavy";
    case Edge::EmptyFeature: return "empty-feature";
  }
  return "?";
}

struct Fixture {
  BinnedMatrix binned;
  PackedBins packed;
  std::vector<std::size_t> offsets;
  std::vector<int> features;  // gradient-build selection (may exclude some)
  std::vector<double> grad, hess, unit, weights;
  std::vector<int> labels;
  std::vector<std::uint32_t> rows, subset;
  int n_classes = 3;
};

Fixture make_fixture(Rng& rng, std::size_t n_rows, int n_bins, Edge edge) {
  const std::size_t n_features = 5;
  Fixture fx;
  fx.binned = BinnedMatrix(n_rows, n_features);
  fx.offsets.assign(n_features + 1, 0);
  for (std::size_t f = 0; f < n_features; ++f) {
    fx.offsets[f + 1] = fx.offsets[f] + static_cast<std::size_t>(n_bins);
    auto& col = fx.binned.feature(f);
    for (std::size_t r = 0; r < n_rows; ++r) {
      std::uint16_t code =
          static_cast<std::uint16_t>(rng.uniform_index(
              static_cast<std::size_t>(n_bins)));
      if (edge == Edge::AllOneBin) {
        code = static_cast<std::uint16_t>(n_bins - 1);  // sole hot bin
      } else if (edge == Edge::MissingHeavy && rng.bernoulli(0.8)) {
        code = static_cast<std::uint16_t>(n_bins - 1);  // the missing bin
      }
      col[r] = code;
    }
  }
  // Force the width boundary to be about the BIN COUNT, not sampling luck:
  // the last row of feature 0 carries the maximal code.
  fx.binned.feature(0)[n_rows - 1] = static_cast<std::uint16_t>(n_bins - 1);
  fx.packed = PackedBins::pack(fx.binned);

  fx.features.resize(n_features);
  std::iota(fx.features.begin(), fx.features.end(), 0);
  if (edge == Edge::EmptyFeature) {
    fx.features.erase(fx.features.begin() + 2);  // feature 2 stays all-zero
  }
  fx.grad.resize(n_rows);
  fx.hess.resize(n_rows);
  fx.unit.assign(n_rows, 1.0);
  fx.weights.resize(n_rows);
  fx.labels.resize(n_rows);
  for (std::size_t i = 0; i < n_rows; ++i) {
    fx.grad[i] = rng.normal();
    fx.hess[i] = rng.uniform(1e-3, 2.0);
    fx.weights[i] = rng.uniform(0.1, 2.0);
    fx.labels[i] = static_cast<int>(rng.uniform_index(
        static_cast<std::size_t>(fx.n_classes)));
  }
  fx.rows.resize(n_rows);
  std::iota(fx.rows.begin(), fx.rows.end(), 0u);
  for (std::uint32_t i = 0; i < n_rows; i += 3) fx.subset.push_back(i);
  return fx;
}

// The full differential: every packed kernel against the oracle,
// over gradient (unit and general hessians, full rows and a gather subset,
// plus a zero-row build), class build, class remove, and the compact
// per-feature fill.
void run_differential(const Fixture& fx, const std::string& what) {
  std::vector<HistEntry> ref_full, ref_sub, ref_unit, ref_empty;
  build_gradient_histogram(fx.binned, fx.offsets, fx.features, fx.rows.data(),
                           fx.rows.size(), fx.grad, fx.hess, ref_full);
  build_gradient_histogram(fx.binned, fx.offsets, fx.features,
                           fx.subset.data(), fx.subset.size(), fx.grad,
                           fx.hess, ref_sub);
  build_gradient_histogram(fx.binned, fx.offsets, fx.features, fx.rows.data(),
                           fx.rows.size(), fx.grad, fx.unit, ref_unit);
  build_gradient_histogram(fx.binned, fx.offsets, fx.features, fx.rows.data(),
                           0, fx.grad, fx.hess, ref_empty);

  std::vector<double> ref_class, ref_removed, ref_fill;
  build_class_histogram(fx.binned, fx.offsets, fx.n_classes, fx.rows.data(),
                        fx.rows.size(), fx.labels, fx.weights, ref_class);
  ref_removed = ref_class;
  remove_rows_from_class_histogram(fx.binned, fx.offsets, fx.n_classes,
                                   fx.subset.data(), fx.subset.size(),
                                   fx.labels, fx.weights, ref_removed);
  const int f0_bins = static_cast<int>(fx.offsets[1] - fx.offsets[0]);
  fill_feature_class_counts(fx.binned.feature(0), f0_bins, fx.n_classes,
                            fx.subset.data(), fx.subset.size(), fx.labels,
                            fx.weights, ref_fill);

  for (HistKernel k : packed_kernels()) {
    const std::string tag = what + " kernel=" + hist_kernel_name(k);
    std::vector<HistEntry> hist;
    build_gradient_histogram_packed(fx.packed, fx.offsets, fx.features,
                                    fx.rows.data(), fx.rows.size(), fx.grad,
                                    fx.hess, /*unit_hess=*/false, hist, k);
    expect_grad_equal(hist, ref_full, tag + " grad-full");
    build_gradient_histogram_packed(fx.packed, fx.offsets, fx.features,
                                    fx.subset.data(), fx.subset.size(),
                                    fx.grad, fx.hess, false, hist, k);
    expect_grad_equal(hist, ref_sub, tag + " grad-subset");
    build_gradient_histogram_packed(fx.packed, fx.offsets, fx.features,
                                    fx.rows.data(), fx.rows.size(), fx.grad,
                                    fx.unit, /*unit_hess=*/true, hist, k);
    expect_grad_equal(hist, ref_unit, tag + " grad-unit");
    build_gradient_histogram_packed(fx.packed, fx.offsets, fx.features,
                                    fx.rows.data(), 0, fx.grad, fx.hess,
                                    false, hist, k);
    expect_grad_equal(hist, ref_empty, tag + " grad-zero-rows");

    std::vector<double> cells;
    build_class_histogram_packed(fx.packed, fx.offsets, fx.n_classes,
                                 fx.rows.data(), fx.rows.size(), fx.labels,
                                 fx.weights, cells, k);
    expect_cells_equal(cells, ref_class, tag + " class-full");
    remove_rows_from_class_histogram_packed(
        fx.packed, fx.offsets, fx.n_classes, fx.subset.data(),
        fx.subset.size(), fx.labels, fx.weights, cells, k);
    expect_cells_equal(cells, ref_removed, tag + " class-removed");
    std::vector<double> fill;
    fill_feature_class_counts_packed(fx.packed, 0, f0_bins, fx.n_classes,
                                     fx.subset.data(), fx.subset.size(),
                                     fx.labels, fx.weights, fill, k);
    expect_cells_equal(fill, ref_fill, tag + " compact-fill");
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(HistogramKernels, AtLeastOnePackedKernelIsAvailable) {
  // Portable has no ISA requirement, so the packed path can never be
  // silently absent, and the build's kernel is one the harness checks.
  const std::vector<HistKernel> kernels = packed_kernels();
  EXPECT_EQ(kernels.front(), HistKernel::Portable);
  EXPECT_NE(std::find(kernels.begin(), kernels.end(), best_hist_kernel()),
            kernels.end());
#if defined(__SSE2__) || defined(_M_X64)
  EXPECT_EQ(best_hist_kernel(), HistKernel::Sse2);
#endif
}

TEST(HistogramKernels, DifferentialSweepAcrossBinWidthsAndEdges) {
  Rng rng(0x9e11);
  for (int n_bins : {2, 16, 255, 256, 257, 1024}) {
    for (Edge edge : {Edge::Random, Edge::AllOneBin, Edge::MissingHeavy,
                      Edge::EmptyFeature}) {
      Fixture fx = make_fixture(rng, /*n_rows=*/384, n_bins, edge);
      // The packing width is part of the contract under test: uint8 through
      // 256 bins (max code 255), uint16 from 257 up.
      EXPECT_EQ(fx.packed.wide(), n_bins > 256)
          << "n_bins " << n_bins << " " << edge_name(edge);
      run_differential(fx, "bins=" + std::to_string(n_bins) + " edge=" +
                               std::string(edge_name(edge)));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(HistogramKernels, NanFeatureValuesLandInMissingBinIdentically) {
  // End-to-end NaN handling: a real BinMapper encode routes NaNs to each
  // feature's missing bin; the packed kernels must reproduce the oracle's
  // histograms over that encoding bit for bit.
  SyntheticSpec spec;
  spec.task = Task::Regression;
  spec.n_rows = 500;
  spec.n_features = 6;
  spec.missing_fraction = 0.35;
  spec.categorical_fraction = 0.3;
  spec.seed = 77;
  const Dataset data = make_regression(spec);
  const BinMapper mapper = BinMapper::fit(DataView(data), 63);

  Fixture fx;
  fx.binned = mapper.encode(DataView(data));
  fx.packed = PackedBins::pack(fx.binned);
  fx.offsets = histogram_offsets(mapper);
  fx.features.resize(mapper.n_features());
  std::iota(fx.features.begin(), fx.features.end(), 0);
  Rng rng(0xabcd);
  const std::size_t n = data.n_rows();
  fx.grad.resize(n);
  fx.hess.resize(n);
  fx.unit.assign(n, 1.0);
  fx.weights.resize(n);
  fx.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    fx.grad[i] = rng.normal();
    fx.hess[i] = rng.uniform(1e-3, 2.0);
    fx.weights[i] = rng.uniform(0.1, 2.0);
    fx.labels[i] = static_cast<int>(rng.uniform_index(3));
  }
  fx.rows.resize(n);
  std::iota(fx.rows.begin(), fx.rows.end(), 0u);
  for (std::uint32_t i = 0; i < n; i += 3) fx.subset.push_back(i);
  run_differential(fx, "nan-encode");
}

TEST(HistogramKernels, NanGradientsPropagateBitIdentically) {
  // Poisoned gradients must not diverge between kernels: the adds happen in
  // the same order, so even NaN payloads and infinities come out bitwise
  // equal to the oracle (ulp_distance treats equal-bits NaN as 0).
  Rng rng(0x517e);
  Fixture fx = make_fixture(rng, 256, 64, Edge::Random);
  fx.grad[3] = std::numeric_limits<double>::quiet_NaN();
  fx.grad[100] = std::numeric_limits<double>::infinity();
  fx.grad[101] = -std::numeric_limits<double>::infinity();
  fx.hess[50] = std::numeric_limits<double>::quiet_NaN();
  run_differential(fx, "nan-grad");
}

TEST(HistogramKernels, BitIdenticalAcrossRuns) {
  Rng rng(0x7ead5);
  Fixture fx = make_fixture(rng, 1500, 200, Edge::Random);
  for (HistKernel k : packed_kernels()) {
    std::vector<HistEntry> first;
    std::vector<double> first_cells;
    for (int run = 0; run < 3; ++run) {
      const std::string tag = std::string("kernel=") + hist_kernel_name(k) +
                              " run=" + std::to_string(run);
      std::vector<HistEntry> hist;
      build_gradient_histogram_packed(fx.packed, fx.offsets, fx.features,
                                      fx.rows.data(), fx.rows.size(), fx.grad,
                                      fx.hess, false, hist, k);
      std::vector<double> cells;
      build_class_histogram_packed(fx.packed, fx.offsets, fx.n_classes,
                                   fx.rows.data(), fx.rows.size(), fx.labels,
                                   fx.weights, cells, k);
      if (first.empty()) {
        first = hist;
        first_cells = cells;
        continue;
      }
      ASSERT_EQ(hist.size(), first.size()) << tag;
      for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(double_bits(hist[i].g), double_bits(first[i].g)) << tag;
        EXPECT_EQ(double_bits(hist[i].h), double_bits(first[i].h)) << tag;
        EXPECT_EQ(hist[i].n, first[i].n) << tag;
        if (::testing::Test::HasFailure()) return;
      }
      ASSERT_EQ(cells.size(), first_cells.size()) << tag;
      for (std::size_t i = 0; i < first_cells.size(); ++i) {
        EXPECT_EQ(double_bits(cells[i]), double_bits(first_cells[i])) << tag;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

FLAML_PROP(HistogramKernelsProp, DifferentialHoldsOnRandomShapes, 12) {
  const std::size_t n_rows = 32 + prop.rng.uniform_index(600);
  const int n_bins = 2 + static_cast<int>(prop.rng.uniform_index(400));
  const Edge edge = static_cast<Edge>(prop.rng.uniform_index(4));
  Fixture fx = make_fixture(prop.rng, n_rows, n_bins, edge);
  run_differential(fx, "prop bins=" + std::to_string(n_bins) + " edge=" +
                           std::string(edge_name(edge)));
}

// ---------------------------------------------------------------------------
// Packed-layout properties: PackedBins must be a lossless, width-minimal,
// row-major transpose of the BinnedMatrix it came from.

FLAML_PROP(PackedBinsProp, RoundTripIsLossless, 25) {
  const std::size_t n_rows = 1 + prop.rng.uniform_index(300);
  const std::size_t n_features = 1 + prop.rng.uniform_index(12);
  // Sweep the max code across the uint8/uint16 boundary with extra mass on
  // the interesting region (254..257).
  const int max_code =
      prop.rng.bernoulli(0.5)
          ? 254 + static_cast<int>(prop.rng.uniform_index(4))
          : static_cast<int>(prop.rng.uniform_index(1200));
  BinnedMatrix binned(n_rows, n_features);
  std::uint16_t seen_max = 0;
  for (std::size_t f = 0; f < n_features; ++f) {
    for (std::size_t r = 0; r < n_rows; ++r) {
      const auto code = static_cast<std::uint16_t>(
          prop.rng.uniform_index(static_cast<std::size_t>(max_code) + 1));
      binned.feature(f)[r] = code;
      seen_max = std::max(seen_max, code);
    }
  }
  const PackedBins packed = PackedBins::pack(binned);
  ASSERT_FALSE(packed.empty());
  ASSERT_EQ(packed.n_rows(), n_rows);
  ASSERT_EQ(packed.n_features(), n_features);
  // Width-minimal: uint8 exactly when every code fits in a byte.
  EXPECT_EQ(packed.wide(), seen_max > 255) << "max code " << seen_max;
  EXPECT_EQ(packed.bytes(),
            n_rows * n_features * (packed.wide() ? sizeof(std::uint16_t)
                                                 : sizeof(std::uint8_t)));
  // Lossless: every (row, feature) code survives the transpose, via both
  // the checked accessor and the raw plane the kernels read.
  for (std::size_t r = 0; r < n_rows; ++r) {
    for (std::size_t f = 0; f < n_features; ++f) {
      ASSERT_EQ(packed.bin(r, f), binned.bin(r, f))
          << "row " << r << " feature " << f;
      const std::size_t at = r * n_features + f;
      const std::uint16_t raw =
          packed.wide() ? packed.codes16()[at]
                        : static_cast<std::uint16_t>(packed.codes8()[at]);
      ASSERT_EQ(raw, binned.bin(r, f)) << "row " << r << " feature " << f;
    }
  }
}

FLAML_PROP(PackedBinsProp, MapperEncodePacksToMapperWidth, 8) {
  // Through the real pipeline: fit a mapper at a random max_bin (including
  // the 256 boundary), encode, pack — the packed width must follow the
  // actual maximum code, which the mapper caps at max_bin (value bins +
  // missing bin - 1).
  SyntheticSpec spec;
  spec.task = Task::Regression;
  spec.n_rows = 64 + prop.rng.uniform_index(400);
  spec.n_features = 2 + static_cast<int>(prop.rng.uniform_index(6));
  spec.missing_fraction = prop.rng.uniform(0.0, 0.3);
  spec.seed = prop.rng.next();
  const Dataset data = make_regression(spec);
  const int max_bin =
      prop.rng.bernoulli(0.4) ? 256
                              : 2 + static_cast<int>(prop.rng.uniform_index(500));
  const BinMapper mapper = BinMapper::fit(DataView(data), max_bin);
  const BinnedMatrix binned = mapper.encode(DataView(data));
  const PackedBins packed = PackedBins::pack(binned);
  std::uint16_t seen_max = 0;
  for (std::size_t f = 0; f < binned.n_features(); ++f) {
    for (std::uint16_t code : binned.feature(f)) {
      seen_max = std::max(seen_max, code);
    }
  }
  EXPECT_EQ(packed.wide(), seen_max > 255);
  for (std::size_t r = 0; r < binned.n_rows(); ++r) {
    for (std::size_t f = 0; f < binned.n_features(); ++f) {
      ASSERT_EQ(packed.bin(r, f), binned.bin(r, f));
    }
  }
}

TEST(PackedBinsProp, EmptyMatrixPacksEmpty) {
  const PackedBins packed = PackedBins::pack(BinnedMatrix());
  EXPECT_TRUE(packed.empty());
  EXPECT_EQ(packed.bytes(), 0u);
}

}  // namespace
}  // namespace flaml
