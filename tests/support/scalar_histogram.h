// Column-walk histogram builds: the differential oracle for the packed
// kernels in src/tree/histogram.h. Each loop walks one feature's uint16
// column of a BinnedMatrix and accumulates rows in buffer order — the plain
// reading of the histogram layouts documented in histogram.h. The packed
// kernels run the same IEEE adds in the same per-accumulator order, so the
// differential suite (tests/test_histogram_kernels.cpp) holds them to this
// oracle at 0 ulp; bench_tree_parallel times them against it.
//
// Header-only and test/bench-only: no grower reaches these loops. The two
// builds bench_tree_parallel times are kept out of line: inlined into its
// timing loop, the gradient build runs ~20% slower than as a call, which
// would inflate the packed kernels' measured speedup.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tree/binning.h"
#include "tree/histogram.h"

namespace flaml::testing {

// Gradient layout over `features`; hist is resized and zeroed.
[[gnu::noinline]] inline void build_gradient_histogram(
    const BinnedMatrix& binned, const std::vector<std::size_t>& offsets,
    const std::vector<int>& features, const std::uint32_t* rows,
    std::size_t count, const std::vector<double>& grad,
    const std::vector<double>& hess, std::vector<HistEntry>& hist) {
  hist.assign(offsets.back(), HistEntry{});
  for (int f : features) {
    const auto& col = binned.feature(static_cast<std::size_t>(f));
    HistEntry* base = hist.data() + offsets[static_cast<std::size_t>(f)];
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t pos = rows[i];
      HistEntry& e = base[col[pos]];
      e.g += grad[pos];
      e.h += hess[pos];
      e.n += 1;
    }
  }
}

// Class layout over every feature; hist is resized and zeroed to
// offsets.back() * n_classes. Empty weights = 1.0 per row.
[[gnu::noinline]] inline void build_class_histogram(
    const BinnedMatrix& binned, const std::vector<std::size_t>& offsets,
    int n_classes, const std::uint32_t* rows, std::size_t count,
    const std::vector<int>& labels, const std::vector<double>& weights,
    std::vector<double>& hist) {
  const std::size_t k = static_cast<std::size_t>(n_classes);
  hist.assign(offsets.back() * k, 0.0);
  for (std::size_t f = 0; f < binned.n_features(); ++f) {
    const auto& col = binned.feature(f);
    double* base = hist.data() + offsets[f] * k;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t pos = rows[i];
      base[static_cast<std::size_t>(col[pos]) * k +
           static_cast<std::size_t>(labels[pos])] +=
          weights.empty() ? 1.0 : weights[pos];
    }
  }
}

// Subtract the rows' class mass from `hist` in place.
inline void remove_rows_from_class_histogram(
    const BinnedMatrix& binned, const std::vector<std::size_t>& offsets,
    int n_classes, const std::uint32_t* rows, std::size_t count,
    const std::vector<int>& labels, const std::vector<double>& weights,
    std::vector<double>& hist) {
  const std::size_t k = static_cast<std::size_t>(n_classes);
  for (std::size_t f = 0; f < binned.n_features(); ++f) {
    const auto& col = binned.feature(f);
    double* base = hist.data() + offsets[f] * k;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t pos = rows[i];
      base[static_cast<std::size_t>(col[pos]) * k +
           static_cast<std::size_t>(labels[pos])] -=
          weights.empty() ? 1.0 : weights[pos];
    }
  }
}

// One feature's compact [bin * k + c] slice; out is resized (if smaller)
// and its first n_bins * n_classes cells zeroed.
inline void fill_feature_class_counts(const std::vector<std::uint16_t>& col,
                                      int n_bins, int n_classes,
                                      const std::uint32_t* rows,
                                      std::size_t count,
                                      const std::vector<int>& labels,
                                      const std::vector<double>& weights,
                                      std::vector<double>& out) {
  const std::size_t k = static_cast<std::size_t>(n_classes);
  const std::size_t cells = static_cast<std::size_t>(n_bins) * k;
  if (out.size() < cells) out.resize(cells);
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(cells), 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t pos = rows[i];
    out[static_cast<std::size_t>(col[pos]) * k +
        static_cast<std::size_t>(labels[pos])] +=
        weights.empty() ? 1.0 : weights[pos];
  }
}

}  // namespace flaml::testing
