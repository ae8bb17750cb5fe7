// Histogram construction for the tree growers, extracted so that the two
// layouts — the gradient-pair layout of grower.cpp and the per-class slice
// layout of class_grower.cpp — share one implementation and can be tested
// in isolation.
//
// Layouts, with offsets[f] = first bin slot of feature f:
//   * gradient: hist[offsets[f] + bin] is a (g, h, n) triple;
//   * class:    hist[(offsets[f] + bin) * k + c] is the weighted count of
//               class c in bin `bin` of feature f.
//
// Every build runs on the calling thread and accumulates each feature's
// rows in buffer order, so results are deterministic. Subtraction is
// element-wise and deterministic by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "tree/binning.h"
#include "tree/packed_bins.h"

namespace flaml {

struct HistEntry {
  double g = 0.0;
  double h = 0.0;
  std::uint32_t n = 0;
};

// The two packed kernel tables. Both run the same adds in the same order
// over PackedBins (see hist_kernels.h), so they are bit-identical:
//   * Portable — packed row-major tiles, plain C++ accumulators; the only
//                table on targets without SSE2.
//   * Sse2     — the same tiles with a paired 128-bit (g, h) add; compiled
//                wherever the compiler targets SSE2 (baseline on x86-64).
// Every grower uses best_hist_kernel(), which is fixed when the library is
// compiled. The explicit `kernel` parameters below exist so the
// differential tests and the kernel benchmark can run both tables; the
// column-walk reference they are checked against lives in
// tests/support/scalar_histogram.h.
enum class HistKernel { Portable, Sse2 };

const char* hist_kernel_name(HistKernel k);
// Sse2 where the compiler targets it, Portable elsewhere.
HistKernel best_hist_kernel();

// Per-feature start slots: offsets[f] sums n_bins() of features before f;
// offsets.back() is the total bin count.
std::vector<std::size_t> histogram_offsets(const BinMapper& mapper);

// Accumulate (grad, hess, count) per bin for `features` over the rows
// rows[0..count). hist is resized and zeroed. grad/hess are indexed by row
// position (the values stored in `rows`), not by rows' index. `unit_hess`
// asserts that hess[pos] == 1.0 for every addressed row (the caller checks
// once per tree); the kernel then drops the per-row count update and
// derives n from the h sums — exact, since they are integer-valued doubles.
void build_gradient_histogram_packed(
    const PackedBins& packed, const std::vector<std::size_t>& offsets,
    const std::vector<int>& features, const std::uint32_t* rows,
    std::size_t count, const std::vector<double>& grad,
    const std::vector<double>& hess, bool unit_hess,
    std::vector<HistEntry>& hist, HistKernel kernel = best_hist_kernel());

// parent -= child in place (the larger sibling inherits the parent buffer).
void subtract_gradient_histogram_inplace(std::vector<HistEntry>& parent,
                                         const std::vector<HistEntry>& child);

// Weighted class-count histogram over ALL features (class trees do
// per-split feature sampling instead of per-tree). Empty weights = 1.0 per
// row. hist is resized and zeroed to offsets.back() * n_classes.
void build_class_histogram_packed(const PackedBins& packed,
                                  const std::vector<std::size_t>& offsets,
                                  int n_classes, const std::uint32_t* rows,
                                  std::size_t count,
                                  const std::vector<int>& labels,
                                  const std::vector<double>& weights,
                                  std::vector<double>& hist,
                                  HistKernel kernel = best_hist_kernel());

// Remove the rows' mass from an inherited parent histogram in place — the
// class-layout analogue of subtract: afterwards hist equals a direct build
// over the remaining sibling rows (up to float summation order). Accumulates
// -w, which IEEE-754 guarantees equals `-= w` bit for bit.
void remove_rows_from_class_histogram_packed(
    const PackedBins& packed, const std::vector<std::size_t>& offsets,
    int n_classes, const std::uint32_t* rows, std::size_t count,
    const std::vector<int>& labels, const std::vector<double>& weights,
    std::vector<double>& hist, HistKernel kernel = best_hist_kernel());

// One feature's slice in compact scratch layout [bin * k + c]: the
// small-leaf path that retains no histogram rebuilds exactly this on
// demand. out is resized/zeroed to n_bins * n_classes. The row-major layout
// helps here: the compact small-leaf scan calls this per candidate feature
// over the SAME small row set, so the rows' packed lines stay hot across
// features.
void fill_feature_class_counts_packed(const PackedBins& packed, int feature,
                                      int n_bins, int n_classes,
                                      const std::uint32_t* rows,
                                      std::size_t count,
                                      const std::vector<int>& labels,
                                      const std::vector<double>& weights,
                                      std::vector<double>& out,
                                      HistKernel kernel = best_hist_kernel());

}  // namespace flaml
