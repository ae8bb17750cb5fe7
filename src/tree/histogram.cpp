#include "tree/histogram.h"

#include <algorithm>

#include "common/error.h"
#include "tree/hist_kernels.h"

namespace flaml {

namespace {

const histdetail::KernelFns& fns_for(HistKernel k) {
  const histdetail::KernelFns* fns = k == HistKernel::Sse2
                                         ? histdetail::sse2_fns()
                                         : histdetail::portable_fns();
  FLAML_REQUIRE(fns != nullptr, "histogram kernel '" << hist_kernel_name(k)
                                    << "' is not compiled into this build");
  return *fns;
}

// rows == [0, count) exactly — the root build. Detected per call: the scan
// is one compare per row vs n_features accumulates per row for the build,
// and non-root leaves bail out on the first mismatch.
bool rows_are_iota(const std::uint32_t* rows, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (rows[i] != static_cast<std::uint32_t>(i)) return false;
  }
  return true;
}

}  // namespace

const char* hist_kernel_name(HistKernel k) {
  switch (k) {
    case HistKernel::Portable:
      return "portable";
    case HistKernel::Sse2:
      return "sse2";
  }
  return "unknown";
}

HistKernel best_hist_kernel() {
  return histdetail::sse2_fns() != nullptr ? HistKernel::Sse2
                                           : HistKernel::Portable;
}

std::vector<std::size_t> histogram_offsets(const BinMapper& mapper) {
  std::vector<std::size_t> offsets(mapper.n_features() + 1, 0);
  for (std::size_t f = 0; f < mapper.n_features(); ++f) {
    offsets[f + 1] = offsets[f] + static_cast<std::size_t>(mapper.feature(f).n_bins());
  }
  return offsets;
}

void build_gradient_histogram_packed(
    const PackedBins& packed, const std::vector<std::size_t>& offsets,
    const std::vector<int>& features, const std::uint32_t* rows,
    std::size_t count, const std::vector<double>& grad,
    const std::vector<double>& hess, bool unit_hess,
    std::vector<HistEntry>& hist, HistKernel kernel) {
  const histdetail::KernelFns& fns = fns_for(kernel);
  hist.assign(offsets.back(), HistEntry{});
  if (count == 0 || features.empty()) return;
  histdetail::GradCall call;
  call.offsets = offsets.data();
  call.features = features.data();
  call.n_sel = features.size();
  call.rows = rows;
  call.count = count;
  call.grad = grad.data();
  call.hess = hess.data();
  call.unit = unit_hess;
  call.iota = rows_are_iota(rows, count);
  call.hist = hist.data();
  if (packed.wide()) {
    fns.grad_u16(packed.codes16(), packed.n_features(), call);
  } else {
    fns.grad_u8(packed.codes8(), packed.n_features(), call);
  }
}

void subtract_gradient_histogram_inplace(std::vector<HistEntry>& parent,
                                         const std::vector<HistEntry>& child) {
  for (std::size_t i = 0; i < parent.size(); ++i) {
    parent[i].g -= child[i].g;
    parent[i].h -= child[i].h;
    parent[i].n -= child[i].n;
  }
}

namespace {

// Shared body of the packed class build/remove: identical except for the
// zeroing (build only) and the accumulation sign.
void run_class_kernel_packed(const PackedBins& packed,
                             const std::vector<std::size_t>& offsets,
                             int n_classes, const std::uint32_t* rows,
                             std::size_t count, const std::vector<int>& labels,
                             const std::vector<double>& weights, bool negate,
                             std::vector<double>& hist, HistKernel kernel) {
  const histdetail::KernelFns& fns = fns_for(kernel);
  if (count == 0) return;
  histdetail::ClassCall call;
  call.offsets = offsets.data();
  call.k = static_cast<std::size_t>(n_classes);
  call.rows = rows;
  call.count = count;
  call.labels = labels.data();
  call.weights = weights.empty() ? nullptr : weights.data();
  call.negate = negate;
  call.iota = rows_are_iota(rows, count);
  call.hist = hist.data();
  if (packed.wide()) {
    fns.cls_u16(packed.codes16(), packed.n_features(), call);
  } else {
    fns.cls_u8(packed.codes8(), packed.n_features(), call);
  }
}

}  // namespace

void build_class_histogram_packed(const PackedBins& packed,
                                  const std::vector<std::size_t>& offsets,
                                  int n_classes, const std::uint32_t* rows,
                                  std::size_t count,
                                  const std::vector<int>& labels,
                                  const std::vector<double>& weights,
                                  std::vector<double>& hist, HistKernel kernel) {
  hist.assign(offsets.back() * static_cast<std::size_t>(n_classes), 0.0);
  run_class_kernel_packed(packed, offsets, n_classes, rows, count, labels,
                          weights, /*negate=*/false, hist, kernel);
}

void remove_rows_from_class_histogram_packed(
    const PackedBins& packed, const std::vector<std::size_t>& offsets,
    int n_classes, const std::uint32_t* rows, std::size_t count,
    const std::vector<int>& labels, const std::vector<double>& weights,
    std::vector<double>& hist, HistKernel kernel) {
  run_class_kernel_packed(packed, offsets, n_classes, rows, count, labels,
                          weights, /*negate=*/true, hist, kernel);
}

void fill_feature_class_counts_packed(const PackedBins& packed, int feature,
                                      int n_bins, int n_classes,
                                      const std::uint32_t* rows,
                                      std::size_t count,
                                      const std::vector<int>& labels,
                                      const std::vector<double>& weights,
                                      std::vector<double>& out,
                                      HistKernel kernel) {
  const histdetail::KernelFns& fns = fns_for(kernel);
  const std::size_t k = static_cast<std::size_t>(n_classes);
  const std::size_t cells = static_cast<std::size_t>(n_bins) * k;
  if (out.size() < cells) out.resize(cells);
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(cells), 0.0);
  histdetail::FillCall call;
  call.feature = static_cast<std::size_t>(feature);
  call.k = k;
  call.rows = rows;
  call.count = count;
  call.labels = labels.data();
  call.weights = weights.empty() ? nullptr : weights.data();
  call.out = out.data();
  if (packed.wide()) {
    fns.fill_u16(packed.codes16(), packed.n_features(), call);
  } else {
    fns.fill_u8(packed.codes8(), packed.n_features(), call);
  }
}

}  // namespace flaml
