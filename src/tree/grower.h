// Histogram-based gradient tree growing.
//
// Implements the second-order split objective of modern GBDT systems:
//   score(G, H) = T(G)^2 / (H + lambda),  T(G) = sign(G)·max(|G|−alpha, 0)
//   gain = score(G_L,H_L) + score(G_R,H_R) − score(G_P,H_P)
//   leaf value w = −T(G) / (H + lambda)
// Two growth policies: LeafWise (best-first, LightGBM/XGBoost-hist style,
// bounded by max_leaves) and Oblivious (CatBoost style: one shared split per
// level, bounded by oblivious_depth). Missing values get their own bin and
// the split direction for them is chosen by gain. Categorical features use
// one-vs-rest equality splits.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "tree/binning.h"
#include "tree/packed_bins.h"
#include "tree/tree.h"

namespace flaml {

enum class TreeStyle { LeafWise, Oblivious };

struct GrowerParams {
  int max_leaves = 31;
  int max_depth = 0;  // 0 = unlimited (LeafWise only)
  double min_child_weight = 1e-3;
  int min_samples_leaf = 1;
  double reg_alpha = 0.0;
  double reg_lambda = 1.0;
  double min_gain = 1e-12;
  // Fraction of candidate features re-sampled at every split search.
  double colsample_bylevel = 1.0;
  TreeStyle style = TreeStyle::LeafWise;
  int oblivious_depth = 6;
};

class GradientTreeGrower {
 public:
  // `mapper`/`binned` describe the training rows (binned once per training
  // run); `view` is the matching raw view used only to fetch raw thresholds.
  // `packed` optionally shares a pre-built row-major layout of the SAME
  // matrix (e.g. from a cached BinnedSubstrate); when null and the active
  // histogram kernel is not Scalar, the grower packs `binned` itself, once,
  // on first use (thread-safe — forests grow trees concurrently from one
  // grower).
  GradientTreeGrower(const BinMapper& mapper, const BinnedMatrix& binned,
                     const PackedBins* packed = nullptr);

  // Grow one tree on `rows` (positions into the binned matrix) with
  // per-position gradients/hessians (indexed by position, not by row id).
  // `features` is the per-tree candidate feature subset.
  Tree grow(const std::vector<std::uint32_t>& rows, const std::vector<double>& grad,
            const std::vector<double>& hess, const std::vector<int>& features,
            const GrowerParams& params, Rng& rng) const;

 private:
  const PackedBins* packed_or_build() const;

  const BinMapper* mapper_;
  const BinnedMatrix* binned_;
  const PackedBins* packed_;
  mutable std::once_flag pack_once_;
  mutable std::unique_ptr<PackedBins> owned_packed_;
};

}  // namespace flaml
