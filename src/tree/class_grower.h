// Impurity-based classification tree growing (random forest / extra trees).
//
// Splits maximize count-weighted impurity decrease under gini or entropy
// (Table 5's `split criterion` hyperparameter). Leaves store the class
// distribution of their training rows (Tree::leaf_distributions). Extra
// trees mode evaluates one random threshold per candidate feature instead
// of scanning all thresholds.
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

enum class SplitCriterion { Gini, Entropy };

struct ClassGrowerParams {
  int max_leaves = 512;
  int max_depth = 0;  // 0 = unlimited
  int min_samples_leaf = 1;
  double min_gain = 1e-12;
  // Fraction of features considered per split (RF's max_features).
  double max_features = 1.0;
  SplitCriterion criterion = SplitCriterion::Gini;
  // Extra-trees randomization: a single random cut per candidate feature.
  bool extra_random = false;
};

class ClassTreeGrower {
 public:
  // `packed` optionally shares a pre-built row-major layout of the SAME
  // matrix; when null and the active histogram kernel is not Scalar, the
  // grower packs `binned` itself once on first use (thread-safe — forests
  // grow trees concurrently from one grower).
  ClassTreeGrower(const BinMapper& mapper, const BinnedMatrix& binned,
                  int n_classes, const PackedBins* packed = nullptr);

  // Grow one tree on `rows` (positions into the binned matrix);
  // `labels[pos]` is the class id of position pos.
  Tree grow(const std::vector<std::uint32_t>& rows, const std::vector<int>& labels,
            const ClassGrowerParams& params, Rng& rng) const;

  // Weighted variant: `weights[pos]` scales each row's contribution to the
  // class counts (empty = unweighted).
  Tree grow(const std::vector<std::uint32_t>& rows, const std::vector<int>& labels,
            const std::vector<double>& weights, const ClassGrowerParams& params,
            Rng& rng) const;

 private:
  const PackedBins* packed_or_build() const;

  const BinMapper* mapper_;
  const BinnedMatrix* binned_;
  int n_classes_;
  const PackedBins* packed_;
  mutable std::once_flag pack_once_;
  mutable std::unique_ptr<PackedBins> owned_packed_;
};

}  // namespace flaml
