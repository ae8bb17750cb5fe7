// Impurity-based classification tree growing (random forest / extra trees).
//
// Splits maximize count-weighted impurity decrease under gini or entropy
// (Table 5's `split criterion` hyperparameter). Leaves store the class
// distribution of their training rows (Tree::leaf_distributions). Extra
// trees mode evaluates one random threshold per candidate feature instead
// of scanning all thresholds.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tree/binning.h"
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
  // `substrate` describes the training rows, as for GradientTreeGrower:
  // packed codes for the histograms, column codes for partitioning. It must
  // outlive the grower. grow() is const, so forests grow trees concurrently
  // from one grower.
  ClassTreeGrower(const BinnedSubstrate& substrate, int n_classes);

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
  const BinnedSubstrate* substrate_;
  int n_classes_;
};

}  // namespace flaml
