#include "tree/class_grower.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "tree/histogram.h"

namespace flaml {

namespace {

// Impurity of a class-count vector with total n (> 0), scaled by n so that
// gain = imp(parent) - imp(left) - imp(right) is count-weighted.
double weighted_impurity(const std::vector<double>& counts, double n,
                         SplitCriterion criterion) {
  if (n <= 0.0) return 0.0;
  if (criterion == SplitCriterion::Gini) {
    double sum_sq = 0.0;
    for (double c : counts) sum_sq += c * c;
    return n - sum_sq / n;  // n * (1 - sum p^2)
  }
  double ent = 0.0;
  for (double c : counts) {
    if (c > 0.0) ent -= c * std::log(c / n);
  }
  return ent;  // n * entropy (nats)
}

struct ClassSplit {
  double gain = -1.0;
  int feature = -1;
  int bin = -1;
  bool categorical = false;
  bool missing_left = false;
  bool missing_only = false;
  bool valid() const { return feature >= 0; }
};

struct ClassLeaf {
  std::int32_t node = 0;
  std::size_t begin = 0;
  std::size_t count = 0;
  int depth = 1;
  std::vector<double> class_counts;           // size n_classes
  std::vector<double> hist;                   // [bin_offset*K + class]
  ClassSplit best;
};

class ClassGrowContext {
 public:
  ClassGrowContext(const BinnedSubstrate& substrate, int n_classes,
                   const std::vector<std::uint32_t>& rows, const std::vector<int>& labels,
                   const std::vector<double>& weights, const ClassGrowerParams& params,
                   Rng& rng)
      : mapper_(substrate.mapper),
        binned_(substrate.binned),
        packed_(substrate.packed),
        k_(n_classes),
        labels_(labels),
        weights_(weights),
        params_(params),
        rng_(rng),
        buffer_(rows),
        offsets_(histogram_offsets(mapper_)) {
    all_features_.resize(mapper_.n_features());
    for (std::size_t f = 0; f < mapper_.n_features(); ++f) {
      all_features_[f] = static_cast<int>(f);
    }
  }

  Tree run() {
    Tree tree;
    std::vector<ClassLeaf> leaves;
    ClassLeaf root;
    root.node = 0;
    root.begin = 0;
    root.count = buffer_.size();
    root.class_counts = count_classes(root);
    if (root.count > kCompactThreshold) build_hist(root);
    root.best = find_best_split(root);
    leaves.push_back(std::move(root));

    int n_leaves = 1;
    while (params_.max_leaves <= 0 || n_leaves < params_.max_leaves) {
      int pick = -1;
      for (std::size_t i = 0; i < leaves.size(); ++i) {
        if (!leaves[i].best.valid()) continue;
        if (params_.max_depth > 0 && leaves[i].depth >= params_.max_depth) continue;
        if (pick < 0 ||
            leaves[i].best.gain > leaves[static_cast<std::size_t>(pick)].best.gain) {
          pick = static_cast<int>(i);
        }
      }
      if (pick < 0) break;

      ClassLeaf leaf = std::move(leaves[static_cast<std::size_t>(pick)]);
      leaves.erase(leaves.begin() + pick);
      std::size_t left_count = partition(leaf, leaf.best);
      FLAML_CHECK(left_count > 0 && left_count < leaf.count);

      apply_split(tree, leaf.node, leaf.best);
      auto [left_id, right_id] = tree.split_leaf(leaf.node);

      ClassLeaf left, right;
      left.node = left_id;
      left.begin = leaf.begin;
      left.count = left_count;
      left.depth = leaf.depth + 1;
      right.node = right_id;
      right.begin = leaf.begin + left_count;
      right.count = leaf.count - left_count;
      right.depth = leaf.depth + 1;
      left.class_counts = count_classes(left);
      right.class_counts.resize(static_cast<std::size_t>(k_));
      for (int c = 0; c < k_; ++c) {
        right.class_counts[static_cast<std::size_t>(c)] =
            leaf.class_counts[static_cast<std::size_t>(c)] -
            left.class_counts[static_cast<std::size_t>(c)];
      }
      // The larger child inherits the parent's histogram buffer and removes
      // the smaller child's rows in place — O(small × features) with no
      // allocation. The smaller child gets a histogram only when it is big
      // enough to warrant one; small leaves use the compact gathered scan
      // in find_best_split (deep forests would otherwise spend all their
      // time allocating and scanning mostly-empty bins×classes arrays).
      ClassLeaf& small_child = left.count <= right.count ? left : right;
      ClassLeaf& large_child = left.count <= right.count ? right : left;
      if (leaf.count > kCompactThreshold) {
        large_child.hist = std::move(leaf.hist);
        remove_rows_from_hist(small_child, large_child.hist);
        if (large_child.count <= kCompactThreshold) {
          large_child.hist.clear();  // compact scan is cheaper
          large_child.hist.shrink_to_fit();
        }
      }
      if (small_child.count > kCompactThreshold) build_hist(small_child);
      left.best = find_best_split(left);
      right.best = find_best_split(right);
      leaves.push_back(std::move(left));
      leaves.push_back(std::move(right));
      ++n_leaves;
    }

    auto& dists = tree.leaf_distributions();
    dists.assign(tree.n_nodes(), {});
    for (const auto& leaf : leaves) {
      std::vector<double> dist(leaf.class_counts);
      double total = 0.0;
      for (double c : leaf.class_counts) total += c;
      if (total <= 0.0) total = 1.0;
      for (double& d : dist) d /= total;
      dists[static_cast<std::size_t>(leaf.node)] = std::move(dist);
      // Also store the majority-class probability-weighted value for scalar
      // use (e.g. binary P(class 1)).
      if (k_ == 2) {
        tree.node(static_cast<std::size_t>(leaf.node)).leaf_value =
            leaf.class_counts[1] / total;
      }
    }
    return tree;
  }

 private:
  // Leaves at or below this row count skip per-leaf histograms and use the
  // per-feature scratch accumulation in find_best_split instead.
  static constexpr std::size_t kCompactThreshold = 256;

  double row_weight(std::uint32_t pos) const {
    return weights_.empty() ? 1.0 : weights_[pos];
  }

  // Remove a child's rows from an inherited parent histogram (in place).
  void remove_rows_from_hist(const ClassLeaf& child, std::vector<double>& hist) const {
    remove_rows_from_class_histogram_packed(packed_, offsets_, k_,
                                            buffer_.data() + child.begin,
                                            child.count, labels_, weights_, hist);
  }

  std::vector<double> count_classes(const ClassLeaf& leaf) const {
    std::vector<double> counts(static_cast<std::size_t>(k_), 0.0);
    for (std::size_t i = leaf.begin; i < leaf.begin + leaf.count; ++i) {
      counts[static_cast<std::size_t>(labels_[buffer_[i]])] += row_weight(buffer_[i]);
    }
    return counts;
  }

  void build_hist(ClassLeaf& leaf) const {
    build_class_histogram_packed(packed_, offsets_, k_,
                                 buffer_.data() + leaf.begin, leaf.count,
                                 labels_, weights_, leaf.hist);
  }

  std::vector<int> sampled_features() {
    if (params_.max_features >= 1.0) return all_features_;
    std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(params_.max_features *
                                                static_cast<double>(all_features_.size()))));
    std::vector<int> sampled = all_features_;
    for (std::size_t i = 0; i < k; ++i) {
      std::size_t j = i + rng_.uniform_index(sampled.size() - i);
      std::swap(sampled[i], sampled[j]);
    }
    sampled.resize(k);
    return sampled;
  }

  // Best split of a single feature. `random_bin` carries the extra-trees
  // threshold (-1 = feature skipped / not extra-random).
  ClassSplit eval_feature_split(const ClassLeaf& leaf, int f, int random_bin,
                                double parent_imp) {
    ClassSplit best;
    const std::size_t k = static_cast<std::size_t>(k_);
    left_counts_.assign(k, 0.0);
    right_counts_.assign(k, 0.0);
    std::vector<double>& left_counts = left_counts_;
    std::vector<double>& right_counts = right_counts_;

    auto consider = [&](int bin, bool categorical, bool missing_left,
                        bool missing_only) {
      double nl = 0.0, nr = 0.0;
      for (int c = 0; c < k_; ++c) {
        nl += left_counts[static_cast<std::size_t>(c)];
        nr += right_counts[static_cast<std::size_t>(c)];
      }
      if (nl < params_.min_samples_leaf || nr < params_.min_samples_leaf) return;
      double gain = parent_imp -
                    weighted_impurity(left_counts, nl, params_.criterion) -
                    weighted_impurity(right_counts, nr, params_.criterion);
      if (gain > best.gain && gain > params_.min_gain) {
        best = {gain, f, bin, categorical, missing_left, missing_only};
      }
    };

    const FeatureBins& fb = mapper_.feature(static_cast<std::size_t>(f));
    const double* hist;
    if (leaf.hist.empty()) {
      fill_feature_class_counts_packed(packed_, f, fb.n_bins(), k_,
                                       buffer_.data() + leaf.begin, leaf.count,
                                       labels_, weights_, compact_counts_);
      hist = compact_counts_.data();
    } else {
      hist = leaf.hist.data() + offsets_[static_cast<std::size_t>(f)] * k;
    }
    auto bin_counts = [&](int b, int c) {
      return hist[static_cast<std::size_t>(b) * k + static_cast<std::size_t>(c)];
    };
    const int miss_bin = fb.missing_bin();

    if (fb.type == ColumnType::Categorical) {
      for (int b = 0; b < fb.n_value_bins; ++b) {
        double n_b = 0.0;
        for (int c = 0; c < k_; ++c) n_b += bin_counts(b, c);
        if (n_b == 0.0) continue;
        for (int c = 0; c < k_; ++c) {
          left_counts[static_cast<std::size_t>(c)] = bin_counts(b, c);
          right_counts[static_cast<std::size_t>(c)] =
              leaf.class_counts[static_cast<std::size_t>(c)] - bin_counts(b, c);
        }
        consider(b, true, false, false);
      }
      return best;
    }

    if (params_.extra_random) {
      // One pre-drawn random threshold; < 0 means the feature had fewer than
      // two value bins and contributes no candidate.
      if (random_bin < 0) return best;
      for (int bb = 0; bb <= random_bin; ++bb) {
        for (int c = 0; c < k_; ++c) {
          left_counts[static_cast<std::size_t>(c)] += bin_counts(bb, c);
        }
      }
      for (int c = 0; c < k_; ++c) {
        right_counts[static_cast<std::size_t>(c)] =
            leaf.class_counts[static_cast<std::size_t>(c)] -
            left_counts[static_cast<std::size_t>(c)];
      }
      consider(random_bin, false, false, false);
      return best;
    }

    // Full scan; missing goes right (missing-left variant adds little for
    // forests and doubles the scan cost).
    for (int b = 0; b + 1 < fb.n_value_bins; ++b) {
      for (int c = 0; c < k_; ++c) {
        left_counts[static_cast<std::size_t>(c)] += bin_counts(b, c);
      }
      for (int c = 0; c < k_; ++c) {
        right_counts[static_cast<std::size_t>(c)] =
            leaf.class_counts[static_cast<std::size_t>(c)] -
            left_counts[static_cast<std::size_t>(c)];
      }
      consider(b, false, false, false);
    }
    // Missing-vs-known split when missing has mass.
    double n_miss = 0.0;
    for (int c = 0; c < k_; ++c) n_miss += bin_counts(miss_bin, c);
    if (n_miss > 0.0) {
      for (int c = 0; c < k_; ++c) {
        right_counts[static_cast<std::size_t>(c)] = bin_counts(miss_bin, c);
        left_counts[static_cast<std::size_t>(c)] =
            leaf.class_counts[static_cast<std::size_t>(c)] -
            right_counts[static_cast<std::size_t>(c)];
      }
      consider(-1, false, false, true);
    }
    return best;
  }

  ClassSplit find_best_split(ClassLeaf& leaf) {
    ClassSplit best;
    if (leaf.count < 2 * static_cast<std::size_t>(params_.min_samples_leaf)) return best;
    // The impurity total is the WEIGHTED class mass, not the row count.
    double parent_total = 0.0;
    for (double c : leaf.class_counts) parent_total += c;
    const double parent_imp =
        weighted_impurity(leaf.class_counts, parent_total, params_.criterion);
    if (parent_imp <= params_.min_gain) return best;  // pure leaf

    // Extra-trees thresholds come from the shared rng, drawn in feature
    // order (evaluation itself draws nothing). Strict `>` keeps the
    // lowest-feature-index winner on ties.
    for (int f : sampled_features()) {
      int random_bin = -1;
      const FeatureBins& fb = mapper_.feature(static_cast<std::size_t>(f));
      if (params_.extra_random && fb.type != ColumnType::Categorical &&
          fb.n_value_bins >= 2) {
        random_bin = static_cast<int>(
            rng_.uniform_index(static_cast<std::uint64_t>(fb.n_value_bins - 1)));
      }
      ClassSplit cand = eval_feature_split(leaf, f, random_bin, parent_imp);
      if (cand.valid() && cand.gain > best.gain) best = cand;
    }
    return best;
  }

  std::size_t partition(const ClassLeaf& leaf, const ClassSplit& split) {
    const auto& col = binned_.feature(static_cast<std::size_t>(split.feature));
    const FeatureBins& fb = mapper_.feature(static_cast<std::size_t>(split.feature));
    const int missing_bin = fb.missing_bin();
    auto goes_left = [&](std::uint32_t pos) {
      int b = col[pos];
      if (split.missing_only) return b != missing_bin;
      if (b == missing_bin) return split.missing_left;
      if (split.categorical) return b == split.bin;
      return b <= split.bin;
    };
    scratch_.clear();
    std::size_t write = leaf.begin;
    for (std::size_t i = leaf.begin; i < leaf.begin + leaf.count; ++i) {
      if (goes_left(buffer_[i])) {
        buffer_[write++] = buffer_[i];
      } else {
        scratch_.push_back(buffer_[i]);
      }
    }
    std::copy(scratch_.begin(), scratch_.end(),
              buffer_.begin() + static_cast<std::ptrdiff_t>(write));
    return write - leaf.begin;
  }

  void apply_split(Tree& tree, std::int32_t node, const ClassSplit& split) const {
    TreeNode& n = tree.node(static_cast<std::size_t>(node));
    n.feature = split.feature;
    n.split_gain = std::max(split.gain, 0.0);
    const FeatureBins& fb = mapper_.feature(static_cast<std::size_t>(split.feature));
    if (split.missing_only) {
      n.categorical = false;
      n.threshold = std::numeric_limits<float>::infinity();
      n.missing_left = false;
    } else if (split.categorical) {
      n.categorical = true;
      n.category = split.bin;
      n.missing_left = false;
    } else {
      n.categorical = false;
      n.threshold = fb.threshold_for(split.bin);
      n.missing_left = split.missing_left;
    }
  }

  const BinMapper& mapper_;
  const BinnedMatrix& binned_;  // column codes, for partitioning
  const PackedBins& packed_;    // row-major codes, for histograms
  int k_;
  const std::vector<int>& labels_;
  const std::vector<double>& weights_;
  const ClassGrowerParams& params_;
  Rng& rng_;
  std::vector<std::uint32_t> buffer_;
  std::vector<std::uint32_t> scratch_;
  std::vector<std::size_t> offsets_;
  std::vector<int> all_features_;
  // eval_feature_split scratch, reused across features.
  std::vector<double> left_counts_;
  std::vector<double> right_counts_;
  std::vector<double> compact_counts_;  // gathered [bin*k+class] for small leaves
};

}  // namespace

ClassTreeGrower::ClassTreeGrower(const BinnedSubstrate& substrate, int n_classes)
    : substrate_(&substrate), n_classes_(n_classes) {
  FLAML_REQUIRE(n_classes >= 2, "classification tree needs >= 2 classes");
}

Tree ClassTreeGrower::grow(const std::vector<std::uint32_t>& rows,
                           const std::vector<int>& labels,
                           const ClassGrowerParams& params, Rng& rng) const {
  static const std::vector<double> kNoWeights;
  return grow(rows, labels, kNoWeights, params, rng);
}

Tree ClassTreeGrower::grow(const std::vector<std::uint32_t>& rows,
                           const std::vector<int>& labels,
                           const std::vector<double>& weights,
                           const ClassGrowerParams& params, Rng& rng) const {
  FLAML_REQUIRE(!rows.empty(), "cannot grow a tree on zero rows");
  const std::size_t n_rows = substrate_->binned.n_rows();
  FLAML_REQUIRE(labels.size() == n_rows, "labels must cover all binned rows");
  FLAML_REQUIRE(weights.empty() || weights.size() == n_rows,
                "weights must cover all binned rows");
  ClassGrowContext ctx(*substrate_, n_classes_, rows, labels, weights, params,
                       rng);
  return ctx.run();
}

}  // namespace flaml
