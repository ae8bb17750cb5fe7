#include "tree/grower.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "tree/histogram.h"

namespace flaml {

namespace {

double thresholded(double g, double alpha) {
  if (g > alpha) return g - alpha;
  if (g < -alpha) return g + alpha;
  return 0.0;
}

double leaf_score(double g, double h, const GrowerParams& p) {
  double t = thresholded(g, p.reg_alpha);
  return t * t / (h + p.reg_lambda);
}

double leaf_weight(double g, double h, const GrowerParams& p) {
  return -thresholded(g, p.reg_alpha) / (h + p.reg_lambda);
}

struct SplitInfo {
  double gain = -1.0;
  int feature = -1;
  int bin = -1;           // numeric: split "bin <= bin"; categorical: the code
  bool categorical = false;
  bool missing_left = false;
  bool missing_only = false;  // split non-missing (left) vs missing (right)
  bool valid() const { return feature >= 0; }
};

struct LeafState {
  std::int32_t node = 0;
  std::size_t begin = 0;   // segment [begin, begin+count) in the row buffer
  std::size_t count = 0;
  double g = 0.0;
  double h = 0.0;
  int depth = 1;
  std::vector<HistEntry> hist;  // flat, indexed by feature offset + bin
  SplitInfo best;
};

class GrowContext {
 public:
  GrowContext(const BinnedSubstrate& substrate,
              const std::vector<std::uint32_t>& rows, const std::vector<double>& grad,
              const std::vector<double>& hess, const std::vector<int>& features,
              const GrowerParams& params, Rng& rng)
      : mapper_(substrate.mapper),
        binned_(substrate.binned),
        packed_(substrate.packed),
        // hess ≡ 1.0 turns on the kernels' derived-count fast path (MSE
        // boosting and unweighted ensembles). One O(n_rows) scan per tree.
        unit_hess_(std::all_of(hess.begin(), hess.end(),
                               [](double v) { return v == 1.0; })),
        grad_(grad),
        hess_(hess),
        features_(features),
        params_(params),
        rng_(rng),
        buffer_(rows),
        offsets_(histogram_offsets(substrate.mapper)) {}

  std::size_t hist_size() const { return offsets_.back(); }

  void build_hist(const LeafState& leaf, std::vector<HistEntry>& hist) const {
    build_gradient_histogram_packed(packed_, offsets_, features_,
                                    buffer_.data() + leaf.begin, leaf.count,
                                    grad_, hess_, unit_hess_, hist);
  }

  // Candidate features for one split search (colsample_bylevel).
  std::vector<int> level_features() {
    if (params_.colsample_bylevel >= 1.0) return features_;
    std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(params_.colsample_bylevel *
                                                static_cast<double>(features_.size()))));
    std::vector<int> sampled = features_;
    // Partial Fisher–Yates for the first k elements.
    for (std::size_t i = 0; i < k; ++i) {
      std::size_t j = i + rng_.uniform_index(sampled.size() - i);
      std::swap(sampled[i], sampled[j]);
    }
    sampled.resize(k);
    return sampled;
  }

  // Evaluate the best split of one feature given the leaf histogram.
  void best_feature_split(const LeafState& leaf, int f, SplitInfo& best) const {
    const FeatureBins& fb = mapper_.feature(static_cast<std::size_t>(f));
    const HistEntry* hist = leaf.hist.data() + offsets_[static_cast<std::size_t>(f)];
    const double parent_score = leaf_score(leaf.g, leaf.h, params_);
    const HistEntry& miss = hist[fb.missing_bin()];

    auto consider = [&](double gl, double hl, std::uint32_t nl, double gr, double hr,
                        std::uint32_t nr, int bin, bool categorical, bool missing_left,
                        bool missing_only) {
      if (nl < static_cast<std::uint32_t>(params_.min_samples_leaf) ||
          nr < static_cast<std::uint32_t>(params_.min_samples_leaf)) {
        return;
      }
      if (hl < params_.min_child_weight || hr < params_.min_child_weight) return;
      double gain =
          leaf_score(gl, hl, params_) + leaf_score(gr, hr, params_) - parent_score;
      if (gain > best.gain) {
        best = {gain, f, bin, categorical, missing_left, missing_only};
      }
    };

    if (fb.type == ColumnType::Categorical) {
      // One-vs-rest: left = (code == c); missing always joins "rest".
      for (int c = 0; c < fb.n_value_bins; ++c) {
        const HistEntry& e = hist[c];
        if (e.n == 0) continue;
        consider(e.g, e.h, e.n, leaf.g - e.g, leaf.h - e.h,
                 static_cast<std::uint32_t>(leaf.count) - e.n, c,
                 /*categorical=*/true, /*missing_left=*/false, false);
      }
      return;
    }

    // Numeric: scan thresholds, try missing on each side.
    double gl = 0.0, hl = 0.0;
    std::uint32_t nl = 0;
    const double g_known = leaf.g - miss.g;
    const double h_known = leaf.h - miss.h;
    const std::uint32_t n_known = static_cast<std::uint32_t>(leaf.count) - miss.n;
    for (int b = 0; b + 1 < fb.n_value_bins; ++b) {
      gl += hist[b].g;
      hl += hist[b].h;
      nl += hist[b].n;
      if (nl == 0) continue;
      if (nl == n_known && miss.n == 0) break;
      // Missing right.
      consider(gl, hl, nl, leaf.g - gl, leaf.h - hl,
               static_cast<std::uint32_t>(leaf.count) - nl, b, false, false, false);
      if (miss.n > 0) {
        // Missing left.
        consider(gl + miss.g, hl + miss.h, nl + miss.n, g_known - gl, h_known - hl,
                 n_known - nl, b, false, true, false);
      }
    }
    if (miss.n > 0 && n_known > 0) {
      // Split known (left) vs missing (right).
      consider(g_known, h_known, n_known, miss.g, miss.h, miss.n, -1, false, false,
               true);
    }
  }

  SplitInfo find_best_split(const LeafState& leaf, const std::vector<int>& feats) const {
    // Strict `>` keeps the first (lowest feature index, lowest bin)
    // candidate on ties.
    SplitInfo best;
    for (int f : feats) best_feature_split(leaf, f, best);
    if (best.gain < params_.min_gain) best = SplitInfo{};
    return best;
  }

  // Partition the leaf's buffer segment by the split; returns count on left.
  std::size_t partition(const LeafState& leaf, const SplitInfo& split) {
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
    std::copy(scratch_.begin(), scratch_.end(), buffer_.begin() + static_cast<std::ptrdiff_t>(write));
    return write - leaf.begin;
  }

  double sum_g(const LeafState& leaf) const {
    double s = 0.0;
    for (std::size_t i = leaf.begin; i < leaf.begin + leaf.count; ++i) {
      s += grad_[buffer_[i]];
    }
    return s;
  }
  double sum_h(const LeafState& leaf) const {
    double s = 0.0;
    for (std::size_t i = leaf.begin; i < leaf.begin + leaf.count; ++i) {
      s += hess_[buffer_[i]];
    }
    return s;
  }

  // Fill the Tree node for a chosen split.
  void apply_split_to_node(Tree& tree, std::int32_t node, const SplitInfo& split) const {
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

  Tree grow_leaf_wise() {
    Tree tree;
    std::vector<LeafState> leaves;
    LeafState root;
    root.node = 0;
    root.begin = 0;
    root.count = buffer_.size();
    root.g = sum_g(root);
    root.h = sum_h(root);
    build_hist(root, root.hist);
    root.best = find_best_split(root, level_features());
    leaves.push_back(std::move(root));

    int n_leaves = 1;
    while (n_leaves < params_.max_leaves) {
      // Best-first: pick the splittable leaf with highest gain.
      int pick = -1;
      for (std::size_t i = 0; i < leaves.size(); ++i) {
        if (!leaves[i].best.valid()) continue;
        if (params_.max_depth > 0 && leaves[i].depth >= params_.max_depth) continue;
        if (pick < 0 || leaves[i].best.gain > leaves[static_cast<std::size_t>(pick)].best.gain) {
          pick = static_cast<int>(i);
        }
      }
      if (pick < 0) break;

      LeafState leaf = std::move(leaves[static_cast<std::size_t>(pick)]);
      leaves.erase(leaves.begin() + pick);
      std::size_t left_count = partition(leaf, leaf.best);
      FLAML_CHECK(left_count > 0 && left_count < leaf.count);

      apply_split_to_node(tree, leaf.node, leaf.best);
      auto [left_id, right_id] = tree.split_leaf(leaf.node);

      LeafState left, right;
      left.node = left_id;
      left.begin = leaf.begin;
      left.count = left_count;
      left.depth = leaf.depth + 1;
      right.node = right_id;
      right.begin = leaf.begin + left_count;
      right.count = leaf.count - left_count;
      right.depth = leaf.depth + 1;
      left.g = sum_g(left);
      left.h = sum_h(left);
      right.g = leaf.g - left.g;
      right.h = leaf.h - left.h;

      // Histogram subtraction: build the smaller child, derive the larger by
      // moving the parent's buffer and subtracting in place. When the parent
      // had no retained histogram (small leaf), build both children directly.
      if (leaf.hist.empty()) {
        build_hist(left, left.hist);
        build_hist(right, right.hist);
      } else if (left.count <= right.count) {
        build_hist(left, left.hist);
        right.hist = std::move(leaf.hist);
        subtract_gradient_histogram_inplace(right.hist, left.hist);
      } else {
        build_hist(right, right.hist);
        left.hist = std::move(leaf.hist);
        subtract_gradient_histogram_inplace(left.hist, right.hist);
      }

      left.best = find_best_split(left, level_features());
      right.best = find_best_split(right, level_features());
      // Bound retained histogram memory: a leaf that cannot split again, or
      // whose row count makes a rebuild trivial, does not keep its buffer
      // (huge-leaf-count configurations would otherwise hold hundreds of MB).
      auto maybe_drop_hist = [](LeafState& l) {
        if (!l.best.valid() || l.count <= 256) {
          l.hist.clear();
          l.hist.shrink_to_fit();
        }
      };
      maybe_drop_hist(left);
      maybe_drop_hist(right);
      leaves.push_back(std::move(left));
      leaves.push_back(std::move(right));
      ++n_leaves;
    }

    for (const auto& leaf : leaves) {
      tree.node(static_cast<std::size_t>(leaf.node)).leaf_value =
          leaf_weight(leaf.g, leaf.h, params_);
    }
    return tree;
  }

  Tree grow_oblivious() {
    Tree tree;
    std::vector<LeafState> level;
    LeafState root;
    root.node = 0;
    root.begin = 0;
    root.count = buffer_.size();
    root.g = sum_g(root);
    root.h = sum_h(root);
    build_hist(root, root.hist);
    level.push_back(std::move(root));

    for (int d = 0; d < params_.oblivious_depth; ++d) {
      // One shared split for the whole level: maximize the summed gain.
      // Candidates are scanned feature by feature, bin ascending, with a
      // strict `>`, so ties keep the earliest (feature, bin).
      SplitInfo best_shared;
      double best_total = params_.min_gain;
      for (int f : level_features()) {
        // Evaluate every bin candidate's total (level-summed) gain.
        // Per-leaf prefix sums over bins make this O(leaves × bins) per
        // feature instead of O(leaves × bins²).
        const FeatureBins& fb = mapper_.feature(static_cast<std::size_t>(f));
        const bool categorical = fb.type == ColumnType::Categorical;
        const int n_candidates =
            categorical ? fb.n_value_bins : fb.n_value_bins - 1;
        if (n_candidates <= 0) continue;
        level_gain_.assign(static_cast<std::size_t>(n_candidates), 0.0);
        for (const auto& leaf : level) {
          if (leaf.count == 0) continue;
          const HistEntry* hist =
              leaf.hist.data() + offsets_[static_cast<std::size_t>(f)];
          const double parent_score = leaf_score(leaf.g, leaf.h, params_);
          double gl = 0.0, hl = 0.0;
          std::uint32_t nl = 0;
          for (int b = 0; b < n_candidates; ++b) {
            if (categorical) {
              gl = hist[b].g;
              hl = hist[b].h;
              nl = hist[b].n;
            } else {
              gl += hist[b].g;
              hl += hist[b].h;
              nl += hist[b].n;
            }
            double gr = leaf.g - gl, hr = leaf.h - hl;
            std::uint32_t nr = static_cast<std::uint32_t>(leaf.count) - nl;
            if (nl == 0 || nr == 0) continue;
            if (hl < params_.min_child_weight || hr < params_.min_child_weight) {
              continue;
            }
            double gain = leaf_score(gl, hl, params_) +
                          leaf_score(gr, hr, params_) - parent_score;
            if (gain > 0.0) level_gain_[static_cast<std::size_t>(b)] += gain;
          }
        }
        for (int b = 0; b < n_candidates; ++b) {
          if (level_gain_[static_cast<std::size_t>(b)] > best_total) {
            best_total = level_gain_[static_cast<std::size_t>(b)];
            best_shared.feature = f;
            best_shared.bin = b;
            best_shared.categorical = categorical;
          }
        }
      }
      if (!best_shared.valid()) break;

      // Apply the shared split to every non-empty leaf of the level.
      std::vector<LeafState> next;
      next.reserve(level.size() * 2);
      for (auto& leaf : level) {
        apply_split_to_node(tree, leaf.node, best_shared);
        auto [left_id, right_id] = tree.split_leaf(leaf.node);
        std::size_t left_count = leaf.count == 0 ? 0 : partition(leaf, best_shared);

        LeafState left, right;
        left.node = left_id;
        left.begin = leaf.begin;
        left.count = left_count;
        right.node = right_id;
        right.begin = leaf.begin + left_count;
        right.count = leaf.count - left_count;
        left.g = sum_g(left);
        left.h = sum_h(left);
        right.g = leaf.g - left.g;
        right.h = leaf.h - left.h;
        if (d + 1 < params_.oblivious_depth) {
          // As in leaf-wise growth: build the smaller child and let the
          // larger one take over the parent's buffer and subtract in place.
          LeafState& small = left.count <= right.count ? left : right;
          LeafState& large = left.count <= right.count ? right : left;
          if (small.count > 0) build_hist(small, small.hist);
          else small.hist.assign(hist_size(), HistEntry{});
          large.hist = std::move(leaf.hist);
          subtract_gradient_histogram_inplace(large.hist, small.hist);
        }
        next.push_back(std::move(left));
        next.push_back(std::move(right));
      }
      level = std::move(next);
    }

    for (const auto& leaf : level) {
      tree.node(static_cast<std::size_t>(leaf.node)).leaf_value =
          leaf.count == 0 ? 0.0 : leaf_weight(leaf.g, leaf.h, params_);
    }
    return tree;
  }

 private:
  const BinMapper& mapper_;
  const BinnedMatrix& binned_;  // column codes, for partitioning
  const PackedBins& packed_;    // row-major codes, for histograms
  bool unit_hess_;
  const std::vector<double>& grad_;
  const std::vector<double>& hess_;
  const std::vector<int>& features_;
  const GrowerParams& params_;
  Rng& rng_;
  std::vector<std::uint32_t> buffer_;
  std::vector<std::uint32_t> scratch_;
  std::vector<std::size_t> offsets_;
  std::vector<double> level_gain_;  // oblivious scan: per-bin level total

 public:
  Tree run() {
    FLAML_CHECK(!buffer_.empty());
    return params_.style == TreeStyle::LeafWise ? grow_leaf_wise() : grow_oblivious();
  }
};

}  // namespace

GradientTreeGrower::GradientTreeGrower(const BinnedSubstrate& substrate)
    : substrate_(&substrate) {}

Tree GradientTreeGrower::grow(const std::vector<std::uint32_t>& rows,
                              const std::vector<double>& grad,
                              const std::vector<double>& hess,
                              const std::vector<int>& features,
                              const GrowerParams& params, Rng& rng) const {
  FLAML_REQUIRE(!rows.empty(), "cannot grow a tree on zero rows");
  FLAML_REQUIRE(!features.empty(), "cannot grow a tree with zero features");
  const std::size_t n_rows = substrate_->binned.n_rows();
  FLAML_REQUIRE(grad.size() == n_rows && hess.size() == n_rows,
                "gradient arrays must cover all binned rows");
  GrowContext ctx(*substrate_, rows, grad, hess, features, params, rng);
  return ctx.run();
}

}  // namespace flaml
