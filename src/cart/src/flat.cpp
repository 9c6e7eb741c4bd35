#include "rainshine/cart/flat.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>

#include "rainshine/util/check.hpp"
#include "rainshine/util/parallel.hpp"

namespace rainshine::cart {
namespace {

// The .rsf v2 flat section memcpy path in serve/artifact.cpp relies on this
// exact field placement; keep the asserts next to the traversal that also
// depends on it.
static_assert(offsetof(FlatNode, threshold) == 0);
static_assert(offsetof(FlatNode, child) == 8);
static_assert(offsetof(FlatNode, feature) == 16);
static_assert(offsetof(FlatNode, bitset_offset) == 20);
static_assert(offsetof(FlatNode, bitset_bits) == 24);
static_assert(offsetof(FlatNode, categorical) == 28);
static_assert(offsetof(FlatNode, missing_goes_left) == 29);
static_assert(offsetof(FlatNode, leaf_children) == 30);

[[nodiscard]] inline bool bitset_test(const std::uint64_t* pool,
                                      std::uint32_t offset, std::size_t bit) {
  return (pool[offset + bit / 64] >> (bit % 64)) & 1U;
}

}  // namespace

/// Per-chunk traversal scratch, reused across blocks so steady-state scoring
/// allocates nothing.
struct FlatForest::Scratch {
  std::vector<double> x;           ///< gathered features, row-major [row][feature]
  std::vector<std::uint32_t> cur;  ///< current node per row
  std::vector<std::uint32_t> idx; ///< general path: active (unsettled) rows
  std::vector<double> acc;         ///< regression: running sum per row
  std::vector<std::int32_t> votes; ///< classification: [row][class] tally
};

FlatForest FlatForest::compile(Task task, std::span<const Tree> trees,
                               std::size_t num_classes) {
  FlatForest f;
  f.task_ = task;
  f.num_classes_ = num_classes;

  std::size_t total = 0;
  for (const Tree& tree : trees) total += tree.nodes().size();
  util::require(total <= 0xFFFFFFFFu, "forest too large for flat layout");
  f.nodes_.reserve(total);
  f.roots_.reserve(trees.size());
  f.depths_.reserve(trees.size());

  std::vector<std::uint32_t> order;   // BFS visit order (old node ids)
  std::vector<std::uint32_t> remap;   // old id -> BFS position
  std::vector<std::uint32_t> level;   // BFS position -> depth
  for (const Tree& tree : trees) {
    const auto& src = tree.nodes();
    util::require(!src.empty(), "tree has no nodes");
    const auto base = static_cast<std::uint32_t>(f.nodes_.size());
    f.roots_.push_back(base);

    order.assign(1, 0);
    level.assign(1, 0);
    remap.assign(src.size(), 0);
    for (std::size_t qi = 0; qi < order.size(); ++qi) {
      const Node& nd = src[order[qi]];
      remap[order[qi]] = static_cast<std::uint32_t>(qi);
      if (!nd.is_leaf()) {
        order.push_back(static_cast<std::uint32_t>(nd.left));
        order.push_back(static_cast<std::uint32_t>(nd.right));
        level.push_back(level[qi] + 1);
        level.push_back(level[qi] + 1);
      }
    }

    std::uint32_t max_depth = 0;
    for (std::size_t qi = 0; qi < order.size(); ++qi) {
      const Node& nd = src[order[qi]];
      const auto self = static_cast<std::uint32_t>(base + qi);
      FlatNode fn;
      if (nd.is_leaf()) {
        fn.threshold = nd.prediction;
        fn.child[0] = fn.child[1] = self;
        fn.missing_goes_left = 1;
      } else {
        fn.feature = static_cast<std::uint32_t>(nd.feature);
        fn.child[0] = base + remap[static_cast<std::size_t>(nd.left)];
        fn.child[1] = base + remap[static_cast<std::size_t>(nd.right)];
        fn.missing_goes_left = nd.missing_goes_left ? 1 : 0;
        if (nd.categorical) {
          fn.categorical = 1;
          fn.bitset_bits = static_cast<std::uint32_t>(nd.go_left.size());
          fn.bitset_offset = static_cast<std::uint32_t>(f.bitset_pool_.size());
          const std::size_t words = (nd.go_left.size() + 63) / 64;
          f.bitset_pool_.resize(f.bitset_pool_.size() + words, 0);
          for (std::size_t b = 0; b < nd.go_left.size(); ++b) {
            if (nd.go_left[b] != 0) {
              f.bitset_pool_[fn.bitset_offset + b / 64] |= std::uint64_t{1} << (b % 64);
            }
          }
        } else {
          fn.threshold = nd.threshold;
        }
      }
      max_depth = std::max(max_depth, level[qi]);
      f.nodes_.push_back(fn);
    }
    f.depths_.push_back(max_depth);
  }
  f.init_derived();
  return f;
}

FlatForest::FlatForest(Task task, std::size_t num_classes,
                       std::vector<FlatNode> nodes, std::vector<std::uint32_t> roots,
                       std::vector<std::uint32_t> depths,
                       std::vector<std::uint64_t> bitset_pool)
    : task_(task),
      num_classes_(num_classes),
      nodes_(std::move(nodes)),
      roots_(std::move(roots)),
      depths_(std::move(depths)),
      bitset_pool_(std::move(bitset_pool)) {
  util::require(roots_.size() == depths_.size(), "flat forest roots/depths mismatch");
  init_derived();
}

void FlatForest::init_derived() {
  has_categorical_ = false;
  used_features_.clear();
  tree_categorical_.assign(roots_.size(), 0);
  const auto is_leaf = [&](std::uint32_t j) {
    return nodes_[j].child[0] == j;
  };
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    const std::size_t begin = roots_[t];
    const std::size_t end = t + 1 < roots_.size() ? roots_[t + 1] : nodes_.size();
    for (std::size_t i = begin; i < end; ++i) {
      FlatNode& nd = nodes_[i];
      if (nd.child[0] == i) {
        // A leaf's "children" are itself, so both bits are set: stepping
        // from a leaf (the unrolled walk does, harmlessly — self-loop)
        // must still report "landed on a leaf".
        nd.leaf_children = 3;
        continue;
      }
      nd.leaf_children = static_cast<std::uint8_t>(
          (is_leaf(nd.child[0]) ? 1U : 0U) | (is_leaf(nd.child[1]) ? 2U : 0U));
      if (nd.feature >= used_features_.size()) used_features_.resize(nd.feature + 1, 0);
      used_features_[nd.feature] = 1;
      tree_categorical_[t] |= nd.categorical;
    }
    has_categorical_ |= tree_categorical_[t] != 0;
  }
}

void FlatForest::walk_tree(std::size_t t, std::size_t rows, std::size_t num_features,
                           Scratch& s, bool fast) const {
  const std::uint32_t root = roots_[t];
  const std::uint32_t depth = depths_[t];
  std::uint32_t* cur = s.cur.data();
  std::fill(cur, cur + rows, root);
  if (depth == 0) return;  // single-node tree: every row already on the leaf

  const FlatNode* nodes = nodes_.data();
  const double* x = s.x.data();
  if (fast) {
    // All-numeric, no missing values in this block: pure compare + indexed
    // child load, no data-dependent branches, ~`active` independent chains
    // in flight per level. Same active-list retirement as the general path
    // below so work tracks each row's own leaf depth.
    std::uint32_t* idx = s.idx.data();
    for (std::uint32_t i = 0; i < rows; ++i) idx[i] = i;
    std::size_t active = rows;
    for (std::uint32_t d = 0; d < depth && active != 0; ++d) {
      std::size_t out = 0;
      for (std::size_t k = 0; k < active; ++k) {
        const std::uint32_t i = idx[k];
        const FlatNode& nd = nodes[cur[i]];
        const auto r =
            static_cast<unsigned>(x[i * num_features + nd.feature] >= nd.threshold);
        cur[i] = nd.child[r];
        idx[out] = i;
        out += ((nd.leaf_children >> r) & 1U) ^ 1U;
      }
      active = out;
    }
    return;
  }
  // General path: walker-exact semantics (NaN -> recorded default side;
  // categorical -> go-left bit, out-of-range codes treated as missing).
  //
  // Unlike the fast path this one runs an active list with branchless
  // compaction: the parent's leaf_children bit says whether the step just
  // taken landed on a leaf, and such rows drop out of the list in the same
  // pass, so total work tracks the *average* leaf depth instead of
  // rows x max_depth (~1.4x fewer steps on the serve forest) and leaves are
  // never visited at all.
  const std::uint64_t* pool = bitset_pool_.data();
  // Returns 0 to go left, 1 to go right.
  const auto decide = [pool](const FlatNode& nd, double v) -> unsigned {
    unsigned left;
    if (nd.categorical != 0) {
      if (std::isnan(v)) {
        left = nd.missing_goes_left;
      } else {
        const auto code = static_cast<std::size_t>(v);
        left = code < nd.bitset_bits
                   ? static_cast<unsigned>(bitset_test(pool, nd.bitset_offset, code))
                   : nd.missing_goes_left;
      }
    } else {
      // `v < threshold` is false for NaN, so OR-ing the NaN arm is exact.
      left = static_cast<unsigned>(v < nd.threshold) |
          (static_cast<unsigned>(v != v) & nd.missing_goes_left);
    }
    return left ^ 1U;
  };
  std::uint32_t* idx = s.idx.data();
  for (std::uint32_t i = 0; i < rows; ++i) idx[i] = i;
  std::size_t active = rows;
  for (std::uint32_t d = 0; d < depth && active != 0; ++d) {
    std::size_t out = 0;
    for (std::size_t k = 0; k < active; ++k) {
      const std::uint32_t i = idx[k];
      const FlatNode& nd = nodes[cur[i]];
      const unsigned r = decide(nd, x[i * num_features + nd.feature]);
      cur[i] = nd.child[r];
      idx[out] = i;
      // Branchless: keep the row iff the child it stepped to is internal.
      out += ((nd.leaf_children >> r) & 1U) ^ 1U;
    }
    active = out;
  }
}

void FlatForest::predict_block(const Dataset& data, std::size_t begin,
                               std::size_t end, Scratch& s, double* out) const {
  const std::size_t rows = end - begin;
  const std::size_t nf = data.num_features();
  s.x.resize(rows * nf);
  s.cur.resize(rows);
  s.idx.resize(rows);

  // Gather the block row-major and scan for missing values in one pass.
  // Only features the forest actually splits on can force the general path.
  bool missing = false;
  for (std::size_t f = 0; f < nf; ++f) {
    const std::span<const double> col = data.column(f);
    double* dst = s.x.data() + f;
    if (f < used_features_.size() && used_features_[f] != 0) {
      for (std::size_t i = 0; i < rows; ++i, dst += nf) {
        const double v = col[begin + i];
        *dst = v;
        missing |= v != v;
      }
    } else {
      for (std::size_t i = 0; i < rows; ++i, dst += nf) *dst = col[begin + i];
    }
  }
  const FlatNode* nodes = nodes_.data();
  const std::size_t num_trees = roots_.size();
  // A block with no missing values takes the compare-only fast path through
  // every tree that has no categorical split; categorical trees take the
  // branchless general path.
  const auto fast_for = [&](std::size_t t) {
    return !missing && tree_categorical_[t] == 0;
  };
  if (task_ == Task::kRegression) {
    s.acc.assign(rows, 0.0);
    for (std::size_t t = 0; t < num_trees; ++t) {
      walk_tree(t, rows, nf, s, fast_for(t));
      for (std::size_t i = 0; i < rows; ++i) s.acc[i] += nodes[s.cur[i]].threshold;
    }
    // Same accumulation order and final divide as the walker: bit-identical.
    for (std::size_t i = 0; i < rows; ++i) {
      out[begin + i] = s.acc[i] / static_cast<double>(num_trees);
    }
    return;
  }

  const std::size_t nc = num_classes_;
  s.votes.assign(rows * nc, 0);
  for (std::size_t t = 0; t < num_trees; ++t) {
    walk_tree(t, rows, nf, s, fast_for(t));
    for (std::size_t i = 0; i < rows; ++i) {
      const auto cls = static_cast<std::size_t>(nodes[s.cur[i]].threshold);
      ++s.votes[i * nc + cls];
    }
  }
  for (std::size_t i = 0; i < rows; ++i) {
    // Strict > keeps the walker's tie-break: lowest class code wins.
    const std::int32_t* v = s.votes.data() + i * nc;
    std::size_t best = 0;
    for (std::size_t c = 1; c < nc; ++c) {
      if (v[c] > v[best]) best = c;
    }
    out[begin + i] = static_cast<double>(best);
  }
}

std::vector<double> FlatForest::predict(const Dataset& data) const {
  util::require(!roots_.empty(), "flat forest is empty");
  const std::size_t n = data.num_rows();
  std::vector<double> out(n);
  if (n == 0) return out;
  const std::size_t blocks = (n + kBlockRows - 1) / kBlockRows;
  util::parallel_for(blocks, 0, [&](std::size_t block_begin, std::size_t block_end) {
    Scratch scratch;
    for (std::size_t b = block_begin; b < block_end; ++b) {
      const std::size_t begin = b * kBlockRows;
      const std::size_t end = std::min(n, begin + kBlockRows);
      predict_block(data, begin, end, scratch, out.data());
    }
  });
  return out;
}

}  // namespace rainshine::cart
