#include "rainshine/cart/prune.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "rainshine/obs/metrics.hpp"
#include "rainshine/obs/trace.hpp"
#include "rainshine/util/check.hpp"

namespace rainshine::cart {

namespace {

/// Subtree aggregates for weakest-link computation over a node vector with a
/// `collapsed` overlay (collapsed internal nodes act as leaves).
struct SubtreeInfo {
  double leaf_impurity = 0.0;
  std::size_t leaves = 0;
};

SubtreeInfo subtree_info(const std::vector<Node>& nodes,
                         const std::vector<std::uint8_t>& collapsed, std::size_t id) {
  const Node& node = nodes[id];
  if (node.is_leaf() || collapsed[id]) return {node.impurity, 1};
  const SubtreeInfo l =
      subtree_info(nodes, collapsed, static_cast<std::size_t>(node.left));
  const SubtreeInfo r =
      subtree_info(nodes, collapsed, static_cast<std::size_t>(node.right));
  return {l.leaf_impurity + r.leaf_impurity, l.leaves + r.leaves};
}

/// Weakest-link value of `id` under the overlay, on rpart's relative scale.
double g_value(const std::vector<Node>& nodes, const std::vector<std::uint8_t>& collapsed,
               std::size_t id, double root_impurity) {
  const SubtreeInfo info = subtree_info(nodes, collapsed, id);
  if (info.leaves <= 1) return std::numeric_limits<double>::infinity();
  const double denom = static_cast<double>(info.leaves - 1) *
                       std::max(root_impurity, 1e-300);
  return (nodes[id].impurity - info.leaf_impurity) / denom;
}

/// All internal (non-collapsed) node ids.
std::vector<std::size_t> internal_nodes(const std::vector<Node>& nodes,
                                        const std::vector<std::uint8_t>& collapsed) {
  std::vector<std::size_t> out;
  // Walk from the root so nodes inside collapsed subtrees are excluded.
  std::vector<std::size_t> stack = {0};
  while (!stack.empty()) {
    const std::size_t id = stack.back();
    stack.pop_back();
    const Node& node = nodes[id];
    if (node.is_leaf() || collapsed[id]) continue;
    out.push_back(id);
    stack.push_back(static_cast<std::size_t>(node.left));
    stack.push_back(static_cast<std::size_t>(node.right));
  }
  return out;
}

/// Rebuilds a compact Tree from an overlay (collapsed nodes become leaves).
Tree rebuild(const Tree& tree, const std::vector<std::uint8_t>& collapsed) {
  const std::vector<Node>& old_nodes = tree.nodes();
  std::vector<Node> new_nodes;
  // Map old id -> new id, depth-first so children follow parents.
  struct Item {
    std::size_t old_id;
    std::int32_t new_parent;
    bool is_left;
  };
  std::vector<Item> stack = {{0, kNoChild, false}};
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    const Node& old_node = old_nodes[item.old_id];
    const auto new_id = static_cast<std::int32_t>(new_nodes.size());
    Node copy = old_node;
    copy.parent = item.new_parent;
    copy.left = kNoChild;
    copy.right = kNoChild;
    if (collapsed[item.old_id] || old_node.is_leaf()) {
      copy.improve = 0.0;
      copy.go_left.clear();
    }
    if (item.new_parent != kNoChild) {
      Node& parent = new_nodes[static_cast<std::size_t>(item.new_parent)];
      (item.is_left ? parent.left : parent.right) = new_id;
      copy.depth = parent.depth + 1;
    } else {
      copy.depth = 0;
    }
    new_nodes.push_back(std::move(copy));
    if (!collapsed[item.old_id] && !old_node.is_leaf()) {
      // Push right first so left is processed (and numbered) first.
      stack.push_back({static_cast<std::size_t>(old_node.right), new_id, false});
      stack.push_back({static_cast<std::size_t>(old_node.left), new_id, true});
    }
  }
  return Tree(tree.task(), tree.features(), std::move(new_nodes), tree.class_labels());
}

}  // namespace

Tree prune(const Tree& tree, double cp) {
  util::require(cp >= 0.0, "cp must be non-negative");
  const obs::ScopedTimer timer(obs::registry().histogram("cart.prune_us"));
  const std::vector<Node>& nodes = tree.nodes();
  const double root_impurity = nodes.front().impurity;
  std::vector<std::uint8_t> collapsed(nodes.size(), 0);

  // Iteratively collapse the weakest link while it is no better than cp.
  while (true) {
    const std::vector<std::size_t> candidates = internal_nodes(nodes, collapsed);
    if (candidates.empty()) break;
    double min_g = std::numeric_limits<double>::infinity();
    std::size_t argmin = candidates.front();
    for (const std::size_t id : candidates) {
      const double g = g_value(nodes, collapsed, id, root_impurity);
      if (g < min_g) {
        min_g = g;
        argmin = id;
      }
    }
    if (min_g > cp) break;
    collapsed[argmin] = 1;
  }
  return rebuild(tree, collapsed);
}

std::vector<double> cp_sequence(const Tree& tree) {
  const std::vector<Node>& nodes = tree.nodes();
  const double root_impurity = nodes.front().impurity;
  std::vector<std::uint8_t> collapsed(nodes.size(), 0);

  std::vector<double> cps;
  while (true) {
    const std::vector<std::size_t> candidates = internal_nodes(nodes, collapsed);
    if (candidates.empty()) break;
    double min_g = std::numeric_limits<double>::infinity();
    std::size_t argmin = candidates.front();
    for (const std::size_t id : candidates) {
      const double g = g_value(nodes, collapsed, id, root_impurity);
      if (g < min_g) {
        min_g = g;
        argmin = id;
      }
    }
    cps.push_back(min_g);
    collapsed[argmin] = 1;
  }
  // Deduplicate (ties collapse at the same cp), sort descending, and append
  // 0 for the unpruned tree.
  std::sort(cps.begin(), cps.end(), std::greater<>());
  cps.erase(std::unique(cps.begin(), cps.end(),
                        [](double a, double b) { return std::abs(a - b) < 1e-15; }),
            cps.end());
  cps.push_back(0.0);
  return cps;
}

namespace {

double holdout_error(const Tree& tree, const Dataset& data,
                     std::span<const std::size_t> rows) {
  double err = 0.0;
  for (const std::size_t r : rows) {
    const double pred = tree.predict(data, r);
    if (tree.task() == Task::kRegression) {
      const double d = data.y(r) - pred;
      err += d * d;
    } else {
      err += data.y(r) == pred ? 0.0 : 1.0;
    }
  }
  return err / static_cast<double>(std::max<std::size_t>(1, rows.size()));
}

std::vector<CvPoint> cross_validate_with(const Dataset& data, const Config& growth,
                                         std::span<const double> cps,
                                         std::size_t folds, util::Rng& rng,
                                         const SharedOrder& shared) {
  util::require(folds >= 2, "cross_validate needs at least 2 folds");
  util::require(data.num_rows() >= folds, "fewer rows than folds");
  util::require(!cps.empty(), "cross_validate needs candidate cps");

  std::vector<std::size_t> order(data.num_rows());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.below(i));
    std::swap(order[i - 1], order[j]);
  }

  const double min_cp = *std::min_element(cps.begin(), cps.end());
  Config fold_cfg = growth;
  fold_cfg.cp = std::max(0.0, min_cp);

  // errors[cp][fold]
  std::vector<std::vector<double>> errors(cps.size(), std::vector<double>(folds, 0.0));
  for (std::size_t fold = 0; fold < folds; ++fold) {
    std::vector<std::size_t> test;
    // 0/1 weight mask instead of a per-fold Dataset copy: the weighted grow
    // overload fits on the original column snapshot, so fold trees share
    // feature metadata with `data` by construction.
    std::vector<double> train_weight(data.num_rows(), 0.0);
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (i % folds == fold) {
        test.push_back(order[i]);
      } else {
        train_weight[order[i]] = 1.0;
      }
    }
    const Tree full = grow(data, fold_cfg, train_weight, shared);
    for (std::size_t c = 0; c < cps.size(); ++c) {
      const Tree pruned = prune(full, cps[c]);
      // Evaluate on the ORIGINAL dataset rows held out from this fold.
      errors[c][fold] = holdout_error(pruned, data, test);
    }
  }

  // Full-data trees for the leaves column.
  const Tree full_all = grow(data, fold_cfg, {}, shared);

  std::vector<CvPoint> out;
  out.reserve(cps.size());
  for (std::size_t c = 0; c < cps.size(); ++c) {
    CvPoint p;
    p.cp = cps[c];
    double sum = 0.0;
    for (const double e : errors[c]) sum += e;
    p.mean_error = sum / static_cast<double>(folds);
    double var = 0.0;
    for (const double e : errors[c]) var += (e - p.mean_error) * (e - p.mean_error);
    var /= static_cast<double>(folds > 1 ? folds - 1 : 1);
    p.std_error = std::sqrt(var / static_cast<double>(folds));
    p.leaves = prune(full_all, cps[c]).num_leaves();
    out.push_back(p);
  }
  return out;
}

}  // namespace

std::vector<CvPoint> cross_validate(const Dataset& data, const Config& growth,
                                    std::span<const double> cps, std::size_t folds,
                                    util::Rng& rng) {
  return cross_validate_with(data, growth, cps, folds, rng, SharedOrder(data));
}

FitResult fit_pruned(const Dataset& data, Config growth, std::size_t folds,
                     util::Rng& rng) {
  const obs::ScopedSpan span("cart.fit_pruned");
  growth.cp = std::min(growth.cp, 1e-4);  // grow generously, prune back
  // One presort serves the full tree, every fold tree and the full-data
  // tree of the cp curve.
  const SharedOrder shared(data);
  const Tree full = grow(data, growth, {}, shared);
  std::vector<double> cps = cp_sequence(full);
  // Cap the CV grid: geometric subsample if the sequence is huge.
  constexpr std::size_t kMaxGrid = 25;
  if (cps.size() > kMaxGrid) {
    std::vector<double> sampled;
    for (std::size_t i = 0; i < kMaxGrid; ++i) {
      sampled.push_back(cps[i * (cps.size() - 1) / (kMaxGrid - 1)]);
    }
    cps = std::move(sampled);
  }
  std::vector<CvPoint> curve = cross_validate_with(data, growth, cps, folds, rng, shared);

  // 1-SE rule: the largest cp whose CV error is within one SE of the best.
  const auto best = std::min_element(
      curve.begin(), curve.end(),
      [](const CvPoint& a, const CvPoint& b) { return a.mean_error < b.mean_error; });
  const double limit = best->mean_error + best->std_error;
  double chosen = best->cp;
  for (const CvPoint& p : curve) {
    if (p.mean_error <= limit && p.cp > chosen) chosen = p.cp;
  }
  return {prune(full, chosen), chosen, std::move(curve)};
}

}  // namespace rainshine::cart
