// Flattened, batch-major forest inference.
//
// The pointer walker (Tree::leaf_of) chases heap-allocated Node vectors one
// row at a time: every step is a dependent load through a 100+-byte Node
// whose categorical bitset lives in yet another allocation. `FlatForest`
// compiles a whole forest into one contiguous array of 32-byte nodes (two
// per cache line, never straddling one) plus a shared bitset pool, and
// scores rows block-major: a block of up to 256 rows advances one level per
// pass, so ~256 independent compare/select chains are in flight at once and
// the node array stays hot in L1.
//
// Layout tricks worth knowing before reading the traversal:
//   * Trees are concatenated; tree t owns nodes [roots[t], roots[t+1]) in
//     BFS order, so children always sit at higher indices than their parent
//     and early levels are contiguous.
//   * Leaves are self-loops: left == right == own index, and `threshold`
//     holds the leaf payload (regression mean or class code). The hot loop
//     therefore has NO leaf branch — it runs exactly depth(t) passes and
//     every row provably sits on its leaf afterwards (rows that arrive
//     early just spin in place; missing_goes_left=1 on leaves keeps the
//     NaN path a self-loop too).
//   * Categorical go-left sets live word-packed in one shared pool;
//     `bitset_bits` mirrors Node::go_left.size() because the walker treats
//     out-of-range codes as missing and the flat path must match bit-for-bit.
//
// The walker is retained only as the golden reference (same pattern as the
// presort-vs-exhaustive split engines): batch `Forest::predict` always runs
// this kernel, and tests assert it equals the single-row walker
// (`Forest::predict(data, row)`) bit-for-bit on every feature shape.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rainshine/cart/dataset.hpp"
#include "rainshine/cart/tree.hpp"

namespace rainshine::cart {

/// One compiled node. 32 bytes, trivially copyable, no interior pointers —
/// this exact byte layout (little-endian) is the `.rsf` v2 flat section, so
/// on LE hosts load_forest adopts the node array with a single memcpy.
struct FlatNode {
  double threshold = 0.0;     ///< numeric split threshold; leaf payload on leaves
  /// Absolute child indices, [0] = left, [1] = right (== own index on
  /// leaves). An array instead of two named fields so the traversal can
  /// index with the comparison result — an addressed load the compiler
  /// cannot turn back into a data-dependent (and ~50% mispredicted) branch.
  std::uint32_t child[2] = {0, 0};
  std::uint32_t feature = 0;  ///< feature column tested (0 on leaves)
  std::uint32_t bitset_offset = 0;  ///< word offset into the bitset pool (categorical)
  std::uint32_t bitset_bits = 0;    ///< == Node::go_left.size() (categorical), else 0
  std::uint8_t categorical = 0;
  std::uint8_t missing_goes_left = 0;  ///< 1 on leaves (keeps NaN a self-loop)
  /// Bit 0/1: child[0]/child[1] is a leaf. Derived in memory by
  /// init_derived so the general path can retire a row the moment it steps
  /// onto a leaf; MUST be zero on disk (the .rsf v2 decoder rejects
  /// nonzero pad bytes and recomputes this after adoption).
  std::uint8_t leaf_children = 0;
  std::uint8_t pad0 = 0;  ///< zero on disk and in memory

  friend bool operator==(const FlatNode&, const FlatNode&) = default;
};
static_assert(sizeof(FlatNode) == 32, "two FlatNodes per cache line");

/// A forest compiled for batch-major scoring. Immutable once built; safe to
/// share across threads.
class FlatForest {
 public:
  /// Rows per traversal block. Big enough that ~256 independent walks hide
  /// load latency, small enough that the gathered feature block stays in L1.
  static constexpr std::size_t kBlockRows = 256;

  FlatForest() = default;

  /// Compiles trees into the flat layout. `num_classes` is the vote-tally
  /// width (Forest's defensively-computed value; 0 for regression).
  [[nodiscard]] static FlatForest compile(Task task, std::span<const Tree> trees,
                                          std::size_t num_classes);

  /// Adoption constructor for serve::load_forest: the caller (artifact
  /// validation) has already proven the structural invariants that compile()
  /// guarantees by construction — see decode_flat in serve/artifact.cpp.
  FlatForest(Task task, std::size_t num_classes, std::vector<FlatNode> nodes,
             std::vector<std::uint32_t> roots, std::vector<std::uint32_t> depths,
             std::vector<std::uint64_t> bitset_pool);

  /// Bit-identical to the walker batch predict at any RAINSHINE_THREADS:
  /// each row's result depends only on its own cells, trees are accumulated
  /// in tree order, and parallel_for chunking never crosses a row.
  [[nodiscard]] std::vector<double> predict(const Dataset& data) const;

  [[nodiscard]] Task task() const noexcept { return task_; }
  [[nodiscard]] std::size_t num_trees() const noexcept { return roots_.size(); }
  [[nodiscard]] std::size_t num_classes() const noexcept { return num_classes_; }
  [[nodiscard]] bool has_categorical() const noexcept { return has_categorical_; }
  [[nodiscard]] const std::vector<FlatNode>& nodes() const noexcept { return nodes_; }
  /// Start index of each tree's node span (tree t is [roots[t], roots[t+1])
  /// with an implicit end of nodes().size() for the last tree).
  [[nodiscard]] const std::vector<std::uint32_t>& roots() const noexcept { return roots_; }
  /// Max node depth per tree == passes the fixed-depth loop runs.
  [[nodiscard]] const std::vector<std::uint32_t>& depths() const noexcept { return depths_; }
  [[nodiscard]] const std::vector<std::uint64_t>& bitset_pool() const noexcept {
    return bitset_pool_;
  }

  friend bool operator==(const FlatForest& a, const FlatForest& b) = default;

 private:
  struct Scratch;

  void init_derived();
  void predict_block(const Dataset& data, std::size_t begin, std::size_t end,
                     Scratch& scratch, double* out) const;
  void walk_tree(std::size_t t, std::size_t rows, std::size_t num_features,
                 Scratch& scratch, bool fast) const;

  Task task_ = Task::kRegression;
  std::size_t num_classes_ = 0;
  std::vector<FlatNode> nodes_;
  std::vector<std::uint32_t> roots_;
  std::vector<std::uint32_t> depths_;
  std::vector<std::uint64_t> bitset_pool_;
  // Derived (recomputed by init_derived; not serialized, not compared).
  bool has_categorical_ = false;
  std::vector<std::uint8_t> used_features_;  ///< NaN scan only looks at these
  std::vector<std::uint8_t> tree_categorical_;  ///< per-tree fast-path gate
};

}  // namespace rainshine::cart
