// Tree growth: recursive partitioning over a weighted row view.
//
// Two split-search engines share one arithmetic contract (see DESIGN.md §6d):
//
//   * kPresort (default): each numeric feature is sorted ONCE per dataset,
//     by a stable radix sort — every row ascending by (value, row id),
//     missing compacted to an ascending tail (SharedOrder) — and filtered
//     per tree, in one linear pass, down to the rows with weight > 0.
//     grow_forest, fit_pruned and residualized_effect share one order
//     across all their trees; plain grow() sorts for itself.
//     The per-feature orders are threaded down the recursion by stable
//     partitioning, so every node's split search is a single linear sweep.
//     O(d·n) per tree level.
//   * kExhaustive: the seed implementation — re-sort the node's rows per
//     feature at every node. O(d·n log n) per level. Kept as the golden
//     reference; tests/cart/test_grow_golden.cpp asserts both engines grow
//     bit-identical trees.
//
// Bit-identity holds because both engines feed the SAME sweep the SAME row
// sequence: the presorted tie-break is (value, row id) and both the per-tree
// filter and stable partition preserve it, while the exhaustive comparator
// sorts by (value, row id) directly — a deterministic total order, so the
// sequences agree element for element and every floating-point accumulation
// happens in the same order.
//
// Histogram path (inside kPresort). When every RegStats sum of a grow()
// call is an exact integer — a regression whose responses and weights are
// integers, with Σw and Σw·y² below 2^53 — summation order no longer
// matters, and a feature with few distinct values (at most min(65535,
// rows / 16), BinCodes) is searched from a per-node histogram over its
// dense-rank codes instead of a threaded order. The codes are ranked once
// per dataset off the sort and stored row-major as uint16. The root builds
// its histogram from its rows; at each split the smaller child accumulates
// its own and the larger is parent minus sibling. Bins scanned in ascending
// code order see the sweep's statistics at every cut, with the same
// first-best `>` rule and the same cut_between threshold, so the tree is
// bit-identical. A node with fewer rows than a feature has bins sorts its
// rows by code and sweeps them instead. Features past the cutoff keep the
// threaded sweep; a non-integer response or weight keeps the whole sweep
// engine. Callers that take the path: the early-warning forest (0/1 label,
// bootstrap counts), analyze_environment's λ_disk tree and the first
// backfit of residualized_effect (integer counts).
//
// Rows carry multiplicity weights (empty = all ones): grow_forest fits each
// bootstrap tree through per-row bag counts over the original dataset
// instead of materializing a resampled Dataset copy, and cross-validation
// passes 0/1 fold masks. A weight-w row behaves exactly like w stacked
// copies in every count, leaf floor and impurity.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <type_traits>

#include "rainshine/cart/tree.hpp"
#include "rainshine/obs/metrics.hpp"
#include "rainshine/obs/trace.hpp"
#include "rainshine/util/check.hpp"
#include "rainshine/util/parallel.hpp"

namespace rainshine::cart {

namespace {

/// Sufficient statistics for impurity on one side of a candidate split.
struct RegStats {
  double n = 0.0;
  double sum = 0.0;
  double sumsq = 0.0;

  void add(double y, double wt) {
    const double wy = wt * y;
    n += wt;
    sum += wy;
    sumsq += wy * y;
  }
  void remove(double y, double wt) {
    const double wy = wt * y;
    n -= wt;
    sum -= wy;
    sumsq -= wy * y;
  }
  void merge(const RegStats& o) {
    n += o.n;
    sum += o.sum;
    sumsq += o.sumsq;
  }
  void unmerge(const RegStats& o) {
    n -= o.n;
    sum -= o.sum;
    sumsq -= o.sumsq;
  }
  [[nodiscard]] double impurity() const {
    return n > 0.0 ? std::max(0.0, sumsq - sum * sum / n) : 0.0;
  }
  [[nodiscard]] double mean() const { return n > 0.0 ? sum / n : 0.0; }
};

struct ClassStats {
  std::vector<double> counts;
  double n = 0.0;

  explicit ClassStats(std::size_t k) : counts(k, 0.0) {}
  void add(double code, double wt) {
    counts[static_cast<std::size_t>(code)] += wt;
    n += wt;
  }
  void remove(double code, double wt) {
    counts[static_cast<std::size_t>(code)] -= wt;
    n -= wt;
  }
  void merge(const ClassStats& o) {
    for (std::size_t j = 0; j < counts.size(); ++j) counts[j] += o.counts[j];
    n += o.n;
  }
  void unmerge(const ClassStats& o) {
    for (std::size_t j = 0; j < counts.size(); ++j) counts[j] -= o.counts[j];
    n -= o.n;
  }
  /// n * Gini = n - sum c_k^2 / n.
  [[nodiscard]] double impurity() const {
    if (n <= 0.0) return 0.0;
    double sq = 0.0;
    for (const double c : counts) sq += c * c;
    return std::max(0.0, n - sq / n);
  }
};

/// presort_feature's LSD radix sort: 64-bit keys in 11-bit digits, so at
/// most six scatter passes, each over a 2048-bucket histogram.
constexpr unsigned kDigitBits = 11;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr unsigned kDigits = (64 + kDigitBits - 1) / kDigitBits;

/// Buffers for presort_feature, sized to one dataset's rows and reused
/// across its features. Callers allocate them on their own thread, never in
/// a pool task: glibc serves each allocating thread from its own malloc
/// arena and keeps memory freed there resident (DESIGN.md §6d).
struct RadixScratch {
  explicit RadixScratch(std::size_t n)
      : keys(std::make_unique_for_overwrite<std::uint64_t[]>(2 * n)),
        rows(std::make_unique_for_overwrite<std::uint32_t[]>(2 * n)),
        counts(kDigits * kBuckets) {}

  std::unique_ptr<std::uint64_t[]> keys;  ///< source and destination halves
  std::unique_ptr<std::uint32_t[]> rows;  ///< row ids riding with the keys
  std::vector<std::uint32_t> counts;      ///< one histogram per digit
};

/// Order-preserving key of a non-NaN double: keys ascend exactly as values
/// do. -0.0 is folded into +0.0 first, so the two tie as they compare.
std::uint64_t sort_key(double v) {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  const auto bits = std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v);
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

/// Writes numeric feature f's order over every row of `data` (see
/// SharedOrder) into `out`, which holds num_rows() entries. Present rows
/// enter a stable LSD radix sort in ascending row id, so equal keys keep
/// row-id order and the (value, row id) order needs no tie-break key. A
/// digit that every key shares moves nothing, so its pass is skipped.
/// Missing rows collect in ascending order at the front of `out`, then
/// move to its tail.
void presort_feature(const Dataset& data, std::size_t f,
                     std::span<std::uint32_t> out, RadixScratch& scratch) {
  const std::span<const double> x = data.column(f);
  const std::size_t n = x.size();
  std::uint64_t* key = scratch.keys.get();
  std::uint32_t* row = scratch.rows.get();
  std::uint64_t* key_dst = key + n;
  std::uint32_t* row_dst = row + n;
  std::uint32_t* const counts = scratch.counts.data();
  std::fill(scratch.counts.begin(), scratch.counts.end(), 0U);

  std::size_t present = 0;
  std::size_t missing = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (std::isnan(x[r])) {
      out[missing++] = static_cast<std::uint32_t>(r);
      continue;
    }
    const std::uint64_t k = sort_key(x[r]);
    key[present] = k;
    row[present++] = static_cast<std::uint32_t>(r);
    for (unsigned d = 0; d < kDigits; ++d) {
      ++counts[d * kBuckets + ((k >> (d * kDigitBits)) & (kBuckets - 1))];
    }
  }

  for (unsigned d = 0; present > 0 && d < kDigits; ++d) {
    const unsigned shift = d * kDigitBits;
    std::uint32_t* const bucket = counts + d * kBuckets;
    if (bucket[(key[0] >> shift) & (kBuckets - 1)] == present) continue;
    std::uint32_t start = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint32_t c = bucket[b];
      bucket[b] = start;
      start += c;
    }
    for (std::size_t i = 0; i < present; ++i) {
      const std::uint32_t at = bucket[(key[i] >> shift) & (kBuckets - 1)]++;
      key_dst[at] = key[i];
      row_dst[at] = row[i];
    }
    std::swap(key, key_dst);
    std::swap(row, row_dst);
  }

  std::move_backward(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(missing),
                     out.end());
  std::copy(row, row + present, out.begin());
}

/// The most distinct values a numeric feature of an n-row dataset may have
/// to be binned (BinCodes): codes fit a uint16 with one left for missing,
/// and a bin averages at least 16 rows.
std::size_t max_bins(std::size_t n) { return std::min<std::size_t>(65535, n / 16); }

/// Dense-ranks column `x` along `order` (every row ascending by value,
/// missing tail: presort_feature's layout) into the strided `codes`, row r
/// at codes[r * stride]: a present row gets the rank of its value among the
/// distinct values, -0.0 tying +0.0, and a missing row the count of them.
/// Rank k's value goes to values[k]. Returns the count, or nullopt as soon
/// as it would pass values.size().
std::optional<std::size_t> rank_feature(std::span<const double> x,
                                        std::span<const std::uint32_t> order,
                                        std::uint16_t* codes, std::size_t stride,
                                        std::span<double> values) {
  std::size_t bins = 0;
  std::size_t i = 0;
  for (; i < order.size(); ++i) {
    const std::uint32_t r = order[i];
    const double v = x[r];
    if (std::isnan(v)) break;
    if (bins == 0 || v != values[bins - 1]) {
      if (bins == values.size()) return std::nullopt;
      values[bins++] = v == 0.0 ? 0.0 : v;
    }
    codes[r * stride] = static_cast<std::uint16_t>(bins - 1);
  }
  for (; i < order.size(); ++i) codes[order[i] * stride] = static_cast<std::uint16_t>(bins);
  return bins;
}

/// Packs rank_feature results into BinCodes. numeric[i]'s codes sit at
/// column i of the n x numeric.size() `codes` and its values at
/// values[i * cap, ...); the features whose ranking fit (`bins[i]` set) are
/// binned. The other columns stay in place: dropping them would copy the
/// block while both copies are resident.
BinCodes pack_bins(std::span<const std::size_t> numeric,
                   std::span<const std::optional<std::size_t>> bins,
                   std::vector<std::uint16_t> codes, const double* values,
                   std::size_t cap) {
  BinCodes out;
  for (std::size_t i = 0; i < numeric.size(); ++i) {
    if (!bins[i]) continue;
    out.features.push_back(numeric[i]);
    out.columns.push_back(i);
    out.values.insert(out.values.end(), values + i * cap, values + i * cap + *bins[i]);
    out.offsets.push_back(out.values.size());
  }
  if (!out.features.empty()) {
    out.stride = numeric.size();
    out.codes = std::move(codes);
  }
  return out;
}

/// The threshold of a numeric split between adjacent present values
/// lo < hi; a row goes left iff x < threshold, so it must satisfy
/// lo < threshold <= hi. The midpoint does unless it rounds down to lo
/// (adjacent doubles) or overflows (values near ±DBL_MAX or infinite); then
/// hi itself, +0.0 for a zero hi since -0.0 and +0.0 tie.
double cut_between(double lo, double hi) {
  const double mid = 0.5 * (lo + hi);
  if (std::isfinite(mid) && lo < mid && mid <= hi) return mid;
  return hi == 0.0 ? 0.0 : hi;
}

struct BestSplit {
  bool found = false;
  std::size_t feature = 0;
  bool categorical = false;
  double threshold = 0.0;
  std::vector<std::uint8_t> go_left;
  double improve = 0.0;
};

class Builder {
 public:
  /// `shared` (may be null) is the dataset's SharedOrder; without one the
  /// presort engine sorts each feature itself.
  Builder(const Dataset& data, const Config& cfg, std::span<const double> weights,
          const SharedOrder* shared)
      : data_(data),
        cfg_(cfg),
        weights_(weights),
        shared_(shared),
        min_leaf_(static_cast<double>(cfg.min_samples_leaf)),
        presort_(cfg.engine == SplitEngine::kPresort) {}

  Tree build() {
    const obs::ScopedSpan span("cart.grow");
    const std::size_t n = data_.num_rows();
    rows_.reserve(n);
    for (std::size_t r = 0; r < n; ++r) {
      if (w(static_cast<std::uint32_t>(r)) > 0.0) {
        rows_.push_back(static_cast<std::uint32_t>(r));
      }
    }
    util::require(!rows_.empty(), "grow: every row weight is zero");

    std::int32_t root_hist = kNoHist;
    if (presort_) {
      obs::ScopedTimer presort_timer(obs::registry().histogram("cart.presort_us"));
      // side_ holds the active-row mask (1 = weight > 0) until the first
      // partition overwrites it; a byte per row keeps the filter in cache.
      side_.assign(n, 0);
      for (const std::uint32_t r : rows_) side_[r] = 1;
      order_.resize(data_.num_features());
      const bool exact = exact_sums();
      if (shared_ == nullptr) {
        sort_features(exact);
      } else if (exact) {
        bins_ = &shared_->bins();
      }
      layout_histograms();
      // A shared order is filtered to this tree's rows for each swept feature.
      for (std::size_t f = 0; shared_ != nullptr && f < data_.num_features(); ++f) {
        if (data_.info(f).categorical || !allowed(f) || hist_of_[f] >= 0) continue;
        std::vector<std::uint32_t>& ord = order_[f];
        const std::span<const std::uint32_t> all = shared_->feature(f);
        // Branchless compaction: every row is written, only active ones
        // advance the cursor (one spare slot absorbs a trailing inactive row).
        ord.resize(rows_.size() + 1);
        std::size_t k = 0;
        for (const std::uint32_t r : all) {
          ord[k] = r;
          k += side_[r];
        }
        ord.resize(rows_.size());
      }
    }
    if (const std::size_t k = active_histograms(rows_.size()); k > 0) {
      const SearchTimer timer(split_search_ns_);
      root_hist = acquire_hist();
      accumulate_hist(root_hist, 0, rows_.size(), k);
    }

    if (data_.task() == Task::kRegression) {
      grow_node<RegStats>(0, rows_.size(), 0, kNoChild, root_hist);
    } else {
      grow_node<ClassStats>(0, rows_.size(), 0, kNoChild, root_hist);
    }
    // Split search is interleaved with recursion, so per-node clock deltas
    // accumulate in split_search_ns_ and publish once per tree here.
    obs::registry()
        .histogram("cart.split_search_us")
        .observe(static_cast<double>(split_search_ns_) * 1e-3);
    obs::registry().counter("cart.trees_grown").add();
    obs::registry().counter("cart.histogram_features").add(hist_.size());
    std::vector<std::string> class_labels =
        data_.task() == Task::kClassification ? data_.class_labels()
                                              : std::vector<std::string>{};
    return Tree(data_.task(), data_.infos(), std::move(nodes_),
                std::move(class_labels));
  }

 private:
  const Dataset& data_;
  const Config& cfg_;
  std::span<const double> weights_;
  const SharedOrder* shared_;
  double min_leaf_;
  bool presort_;
  std::vector<Node> nodes_;
  double root_impurity_ = 0.0;
  std::int64_t split_search_ns_ = 0;  ///< summed over nodes, published per tree

  /// Adds its lifetime to a split-search clock.
  struct SearchTimer {
    std::int64_t& ns;
    std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
    ~SearchTimer() {
      ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
    }
  };

  /// Active rows (weight > 0), recursed over as [begin, end) segments and
  /// partitioned in place at each split: non-missing rows first, in parent
  /// order, then the missing-value rows routed to this child.
  std::vector<std::uint32_t> rows_;
  /// kPresort: per numeric feature, the active rows ascending by
  /// (value, row id) with missing compacted to an ascending tail (the
  /// dataset order filtered to weight > 0); segments track rows_ and are
  /// stably partitioned alongside it.
  std::vector<std::vector<std::uint32_t>> order_;
  /// By dataset row: 1 = active while the orders are filtered, then
  /// 1 = routed left at each partition.
  std::vector<std::uint8_t> side_;

  // Partition / per-node scratch, reused across nodes (never live across a
  // recursive call).
  std::vector<std::uint32_t> left_buf_;
  std::vector<std::uint32_t> right_buf_;
  std::vector<std::uint32_t> miss_buf_;
  std::vector<std::uint32_t> ord_right_;  ///< partition_order's right side
  std::vector<std::uint32_t> sort_buf_;  ///< kExhaustive / small-node order
  std::vector<std::uint64_t> code_keys_;  ///< small-node (code, row) keys

  /// Histogram path (kPresort, exact sums only). One binned feature's slice
  /// of a node histogram: bins [offset, offset + bins) by code, then the
  /// node's missing rows at offset + bins.
  struct HistFeature {
    std::size_t feature;
    std::size_t column;    ///< its column in a bins_->codes row
    const double* values;  ///< its bin values, ascending
    std::size_t bins;
    std::size_t offset;
  };
  const BinCodes* bins_ = nullptr;  ///< shared_'s codes or own_bins_
  BinCodes own_bins_;               ///< plain grow()'s codes
  /// The binned allowed features, by ascending bin count, so the features
  /// a node of m rows searches by histogram (bins <= m) are a prefix.
  std::vector<HistFeature> hist_;
  std::vector<std::int32_t> hist_of_;  ///< by feature: index into hist_, or -1
  /// Node histograms, each hist_size_ RegStats covering every hist_ slice.
  /// A node holds its histogram by index (kNoHist: none); released buffers
  /// go on a free list and are reused within the tree.
  static constexpr std::int32_t kNoHist = -1;
  std::size_t hist_size_ = 0;
  std::vector<std::vector<RegStats>> hists_;
  std::vector<std::int32_t> free_hists_;

  [[nodiscard]] double w(std::uint32_t r) const {
    return weights_.empty() ? 1.0 : weights_[r];
  }
  [[nodiscard]] bool allowed(std::size_t f) const {
    return cfg_.allowed_features.empty() || cfg_.allowed_features[f] != 0;
  }

  /// True when every RegStats sum over the active rows is an exact integer:
  /// a regression whose responses and weights are integers with Σw and
  /// Σw·y² below 2^53. The terms are non-negative and |w·y| <= w·y², so
  /// every partial sum, in any order, is exact: a histogram then reproduces
  /// the sweep's statistics bit for bit.
  [[nodiscard]] bool exact_sums() const {
    if (data_.task() != Task::kRegression) return false;
    constexpr double kExactLimit = 9007199254740992.0;  // 2^53
    double n = 0.0;
    double sumsq = 0.0;
    for (const std::uint32_t r : rows_) {
      const double y = data_.y(r);
      const double wt = w(r);
      if (y != std::trunc(y) || wt != std::trunc(wt)) return false;
      n += wt;
      sumsq += wt * y * y;
    }
    return n < kExactLimit && sumsq < kExactLimit;
  }

  /// Plain grow()'s presort: sorts each allowed numeric feature with one
  /// scratch, bins it when `exact` and its values are few enough, and
  /// otherwise filters its order in place to the active rows, so one
  /// full-size order is alive at a time.
  void sort_features(bool exact) {
    const std::size_t n = data_.num_rows();
    std::vector<std::size_t> numeric;
    for (std::size_t f = 0; f < data_.num_features(); ++f) {
      if (!data_.info(f).categorical && allowed(f)) numeric.push_back(f);
    }
    RadixScratch scratch(n);
    const std::size_t cap = exact ? max_bins(n) : 0;
    std::vector<std::uint16_t> codes(exact ? n * numeric.size() : 0);
    const auto values = std::make_unique_for_overwrite<double[]>(cap * numeric.size());
    std::vector<std::optional<std::size_t>> bins(numeric.size());
    for (std::size_t i = 0; i < numeric.size(); ++i) {
      std::vector<std::uint32_t>& ord = order_[numeric[i]];
      ord.resize(n);
      presort_feature(data_, numeric[i], ord, scratch);
      if (exact) {
        bins[i] = rank_feature(data_.column(numeric[i]), ord, codes.data() + i,
                               numeric.size(),
                               std::span<double>(values.get() + i * cap, cap));
        if (bins[i]) {
          std::vector<std::uint32_t>().swap(ord);
          continue;
        }
      }
      std::erase_if(ord, [this](std::uint32_t r) { return side_[r] == 0; });
    }
    if (!exact) return;
    own_bins_ = pack_bins(numeric, bins, std::move(codes), values.get(), cap);
    bins_ = &own_bins_;
  }

  void layout_histograms() {
    hist_of_.assign(data_.num_features(), -1);
    if (bins_ == nullptr) return;
    for (std::size_t j = 0; j < bins_->features.size(); ++j) {
      if (allowed(bins_->features[j])) {
        hist_.push_back({bins_->features[j], bins_->columns[j],
                         bins_->values.data() + bins_->offsets[j], bins_->bins(j), 0});
      }
    }
    std::sort(hist_.begin(), hist_.end(), [](const HistFeature& a, const HistFeature& b) {
      return a.bins != b.bins ? a.bins < b.bins : a.feature < b.feature;
    });
    for (std::size_t i = 0; i < hist_.size(); ++i) {
      hist_[i].offset = hist_size_;
      hist_size_ += hist_[i].bins + 1;
      hist_of_[hist_[i].feature] = static_cast<std::int32_t>(i);
    }
  }

  /// How many hist_ features a node of m rows searches by histogram: those
  /// with at most m bins. A smaller node sorts its own codes instead.
  [[nodiscard]] std::size_t active_histograms(std::size_t m) const {
    return static_cast<std::size_t>(
        std::partition_point(hist_.begin(), hist_.end(),
                             [m](const HistFeature& h) { return h.bins <= m; }) -
        hist_.begin());
  }
  /// RegStats the first k hist_ slices span.
  [[nodiscard]] std::size_t hist_extent(std::size_t k) const {
    return k == 0 ? 0 : hist_[k - 1].offset + hist_[k - 1].bins + 1;
  }

  std::int32_t acquire_hist() {
    if (free_hists_.empty()) {
      hists_.emplace_back(hist_size_);
      return static_cast<std::int32_t>(hists_.size() - 1);
    }
    const std::int32_t h = free_hists_.back();
    free_hists_.pop_back();
    return h;
  }
  void release_hist(std::int32_t h) {
    if (h != kNoHist) free_hists_.push_back(h);
  }
  [[nodiscard]] RegStats* hist_data(std::int32_t h) {
    return hists_[static_cast<std::size_t>(h)].data();
  }

  /// Fills the first k slices of histogram `hist` from rows_[begin, end).
  /// Each row reads its codes from one row-major stretch of bins_->codes.
  void accumulate_hist(std::int32_t hist, std::size_t begin, std::size_t end,
                       std::size_t k) {
    RegStats* const h = hist_data(hist);
    std::fill(h, h + hist_extent(k), RegStats{});
    const std::size_t stride = bins_->stride;
    const std::uint16_t* const codes = bins_->codes.data();
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = rows_[i];
      const std::uint16_t* const c = codes + static_cast<std::size_t>(r) * stride;
      const double y = data_.y(r);
      const double wt = w(r);
      for (std::size_t j = 0; j < k; ++j) {
        h[hist_[j].offset + c[hist_[j].column]].add(y, wt);
      }
    }
  }

  /// Hands a split node's histogram on to its children: the smaller child
  /// accumulates its own rows, the larger one is the parent minus it (the
  /// LightGBM subtraction trick; exact here, as every sum is an integer).
  /// Only the slices the larger child searches are kept; children that
  /// cannot split (at max_depth) get none. Returns {left, right}.
  std::pair<std::int32_t, std::int32_t> split_hist(std::size_t begin, std::size_t mid,
                                                   std::size_t end,
                                                   std::uint32_t child_depth,
                                                   std::int32_t parent) {
    const bool left_small = mid - begin <= end - mid;
    const std::size_t k = active_histograms(std::max(mid - begin, end - mid));
    if (k == 0 || child_depth >= cfg_.max_depth) {
      release_hist(parent);
      return {kNoHist, kNoHist};
    }
    const std::int32_t small = acquire_hist();
    if (left_small) {
      accumulate_hist(small, begin, mid, k);
    } else {
      accumulate_hist(small, mid, end, k);
    }
    RegStats* const large = hist_data(parent);
    const RegStats* const sub = hist_data(small);
    for (std::size_t b = 0; b < hist_extent(k); ++b) large[b].unmerge(sub[b]);
    return left_small ? std::pair{small, parent} : std::pair{parent, small};
  }

  /// kExhaustive's per-node comparator for the total order presort_feature()
  /// builds: present rows by (value, row id), then missing rows by row id.
  struct OrderCmp {
    const Dataset* data;
    std::size_t f;
    bool operator()(std::uint32_t a, std::uint32_t b) const {
      const double xa = data->x(a, f);
      const double xb = data->x(b, f);
      const bool ma = std::isnan(xa);
      const bool mb = std::isnan(xb);
      if (ma != mb) return mb;
      if (!ma && xa != xb) return xa < xb;
      return a < b;
    }
  };
  [[nodiscard]] OrderCmp order_cmp(std::size_t f) const { return {&data_, f}; }

  template <typename S>
  [[nodiscard]] S make_stats() const {
    if constexpr (std::is_same_v<S, ClassStats>) {
      return ClassStats(data_.num_classes());
    } else {
      return RegStats{};
    }
  }

  template <typename S>
  [[nodiscard]] S node_stats(std::size_t begin, std::size_t end) const {
    S s = make_stats<S>();
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = rows_[i];
      s.add(data_.y(r), w(r));
    }
    return s;
  }

  void fill_node(Node& node, const RegStats& s) const {
    node.n = static_cast<std::size_t>(std::llround(s.n));
    node.prediction = s.mean();
    node.impurity = s.impurity();
  }
  void fill_node(Node& node, const ClassStats& s) const {
    node.n = static_cast<std::size_t>(std::llround(s.n));
    node.class_counts = s.counts;
    node.impurity = s.impurity();
    const auto it = std::max_element(s.counts.begin(), s.counts.end());
    node.prediction = static_cast<double>(it - s.counts.begin());
  }

  /// Numeric/ordinal threshold search: one linear sweep over `sorted`
  /// (present rows ascending by (value, row id), then a missing tail). The
  /// node's own statistics arrive from the caller — the sweep starts from a
  /// copy and strips the missing tail instead of re-accumulating the parent
  /// side from scratch. Inlined into each caller: out of line, the
  /// exhaustive engine's BM_SplitSearch and BM_GrowTree ran 6-9% slower.
  template <typename S>
  [[gnu::always_inline]] void sweep_numeric(std::span<const std::uint32_t> sorted,
                                            std::size_t f, const S& parent_stats,
                                            BestSplit& best) const {
    S right = parent_stats;
    std::size_t e = sorted.size();
    while (e > 0) {
      const std::uint32_t r = sorted[e - 1];
      if (!data_.x_missing(r, f)) break;
      right.remove(data_.y(r), w(r));
      --e;
    }
    if (right.n < 2.0 * min_leaf_) return;
    const double parent = right.impurity();

    S left = make_stats<S>();
    double xa = data_.x(sorted[0], f);
    for (std::size_t i = 0; i + 1 < e; ++i) {
      const std::uint32_t r = sorted[i];
      const double yv = data_.y(r);
      const double wt = w(r);
      left.add(yv, wt);
      right.remove(yv, wt);
      const double xb = data_.x(sorted[i + 1], f);
      const double cut_lo = xa;
      xa = xb;
      if (cut_lo == xb) continue;  // can't cut between equal values
      if (left.n < min_leaf_) continue;
      if (right.n < min_leaf_) break;
      const double improve = parent - left.impurity() - right.impurity();
      if (improve > best.improve) {
        best = {true, f, false, cut_between(cut_lo, xb), {}, improve};
      }
    }
  }

  /// Histogram threshold search over feature h's slice of a node histogram:
  /// the bins in ascending code order play the sweep's runs of equal
  /// values. With exact sums each cut sees the sweep's statistics, the same
  /// first-best `>` rule and the same cut_between, so it picks the same split.
  void scan_hist(const RegStats* hist, const HistFeature& h,
                 const RegStats& parent_stats, BestSplit& best) const {
    RegStats present = parent_stats;
    present.unmerge(hist[h.bins]);
    if (present.n < 2.0 * min_leaf_) return;
    const double parent = present.impurity();
    std::size_t lo = 0;
    while (lo < h.bins && hist[lo].n == 0.0) ++lo;
    RegStats left;
    for (std::size_t b = lo + 1; b < h.bins; ++b) {
      if (hist[b].n == 0.0) continue;
      left.merge(hist[lo]);
      const std::size_t cut_lo = lo;
      lo = b;
      if (left.n < min_leaf_) continue;
      RegStats right = present;
      right.unmerge(left);
      if (right.n < min_leaf_) break;
      const double improve = parent - left.impurity() - right.impurity();
      if (improve > best.improve) {
        best = {true, h.feature, false, cut_between(h.values[cut_lo], h.values[b]), {},
                improve};
      }
    }
  }

  /// A binned feature at a node: scan its histogram slice, or, when the
  /// node has fewer rows than the feature has bins, sort the node's rows by
  /// code and sweep them. Order within one code does not matter: the sums
  /// are exact.
  void search_binned(std::size_t begin, std::size_t end, const HistFeature& h,
                     const RegStats& parent_stats, BestSplit& best, std::int32_t hist) {
    if (hist != kNoHist && h.bins <= end - begin) {
      scan_hist(hist_data(hist) + h.offset, h, parent_stats, best);
      return;
    }
    const std::uint16_t* const codes = bins_->codes.data() + h.column;
    code_keys_.resize(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = rows_[i];
      code_keys_[i - begin] =
          (std::uint64_t{codes[static_cast<std::size_t>(r) * bins_->stride]} << 32) | r;
    }
    std::sort(code_keys_.begin(), code_keys_.end());
    sort_buf_.resize(end - begin);
    for (std::size_t i = 0; i < code_keys_.size(); ++i) {
      sort_buf_[i] = static_cast<std::uint32_t>(code_keys_[i]);
    }
    sweep_numeric<RegStats>(sort_buf_, h.feature, parent_stats, best);
  }

  template <typename S>
  void search_numeric(std::size_t begin, std::size_t end, std::size_t f,
                      const S& parent_stats, BestSplit& best, std::int32_t hist) {
    if (presort_) {
      if constexpr (std::is_same_v<S, RegStats>) {
        if (hist_of_[f] >= 0) {
          search_binned(begin, end, hist_[static_cast<std::size_t>(hist_of_[f])],
                        parent_stats, best, hist);
          return;
        }
      }
      sweep_numeric<S>(
          std::span<const std::uint32_t>(order_[f]).subspan(begin, end - begin),
          f, parent_stats, best);
      return;
    }
    sort_buf_.assign(rows_.begin() + static_cast<std::ptrdiff_t>(begin),
                     rows_.begin() + static_cast<std::ptrdiff_t>(end));
    std::sort(sort_buf_.begin(), sort_buf_.end(), order_cmp(f));
    sweep_numeric<S>(sort_buf_, f, parent_stats, best);
  }

  /// Categorical subset search via Breiman's ordering trick: order levels by
  /// their response mean (regression) or by the probability of the globally
  /// most frequent class (classification heuristic), then scan prefix cuts.
  /// Ties order by level code so the scan is engine-independent.
  template <typename S>
  void search_categorical(std::size_t begin, std::size_t end, std::size_t f,
                          BestSplit& best) const {
    const std::size_t k = data_.info(f).cardinality();
    if (k < 2) return;

    // Per-level aggregates, accumulated in node-row order.
    std::vector<S> per_level(k, make_stats<S>());
    double present_w = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = rows_[i];
      if (data_.x_missing(r, f)) continue;
      const auto code = static_cast<std::size_t>(data_.x(r, f));
      present_w += w(r);
      per_level[code].add(data_.y(r), w(r));
    }
    if (present_w < 2.0 * min_leaf_) return;

    // Order the occupied levels.
    std::vector<std::size_t> levels;
    for (std::size_t c = 0; c < k; ++c) {
      if (per_level[c].n > 0.0) levels.push_back(c);
    }
    if (levels.size() < 2) return;
    std::size_t ref_class = 0;
    if constexpr (std::is_same_v<S, ClassStats>) {
      std::vector<double> totals(data_.num_classes(), 0.0);
      for (const auto& s : per_level) {
        for (std::size_t j = 0; j < totals.size(); ++j) totals[j] += s.counts[j];
      }
      ref_class = static_cast<std::size_t>(
          std::max_element(totals.begin(), totals.end()) - totals.begin());
    }
    const auto level_key = [&](std::size_t c) {
      if constexpr (std::is_same_v<S, ClassStats>) {
        return per_level[c].n > 0.0 ? per_level[c].counts[ref_class] / per_level[c].n
                                    : 0.0;
      } else {
        return per_level[c].mean();
      }
    };
    std::sort(levels.begin(), levels.end(), [&](std::size_t a, std::size_t b) {
      const double ka = level_key(a);
      const double kb = level_key(b);
      if (ka != kb) return ka < kb;
      return a < b;
    });

    S right = make_stats<S>();
    for (const auto c : levels) right.merge(per_level[c]);
    const double parent = right.impurity();
    S left = make_stats<S>();
    for (std::size_t i = 0; i + 1 < levels.size(); ++i) {
      const std::size_t c = levels[i];
      left.merge(per_level[c]);
      right.unmerge(per_level[c]);
      if (left.n < min_leaf_ || right.n < min_leaf_) continue;
      const double improve = parent - left.impurity() - right.impurity();
      if (improve > best.improve) {
        std::vector<std::uint8_t> mask(k, 0);
        for (std::size_t j = 0; j <= i; ++j) mask[levels[j]] = 1;
        best = {true, f, true, 0.0, std::move(mask), improve};
      }
    }
  }

  struct PartitionResult {
    std::size_t mid;
    bool missing_left;
  };

  /// Splits rows_[begin, end) in place: left child rows land in
  /// [begin, mid), right child rows in [mid, end); each child keeps its
  /// non-missing rows (in parent order) ahead of the missing rows it
  /// inherited, matching the exhaustive engine's child construction. When
  /// presorting, every threaded feature order is stably partitioned in
  /// lockstep so child segments keep the (value, row id) contract.
  PartitionResult partition(std::size_t begin, std::size_t end,
                            const BestSplit& best) {
    left_buf_.clear();
    right_buf_.clear();
    miss_buf_.clear();
    double left_w = 0.0;
    double right_w = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = rows_[i];
      const double xv = data_.x(r, best.feature);
      if (std::isnan(xv)) {
        miss_buf_.push_back(r);
        continue;
      }
      const bool goes_left =
          best.categorical ? best.go_left[static_cast<std::size_t>(xv)] != 0
                           : xv < best.threshold;
      if (goes_left) {
        left_buf_.push_back(r);
        left_w += w(r);
      } else {
        right_buf_.push_back(r);
        right_w += w(r);
      }
    }
    // Missing split-feature values follow the bigger child (by weight —
    // identical to the seed's bag-entry count).
    const bool missing_left = left_w >= right_w;
    auto& missing_dst = missing_left ? left_buf_ : right_buf_;
    missing_dst.insert(missing_dst.end(), miss_buf_.begin(), miss_buf_.end());

    util::ensure(!left_buf_.empty() && !right_buf_.empty(),
                 "split produced an empty child");

    if (presort_) {
      for (const auto r : left_buf_) side_[r] = 1;
      for (const auto r : right_buf_) side_[r] = 0;
    }
    std::copy(left_buf_.begin(), left_buf_.end(),
              rows_.begin() + static_cast<std::ptrdiff_t>(begin));
    const std::size_t mid = begin + left_buf_.size();
    std::copy(right_buf_.begin(), right_buf_.end(),
              rows_.begin() + static_cast<std::ptrdiff_t>(mid));

    if (presort_) {
      for (std::size_t f = 0; f < order_.size(); ++f) {
        if (!order_[f].empty()) partition_order(order_[f], begin, end);
      }
    }
    return {mid, missing_left};
  }

  /// Stable two-way pass by side_: left rows keep their order in place
  /// (the write cursor never passes the read cursor), right rows collect in
  /// ord_right_ and follow them. A segment lists its present rows before
  /// its missing ones, so this yields [left-present, left-missing,
  /// right-present, right-missing] — exactly the layout the root sort
  /// established — without reading a feature value. Every row is written
  /// to both sides and only the cursor of its own side advances.
  void partition_order(std::vector<std::uint32_t>& ord, std::size_t begin,
                       std::size_t end) {
    if (ord_right_.size() < end - begin) ord_right_.resize(end - begin);
    std::size_t left = begin;
    std::size_t right = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = ord[i];
      const std::size_t goes_left = side_[r];
      ord[left] = r;
      ord_right_[right] = r;
      left += goes_left;
      right += 1 - goes_left;
    }
    std::copy(ord_right_.begin(),
              ord_right_.begin() + static_cast<std::ptrdiff_t>(right),
              ord.begin() + static_cast<std::ptrdiff_t>(left));
  }

  template <typename S>
  std::int32_t grow_node(std::size_t begin, std::size_t end, std::uint32_t depth,
                         std::int32_t parent, std::int32_t hist) {
    const auto node_id = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_[static_cast<std::size_t>(node_id)].parent = parent;
    nodes_[static_cast<std::size_t>(node_id)].depth = depth;

    // One statistics pass per node; the same object seeds every numeric
    // sweep below instead of being re-derived per feature.
    const S stats = node_stats<S>(begin, end);
    fill_node(nodes_[static_cast<std::size_t>(node_id)], stats);
    if (depth == 0) {
      root_impurity_ = nodes_[static_cast<std::size_t>(node_id)].impurity;
    }

    if (stats.n < static_cast<double>(cfg_.min_samples_split) ||
        depth >= cfg_.max_depth ||
        nodes_[static_cast<std::size_t>(node_id)].impurity <= 1e-12) {
      release_hist(hist);
      return node_id;
    }

    BestSplit best;
    {
      const SearchTimer timer(split_search_ns_);
      for (std::size_t f = 0; f < data_.num_features(); ++f) {
        if (!allowed(f)) continue;
        if (data_.info(f).categorical) {
          search_categorical<S>(begin, end, f, best);
        } else {
          search_numeric<S>(begin, end, f, stats, best, hist);
        }
      }
    }
    // rpart's rule: the split must improve relative error by at least cp.
    if (!best.found || best.improve < cfg_.cp * std::max(root_impurity_, 1e-12)) {
      release_hist(hist);
      return node_id;
    }

    const PartitionResult part = partition(begin, end, best);
    std::pair<std::int32_t, std::int32_t> child_hist{kNoHist, kNoHist};
    if (hist != kNoHist) {
      const SearchTimer timer(split_search_ns_);
      child_hist = split_hist(begin, part.mid, end, depth + 1, hist);
    }
    {
      Node& node = nodes_[static_cast<std::size_t>(node_id)];
      node.feature = best.feature;
      node.categorical = best.categorical;
      node.threshold = best.threshold;
      node.go_left = best.go_left;
      node.missing_goes_left = part.missing_left;
      node.improve = best.improve;
    }
    const std::int32_t left_id =
        grow_node<S>(begin, part.mid, depth + 1, node_id, child_hist.first);
    nodes_[static_cast<std::size_t>(node_id)].left = left_id;
    const std::int32_t right_id =
        grow_node<S>(part.mid, end, depth + 1, node_id, child_hist.second);
    nodes_[static_cast<std::size_t>(node_id)].right = right_id;
    return node_id;
  }
};

void check_grow_inputs(const Dataset& data, const Config& config,
                       std::span<const double> row_weights) {
  util::require(data.num_rows() > 0, "cannot grow a tree on empty data");
  util::require(data.has_response(), "growing requires a response column");
  util::require(config.min_samples_leaf >= 1, "min_samples_leaf must be >= 1");
  util::require(config.allowed_features.empty() ||
                    config.allowed_features.size() == data.num_features(),
                "allowed_features size must match feature count");
  util::require(row_weights.empty() || row_weights.size() == data.num_rows(),
                "row_weights size must match the dataset row count");
  for (const double wt : row_weights) {
    util::require(wt >= 0.0 && !std::isnan(wt),
                  "row_weights must be non-negative and not NaN");
  }
}

}  // namespace

SharedOrder::SharedOrder(const Dataset& data)
    : num_rows_(data.num_rows()), offsets_(data.num_features() + 1, 0) {
  const obs::ScopedTimer timer(obs::registry().histogram("cart.presort_us"));
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    offsets_[f + 1] = offsets_[f] + (data.info(f).categorical ? 0 : num_rows_);
  }
  std::vector<std::size_t> numeric;
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    if (!data.info(f).categorical) numeric.push_back(f);
  }
  // Every buffer is allocated here, on the calling thread: the order as one
  // block, and one radix scratch per chunk. Chunk c sorts numeric features
  // c, c + chunks, ... into disjoint slices of the block.
  // With an integer regression response the features are also ranked along
  // their fresh order, each into its own column of one n x numeric block.
  rows_.resize(offsets_.back());
  const std::span<const double> y = data.responses();
  const bool bin = data.task() == Task::kRegression &&
                   std::all_of(y.begin(), y.end(), [](double v) { return v == std::trunc(v); });
  const std::size_t cap = bin ? max_bins(num_rows_) : 0;
  std::vector<std::uint16_t> codes(bin ? num_rows_ * numeric.size() : 0);
  const auto values = std::make_unique_for_overwrite<double[]>(cap * numeric.size());
  std::vector<std::optional<std::size_t>> bins(numeric.size());
  const std::size_t chunks = std::min(util::num_threads(), numeric.size());
  std::vector<RadixScratch> scratch;
  scratch.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) scratch.emplace_back(num_rows_);
  util::parallel_for(chunks, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) {
      for (std::size_t i = c; i < numeric.size(); i += chunks) {
        const std::size_t f = numeric[i];
        const std::span<std::uint32_t> order =
            std::span<std::uint32_t>(rows_).subspan(offsets_[f], num_rows_);
        presort_feature(data, f, order, scratch[c]);
        if (bin) {
          bins[i] = rank_feature(data.column(f), order, codes.data() + i, numeric.size(),
                                 std::span<double>(values.get() + i * cap, cap));
        }
      }
    }
  });
  if (bin) bins_ = pack_bins(numeric, bins, std::move(codes), values.get(), cap);
}

Tree grow(const Dataset& data, const Config& config) {
  return grow(data, config, std::span<const double>{});
}

Tree grow(const Dataset& data, const Config& config,
          std::span<const double> row_weights) {
  check_grow_inputs(data, config, row_weights);
  return Builder(data, config, row_weights, nullptr).build();
}

Tree grow(const Dataset& data, const Config& config,
          std::span<const double> row_weights, const SharedOrder& order) {
  check_grow_inputs(data, config, row_weights);
  util::require(order.num_rows() == data.num_rows() &&
                    order.num_features() == data.num_features(),
                "shared order does not match the dataset's shape");
  return Builder(data, config, row_weights, &order).build();
}

}  // namespace rainshine::cart
