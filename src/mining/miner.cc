#include "src/mining/miner.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "src/mining/coverage.h"
#include "src/mining/lca.h"
#include "src/mining/pattern_kernel.h"
#include "src/ml/feature_matrix.h"
#include "src/ml/random_forest.h"
#include "src/ml/varclus.h"

namespace cajade {

namespace {

/// Builds an ML feature matrix from (a row sample of) the APT. The sample
/// is drawn over global row ids, so the matrix — and everything the forest
/// learns from it — is independent of the slicing.
FeatureMatrix BuildFeatureMatrix(const AptSliceSet& ss,
                                 const std::vector<int>& cols,
                                 const PtClasses& classes, size_t row_cap,
                                 Rng* rng) {
  FeatureMatrix m;
  std::vector<size_t> rows = rng->SampleIndices(ss.total_rows, row_cap);
  std::vector<std::pair<size_t, size_t>> located(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) located[i] = ss.Locate(rows[i]);
  m.labels.reserve(rows.size());
  for (const auto& [si, r] : located) {
    m.labels.push_back(classes[(*ss.slices[si].pt_row)[r]]);
  }
  m.columns.reserve(cols.size());
  for (int c : cols) {
    m.names.push_back(ss.schema_table().schema().column(c).name);
    m.is_categorical.push_back(ss.schema_table().column(c).type() ==
                               DataType::kString);
    std::vector<double> values;
    values.reserve(rows.size());
    for (const auto& [si, r] : located) {
      // Dictionary codes are comparable across slices (the AptSliceSet
      // dictionary invariant), so categorical features agree with the
      // unsharded matrix code for code.
      const Column& col = ss.slices[si].table->column(c);
      if (col.IsNull(r)) {
        values.push_back(std::nan(""));
      } else if (col.type() == DataType::kString) {
        values.push_back(static_cast<double>(col.GetCode(r)));
      } else {
        values.push_back(col.GetNumeric(r));
      }
    }
    m.columns.push_back(std::move(values));
  }
  return m;
}

/// Distinct fragment boundaries of a numeric column: lambda_#frag quantiles
/// over the view's APT rows (Section 3.4). Values are collected slice by
/// slice in order and sorted, so the quantiles match the unsharded scan.
std::vector<double> FragmentBoundaries(const AptSliceSet& ss,
                                       const MetricsView& view, int col,
                                       int num_fragments) {
  std::vector<double> values;
  values.reserve(view.sampled_rows);
  for (size_t si = 0; si < ss.slices.size(); ++si) {
    const Column& column = ss.slices[si].table->column(col);
    if (view.all_rows) {
      for (size_t r = 0; r < ss.slices[si].num_rows(); ++r) {
        if (!column.IsNull(r)) values.push_back(column.GetNumeric(r));
      }
    } else {
      for (int32_t r : view.slice_rows[si]) {
        if (!column.IsNull(r)) values.push_back(column.GetNumeric(r));
      }
    }
  }
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  std::vector<double> bounds;
  int q = std::max(2, num_fragments);
  for (int i = 0; i < q; ++i) {
    size_t idx = static_cast<size_t>(
        std::llround(static_cast<double>(i) / (q - 1) * (values.size() - 1)));
    bounds.push_back(values[idx]);
  }
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  return bounds;
}

/// The PT coverage of per-slice match masks. On a single identity slice
/// the mask is the coverage set itself; otherwise every slice's mask is
/// projected through its pt_row (global positions) into `covered`, Reset
/// to `num_positions`, so scores are independent of the slicing.
const CoverageBitmap& Coverage(const AptSliceSet& ss,
                               const std::vector<CoverageBitmap>& masks,
                               size_t num_positions, CoverageBitmap* covered) {
  if (ss.pt_identity) return masks[0];
  covered->Reset(num_positions);
  for (size_t si = 0; si < ss.slices.size(); ++si) {
    CoverageScorer::CoverageFromMask(masks[si], *ss.slices[si].pt_row, covered);
  }
  return *covered;
}

/// Per-slice masks of the predicate list slots[0 .. num_slots) within
/// `view` (its row masks, or every row); returns their summed popcount.
size_t MatchInView(const PredicateTable& table, const MetricsView& view,
                   const uint32_t* slots, size_t num_slots,
                   std::vector<CoverageBitmap>* masks) {
  size_t total = 0;
  for (size_t si = 0; si < masks->size(); ++si) {
    total += table.Match(slots, num_slots, si,
                         view.all_rows ? nullptr : &view.slice_masks[si],
                         &(*masks)[si]);
  }
  return total;
}

/// \brief The compact refinement tree of one Mine call.
///
/// Every node binds one predicate-table slot on top of its parent's
/// pattern, so a refinement child costs one 8-byte node, not a copied and
/// re-sorted Pattern. A root with m predicates is a chain of m nodes, and
/// the empty pattern is a root without a slot. Patterns that share a
/// predicate share its slot. Ranking gathers a node's slot list on demand;
/// Patterns are built only for the winners.
class PatternTree {
 public:
  explicit PatternTree(const PredicateTable* table) : table_(table) {}

  const PredicateTable& table() const { return *table_; }

  /// Adds a root binding slots[0 .. num_slots) as a chain; returns its last
  /// node. No slots: the empty pattern.
  uint32_t AddRoot(const uint32_t* slots, size_t num_slots) {
    nodes_.push_back({-1, num_slots == 0 ? kNoSlot : slots[0]});
    auto node = static_cast<uint32_t>(nodes_.size() - 1);
    for (size_t i = 1; i < num_slots; ++i) node = AddChild(node, slots[i]);
    return node;
  }

  /// Adds a child of `parent` that also binds `slot`; returns its node id.
  uint32_t AddChild(uint32_t parent, uint32_t slot) {
    nodes_.push_back({static_cast<int32_t>(parent), slot});
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  /// True for the root without predicates: the empty pattern.
  bool IsEmptyRoot(uint32_t node) const { return nodes_[node].slot == kNoSlot; }

  /// Fills `out` with the slots of `node`'s pattern in (col, op) order, the
  /// order of Pattern::preds. Allocation-free once `out` has grown to the
  /// longest pattern.
  void Gather(uint32_t node, std::vector<uint32_t>* out) const {
    out->clear();
    for (int64_t n = node; n >= 0; n = nodes_[n].parent) {
      if (nodes_[n].slot != kNoSlot) out->push_back(nodes_[n].slot);
    }
    std::sort(out->begin(), out->end(), [this](uint32_t a, uint32_t b) {
      const PatternPredicate& pa = table_->slot(a).pred;
      const PatternPredicate& pb = table_->slot(b).pred;
      if (pa.col != pb.col) return pa.col < pb.col;
      return static_cast<int>(pa.op) < static_cast<int>(pb.op);
    });
  }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  struct Node {
    int32_t parent;  // -1 for a root
    uint32_t slot;   // kNoSlot for the empty pattern
  };

  const PredicateTable* table_;
  std::vector<Node> nodes_;
};

/// A scored pool entry: a tree node with its scores for one primary tuple.
struct PoolEntry {
  uint32_t node;
  int primary;
  PatternScores scores;
};

/// D(phi, phi') over two predicate lists in column order; `pred` maps a
/// list element to its PatternPredicate. Constants compare as Values: two
/// fragment bounds can truncate to the same INT64.
template <typename T, typename GetPred>
double Diversity(const T* a, size_t na, const T* b, size_t nb, GetPred pred) {
  if (na == 0) return 1.0;
  double sum = 0.0;
  for (size_t i = 0; i < na; ++i) {
    const PatternPredicate& pa = pred(a[i]);
    const PatternPredicate* pb = nullptr;
    for (size_t j = 0; j < nb && pb == nullptr; ++j) {
      if (pred(b[j]).col == pa.col) pb = &pred(b[j]);
    }
    if (pb == nullptr) {
      sum += 1.0;
    } else if (pa.value == pb->value) {
      sum += -2.0;
    } else {
      sum += -0.3;
    }
  }
  return sum / static_cast<double>(na);
}

/// Three-way comparison of the Pattern::Key() strings of two slot lists in
/// (col, op) order. Leading slots the lists share add equal text and are
/// skipped. The first differing key parts then decide, unless one is a
/// prefix of the other; only that rare case joins the remaining parts into
/// the two reused buffers.
int CompareKeys(const PredicateTable& table, const uint32_t* a, size_t na,
                const uint32_t* b, size_t nb, std::string* buf_a,
                std::string* buf_b) {
  size_t i = 0;
  while (i < na && i < nb && a[i] == b[i]) ++i;
  if (i == na || i == nb) {
    return static_cast<int>(na > i) - static_cast<int>(nb > i);
  }
  const std::string& pa = table.slot(a[i]).key_part;
  const std::string& pb = table.slot(b[i]).key_part;
  const size_t common = std::min(pa.size(), pb.size());
  if (int c = pa.compare(0, common, pb, 0, common); c != 0) return c;
  auto join = [&table, i](const uint32_t* slots, size_t n, std::string* out) {
    out->clear();
    for (size_t j = i; j < n; ++j) {
      if (j > i) *out += '&';
      *out += table.slot(slots[j]).key_part;
    }
  };
  join(a, na, buf_a);
  join(b, nb, buf_b);
  return buf_a->compare(*buf_b);
}

/// Candidates examined by the greedy diversity pass.
constexpr size_t kDiversityWindow = 2000;

/// SelectTopKDiverse over tree nodes, in the total order documented in
/// miner.h. Predicate lists are gathered once, and only for the entries
/// the key order can reach: those at or above the window's threshold
/// F-score. Keys are compared only inside F-score tie runs.
std::vector<size_t> RankTopK(const PatternTree& tree,
                             const std::vector<PoolEntry>& pool, size_t k,
                             bool use_diversity) {
  if (k == 0 || pool.empty()) return {};
  auto fscore = [&](size_t i) { return pool[i].scores.fscore; };
  const size_t window = use_diversity ? kDiversityWindow : k;
  std::vector<size_t> order(pool.size());
  std::iota(order.begin(), order.end(), size_t{0});
  auto reached = order.end();
  if (order.size() > window) {
    // The window is the head of the total order: every entry above the
    // threshold F-score, then the smallest keys of the tie run at it.
    std::nth_element(order.begin(), order.begin() + (window - 1), order.end(),
                     [&](size_t a, size_t b) { return fscore(a) > fscore(b); });
    const double threshold = fscore(order[window - 1]);
    const auto ties = std::partition(order.begin(), order.end(), [&](size_t i) {
      return fscore(i) > threshold;
    });
    reached = std::partition(
        ties, order.end(), [&](size_t i) { return fscore(i) == threshold; });
  }

  // slots[first[i] .. first[i] + count[i]) lists entry i's predicates.
  const PredicateTable& table = tree.table();
  std::vector<uint32_t> slots;
  std::vector<uint32_t> first(pool.size()), count(pool.size());
  std::vector<uint32_t> gathered;
  for (auto it = order.begin(); it != reached; ++it) {
    tree.Gather(pool[*it].node, &gathered);
    first[*it] = static_cast<uint32_t>(slots.size());
    count[*it] = static_cast<uint32_t>(gathered.size());
    slots.insert(slots.end(), gathered.begin(), gathered.end());
  }
  std::string buf_a, buf_b;
  auto before = [&](size_t a, size_t b) {
    if (fscore(a) != fscore(b)) return fscore(a) > fscore(b);
    if (int c = CompareKeys(table, slots.data() + first[a], count[a],
                            slots.data() + first[b], count[b], &buf_a, &buf_b);
        c != 0) {
      return c < 0;
    }
    return a < b;
  };
  if (order.size() > window) {
    const auto last = order.begin() + static_cast<ptrdiff_t>(window - 1);
    std::nth_element(order.begin(), last, reached, before);
    order.resize(window);
  }
  std::sort(order.begin(), order.end(), before);
  if (!use_diversity) return order;

  auto diversity = [&](size_t a, size_t b) {
    return Diversity(slots.data() + first[a], count[a], slots.data() + first[b],
                     count[b], [&table](uint32_t id) -> const PatternPredicate& {
                       return table.slot(id).pred;
                     });
  };
  // Greedy wscore = F-score + min D over the picks. min_d[pos] is a running
  // minimum updated against the newest pick only; min is exact, so the
  // picks equal a full rescan of every pick.
  std::vector<double> min_d(order.size(), 1e18);
  std::vector<bool> used(order.size(), false);
  std::vector<size_t> selected;
  while (selected.size() < k) {
    double best_score = -1e18;
    size_t best_pos = SIZE_MAX;
    for (size_t pos = 0; pos < order.size(); ++pos) {
      if (used[pos]) continue;
      double wscore = fscore(order[pos]);
      if (!selected.empty()) wscore += min_d[pos];
      if (wscore > best_score) {
        best_score = wscore;
        best_pos = pos;
      }
    }
    if (best_pos == SIZE_MAX) break;
    used[best_pos] = true;
    selected.push_back(order[best_pos]);
    for (size_t pos = 0; pos < order.size(); ++pos) {
      if (!used[pos]) {
        min_d[pos] = std::min(min_d[pos], diversity(order[pos], order[best_pos]));
      }
    }
  }
  return selected;
}

/// Recursive-refinement driver state. Everything a candidate needs is built
/// once per Mine: the predicate table, the coverage bitmap, and the
/// per-depth mask buffers. Evaluating a pattern therefore allocates nothing
/// beyond amortized growth of the node and pool vectors.
struct RefineContext {
  const AptSliceSet* slices;
  const CajadeConfig* config;
  const PredicateTable* table;
  PatternTree* tree;
  std::vector<PoolEntry>* pool;
  /// The refinement predicates of numeric attribute a are the table slots
  /// [attr_begin[a], attr_begin[a+1]), in (op, boundary) order.
  std::vector<uint32_t> attr_begin;
  CoverageScorer scorer;                          // built once per Mine()
  CoverageBitmap covered;                         // reusable scratch
  /// Child match masks: [depth][slice]. Pre-sized in MineSlices to the
  /// maximum recursion depth so references stay stable across recursive
  /// calls.
  std::vector<std::vector<CoverageBitmap>> mask_arena;
  size_t evaluated = 0;
  size_t row_work = 0;
  bool budget_exhausted = false;
  double fscore_seconds = 0.0;  // scoring time inside the refinement phase
};

/// Adds the refinement predicates to the table: for each numeric attribute,
/// op and non-trivial fragment boundary, the constant (INT64 columns
/// truncate the boundary). A child's match mask is then its parent's ANDed
/// with the predicate's slot mask, which is bit-identical to filtering the
/// parent by the predicate.
void AddNumericSlots(const AptSliceSet& ss, const MetricsView& view,
                     const std::vector<int>& num_attrs, int num_fragments,
                     PredicateTable* table, std::vector<uint32_t>* attr_begin) {
  const Table& schema = ss.schema_table();
  attr_begin->assign(1, static_cast<uint32_t>(table->num_slots()));
  for (int col : num_attrs) {
    const std::vector<double> bounds =
        FragmentBoundaries(ss, view, col, num_fragments);
    for (PredOp op : {PredOp::kLe, PredOp::kGe}) {
      for (size_t b = 0; b < bounds.size(); ++b) {
        // Skip trivial predicates: <= max or >= min match everything.
        if (op == PredOp::kLe && b + 1 == bounds.size()) continue;
        if (op == PredOp::kGe && b == 0) continue;
        const double c = bounds[b];
        Value constant = schema.column(col).type() == DataType::kInt64
                             ? Value(static_cast<int64_t>(c))
                             : Value(c);
        table->Add(PatternPredicate::Make(schema, col, op, std::move(constant)));
      }
    }
    attr_begin->push_back(static_cast<uint32_t>(table->num_slots()));
  }
}

/// Scores tree node `node` from its per-slice match masks (bit r of
/// masks[si] = slice si row r matches; `total_count` is their summed
/// popcount), appends qualifying pool entries, and recursively refines
/// with numeric predicates on attributes after `next_attr` (the ordering
/// removes duplicate generation). `depth` is the node's number of numeric
/// predicates and indexes the arena masks its children match into; the
/// caller's `matched_masks` live at depth-1 (or are the root's) and stay
/// untouched.
void ExpandPattern(RefineContext& ctx, uint32_t node,
                   const std::vector<CoverageBitmap>& matched_masks,
                   size_t total_count, size_t next_attr, size_t depth) {
  if (ctx.evaluated >= ctx.config->refinement_budget ||
      ctx.row_work >= ctx.config->refinement_row_budget) {
    ctx.budget_exhausted = true;
    return;
  }
  ++ctx.evaluated;

  double recall[2];
  Timer scoring;
  const CoverageBitmap& cov = Coverage(*ctx.slices, matched_masks,
                                       ctx.scorer.num_positions(), &ctx.covered);
  const bool empty = ctx.tree->IsEmptyRoot(node);
  for (int primary = 0; primary < 2; ++primary) {
    PatternScores s = ctx.scorer.Score(cov, primary);
    recall[primary] = s.recall;
    if (!empty && s.recall > ctx.config->recall_threshold) {
      ctx.pool->push_back({node, primary, s});
    }
  }
  ctx.fscore_seconds += scoring.ElapsedSeconds();

  // Proposition 3.1: refinements cannot beat the parent's recall.
  if (ctx.config->enable_recall_pruning &&
      std::max(recall[0], recall[1]) <= ctx.config->recall_threshold) {
    return;
  }
  // Seeds bind only categorical slots (LCA runs over cat_attrs), so
  // `depth` is the pattern's number of numeric predicates and every
  // attribute from next_attr on is still free.
  if (static_cast<int>(depth) >= ctx.config->max_numeric_attrs) return;

  // The arena is pre-sized in MineSlices() to the maximum recursion depth,
  // so these references (and the `matched_masks` references held by callers
  // above) stay valid across the recursive calls below.
  std::vector<CoverageBitmap>& child_masks = ctx.mask_arena[depth];

  for (size_t a = next_attr; a + 1 < ctx.attr_begin.size(); ++a) {
    for (uint32_t slot = ctx.attr_begin[a]; slot < ctx.attr_begin[a + 1];
         ++slot) {
      // Charged once per candidate (the same rows the unsharded filter
      // scans, summed over slices) so the row budget trips at the same
      // evaluation count at any shard size.
      ctx.row_work += total_count;
      size_t child_total = 0;
      for (size_t si = 0; si < child_masks.size(); ++si) {
        child_total += ctx.table->Match(&slot, 1, si, &matched_masks[si],
                                        &child_masks[si]);
      }
      if (child_total == 0) continue;
      ExpandPattern(ctx, ctx.tree->AddChild(node, slot), child_masks,
                    child_total, a + 1, depth + 1);
      if (ctx.budget_exhausted) return;
    }
  }
}

}  // namespace

double DiversityScore(const Pattern& a, const Pattern& b) {
  return Diversity(a.preds.data(), a.preds.size(), b.preds.data(),
                   b.preds.size(),
                   [](const PatternPredicate& p) -> const PatternPredicate& {
                     return p;
                   });
}

std::vector<size_t> SelectTopKDiverse(const std::vector<MinedPattern>& pool,
                                      size_t k, bool use_diversity) {
  PredicateTable table({});
  PatternTree tree(&table);
  std::vector<PoolEntry> entries;
  entries.reserve(pool.size());
  std::vector<uint32_t> slots;
  for (const MinedPattern& mp : pool) {
    slots.clear();
    for (const PatternPredicate& p : mp.pattern.preds) {
      slots.push_back(table.Add(p));
    }
    entries.push_back(
        {tree.AddRoot(slots.data(), slots.size()), mp.primary, mp.scores});
  }
  return RankTopK(tree, entries, k, use_diversity);
}

std::vector<int> PatternMiner::SelectAttributes(const AptSliceSet& ss,
                                                const PtClasses& classes,
                                                Rng* rng) const {
  const std::vector<int>& eligible = *ss.pattern_cols;
  if (!config_->enable_feature_selection || eligible.size() <= 2) {
    return eligible;
  }
  ScopedStep step(profiler_, "Feature Selection");

  FeatureMatrix matrix = BuildFeatureMatrix(
      ss, eligible, classes, std::max(config_->forest_row_cap * 2, size_t{256}),
      rng);
  // Degenerate labels: nothing to learn, keep everything.
  bool has0 = false, has1 = false;
  for (int l : matrix.labels) (l == 0 ? has0 : has1) = true;
  if (!has0 || !has1) return eligible;

  // One rank encoding serves the forest's split search and Cramer's V.
  FeatureRanks ranks = EncodeRanks(matrix);
  RandomForest forest;
  ForestOptions options;
  options.num_trees = config_->forest_trees;
  options.tree.max_depth = config_->forest_max_depth;
  options.row_cap = config_->forest_row_cap;
  forest.Train(matrix, ranks, options, rng);
  const std::vector<double>& importance = forest.importances();

  double total = 0;
  for (double v : importance) total += v;
  if (total <= 0) return eligible;  // forest never split

  // Rank by importance, keep the lambda_#sel-attr count/fraction.
  std::vector<int> ranked(eligible.size());
  for (size_t i = 0; i < ranked.size(); ++i) ranked[i] = static_cast<int>(i);
  std::sort(ranked.begin(), ranked.end(), [&](int a, int b) {
    if (importance[a] != importance[b]) return importance[a] > importance[b];
    return a < b;
  });
  // sel_attr is non-negative and not NaN (MineSlices checks); clamping in
  // double keeps huge counts from overflowing the cast.
  const double num_eligible = static_cast<double>(eligible.size());
  const double want = config_->sel_attr <= 1.0
                          ? std::ceil(config_->sel_attr * num_eligible)
                          : config_->sel_attr;
  size_t keep = static_cast<size_t>(std::min(want, num_eligible));
  keep = std::max<size_t>(keep, 1);
  ranked.resize(keep);
  // Drop zero-importance attributes outright: they are constant or useless
  // for separating the two outputs, and patterns quoting them mislead users
  // (the failure mode Section 3.1 calls out).
  while (ranked.size() > 1 && importance[ranked.back()] <= 0.0) {
    ranked.pop_back();
  }

  // Cluster the kept attributes; one representative per cluster. The
  // forest is done with the matrix, so the kept columns move out of it.
  FeatureMatrix kept;
  FeatureRanks kept_ranks;
  std::vector<double> kept_importance;
  for (int fi : ranked) {
    kept.names.push_back(std::move(matrix.names[fi]));
    kept.is_categorical.push_back(matrix.is_categorical[fi]);
    kept.columns.push_back(std::move(matrix.columns[fi]));
    kept_ranks.ranks.push_back(std::move(ranks.ranks[fi]));
    kept_ranks.num_ranks.push_back(ranks.num_ranks[fi]);
    kept_importance.push_back(importance[fi]);
  }
  kept.labels = std::move(matrix.labels);
  AttributeClustering clustering = ClusterAttributes(
      kept, kept_ranks, kept_importance, config_->cluster_threshold);

  std::vector<int> out;
  for (int rep : clustering.representatives) {
    out.push_back(eligible[ranked[rep]]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<MineResult> PatternMiner::Mine(const Apt& apt, const PtClasses& classes,
                                      Rng* rng) const {
  return MineSlices(MakeSliceSet(apt), classes, rng);
}

Result<MineResult> PatternMiner::Mine(const ShardedApt& apt,
                                      const PtClasses& classes,
                                      Rng* rng) const {
  return MineSlices(MakeSliceSet(apt), classes, rng);
}

Result<MineResult> PatternMiner::MineSlices(const AptSliceSet& ss,
                                            const PtClasses& classes,
                                            Rng* rng) const {
  // Knobs that reach integer casts or container sizes: a bad value is the
  // caller's error, not a crash or an internal failure deep in training.
  if (std::isnan(config_->sel_attr) || config_->sel_attr < 0) {
    return Status::InvalidArgument("sel_attr must be a non-negative number");
  }
  if (std::isnan(config_->pat_sample_rate) || config_->pat_sample_rate < 0) {
    return Status::InvalidArgument(
        "pat_sample_rate must be a non-negative number");
  }
  if (config_->forest_trees < 0) {
    return Status::InvalidArgument("forest_trees must be >= 0");
  }
  if (config_->forest_max_depth < -1) {
    return Status::InvalidArgument("forest_max_depth must be >= -1");
  }
  MineResult result;
  result.apt_rows = ss.total_rows;
  result.num_attributes = ss.pattern_cols->size();
  if (ss.pt_rows_used->empty()) {
    return Status::InvalidArgument("APT covers no provenance rows");
  }
  const std::vector<AptSlice>& slices = ss.slices;
  const size_t num_slices = slices.size();

  // (i) Attribute filtering + clustering.
  std::vector<int> attrs = SelectAttributes(ss, classes, rng);
  result.selected_attributes = attrs.size();
  std::vector<int> cat_attrs, num_attrs;
  for (int c : attrs) {
    if (ss.schema_table().column(c).type() == DataType::kString) {
      cat_attrs.push_back(c);
    } else {
      num_attrs.push_back(c);
    }
  }

  // Sampling for F-score calculation.
  MetricsView view;
  {
    ScopedStep step(profiler_, "Sampling for F1");
    view = config_->f1_sample_rate >= 1.0
               ? FullView(ss, classes)
               : SampledView(ss, classes, config_->f1_sample_rate, rng);
  }

  // (ii) LCA candidates over categorical attributes.
  std::vector<LcaCandidate> candidates;
  {
    ScopedStep step(profiler_, "Gen. Pat. Cand.");
    // Compared in double first, so a huge rate never overflows the cast.
    const double want =
        config_->pat_sample_rate * static_cast<double>(ss.total_rows);
    size_t sample = want >= static_cast<double>(config_->pat_sample_cap)
                        ? config_->pat_sample_cap
                        : static_cast<size_t>(want);
    sample = std::min(std::max<size_t>(sample, 16), config_->pat_sample_cap);
    candidates = GenerateLcaCandidates(ss, cat_attrs, sample, rng);
  }
  result.lca_candidates = candidates.size();

  // (iii) Recall-filter candidates; keep the top k_cat by recall as seeds.
  // Every (column, code) a scored candidate quotes is one table slot, so a
  // candidate's per-slice mask is the AND of its slots' masks within the
  // view. Masks project into one PT-wide coverage bitmap, so scores merge
  // across shards by bit-OR of coverage, never by concatenating rows.
  std::vector<const Table*> slice_tables;
  for (const AptSlice& slice : slices) slice_tables.push_back(slice.table);
  PredicateTable table(std::move(slice_tables));
  // cand_slots[cand_begin[i] .. cand_begin[i+1]) are candidate i's slots.
  std::vector<uint32_t> cand_slots;
  std::vector<size_t> cand_begin(1, 0);
  struct Seed {
    size_t cand;
    double recall;
  };
  std::vector<Seed> seeds;
  std::vector<CoverageBitmap> masks(num_slices);
  CoverageBitmap covered;
  CoverageScorer scorer(classes, view);
  {
    ScopedStep step(profiler_, "F-score Calc.");
    // Bound the number of candidates scored (they are ordered by pair
    // frequency, the LCA heuristic's own ranking).
    const size_t kMaxScored = 500;
    for (size_t i = 0; i < candidates.size() && i < kMaxScored; ++i) {
      const std::vector<int32_t>& codes = candidates[i].codes;
      for (size_t c = 0; c < codes.size(); ++c) {
        if (codes[c] >= 0) {
          cand_slots.push_back(table.InternEq(cat_attrs[c], codes[c]));
        }
      }
      cand_begin.push_back(cand_slots.size());
      MatchInView(table, view, cand_slots.data() + cand_begin[i],
                  cand_begin[i + 1] - cand_begin[i], &masks);
      const CoverageBitmap& cov =
          Coverage(ss, masks, scorer.num_positions(), &covered);
      double best_recall = 0;
      for (int primary = 0; primary < 2; ++primary) {
        best_recall = std::max(best_recall, scorer.Score(cov, primary).recall);
      }
      if (best_recall > config_->recall_threshold) {
        seeds.push_back({i, best_recall});
      }
    }
    std::sort(seeds.begin(), seeds.end(), [](const Seed& a, const Seed& b) {
      return a.recall > b.recall;
    });
    if (seeds.size() > static_cast<size_t>(config_->k_cat)) {
      seeds.resize(config_->k_cat);
    }
  }

  // (iv) Numeric refinement over the compact tree. The phase is timed once
  // here; its scoring time is charged to "F-score Calc.", the rest to
  // "Refine Patterns", so nested recursion is never counted twice.
  Timer refine_timer;
  PatternTree tree(&table);
  std::vector<PoolEntry> pool;
  RefineContext ctx;
  ctx.slices = &ss;
  ctx.config = config_;
  ctx.table = &table;
  ctx.tree = &tree;
  ctx.pool = &pool;
  ctx.scorer = std::move(scorer);
  // One mask buffer set per recursion level; each level adds one
  // numeric predicate, so num_attrs.size() + 1 covers the deepest chain.
  // Sizing up front keeps buffer references stable across recursive calls.
  ctx.mask_arena.resize(num_attrs.size() + 1);
  for (auto& level : ctx.mask_arena) level.resize(num_slices);
  AddNumericSlots(ss, view, num_attrs, config_->num_fragments, &table,
                  &ctx.attr_begin);
  // Each seed is a root over its categorical slots; the empty pattern,
  // last, seeds numeric-only refinements.
  auto expand_root = [&](const uint32_t* slots, size_t num_slots) {
    const size_t total = MatchInView(table, view, slots, num_slots, &masks);
    ExpandPattern(ctx, tree.AddRoot(slots, num_slots), masks, total, 0, 0);
  };
  for (const Seed& seed : seeds) {
    expand_root(cand_slots.data() + cand_begin[seed.cand],
                cand_begin[seed.cand + 1] - cand_begin[seed.cand]);
    if (ctx.budget_exhausted) break;
  }
  if (!ctx.budget_exhausted) expand_root(nullptr, 0);
  result.patterns_evaluated = ctx.evaluated;
  result.budget_exhausted = ctx.budget_exhausted;
  if (profiler_ != nullptr) {
    profiler_->Add("F-score Calc.", ctx.fscore_seconds);
    profiler_->Add("Refine Patterns",
                   refine_timer.ElapsedSeconds() - ctx.fscore_seconds);
  }

  // (v) Diversity-aware top-k.
  std::vector<size_t> picked;
  {
    ScopedStep step(profiler_, "Top-k Selection");
    picked = RankTopK(tree, pool, static_cast<size_t>(config_->top_k),
                      config_->enable_diversity);
  }

  // Exact relative supports (Definition 6) on the full APT for the winners:
  // each winner's slots matched over every row of every slice.
  ScopedStep step(profiler_, "Exact Supports");
  MetricsView full = FullView(ss, classes);
  CoverageScorer full_scorer(classes, full);
  std::vector<uint32_t> slots;
  for (size_t idx : picked) {
    MinedPattern mp;
    tree.Gather(pool[idx].node, &slots);
    for (uint32_t slot : slots) mp.pattern.preds.push_back(table.slot(slot).pred);
    mp.primary = pool[idx].primary;
    mp.scores = pool[idx].scores;
    for (size_t si = 0; si < num_slices; ++si) {
      table.Match(slots.data(), slots.size(), si, nullptr, &masks[si]);
    }
    const CoverageBitmap& cov =
        Coverage(ss, masks, full_scorer.num_positions(), &covered);
    PatternScores sp = full_scorer.Score(cov, mp.primary);
    PatternScores so = full_scorer.Score(cov, 1 - mp.primary);
    mp.exact = sp;
    mp.support_primary = sp.tp;
    mp.total_primary = sp.tp + sp.fn;
    mp.support_other = so.tp;
    mp.total_other = so.tp + so.fn;
    result.top_k.push_back(std::move(mp));
  }
  return result;
}

}  // namespace cajade
