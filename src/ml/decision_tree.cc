#include "src/ml/decision_tree.h"

#include <algorithm>
#include <cmath>

namespace cajade {

namespace {

double Gini(size_t n1, size_t n) {
  if (n == 0) return 0.0;
  double p = static_cast<double>(n1) / static_cast<double>(n);
  return 2.0 * p * (1.0 - p);
}

/// One row in a histogram bin: count in the high 32 bits, class-1 count in
/// the low 32 (a label adds itself).
constexpr uint64_t kRowCount = uint64_t{1} << 32;

}  // namespace

/// Reused training storage: one instance serves the whole tree, partition
/// buffers keyed by depth so a node's right-child rows survive the left
/// subtree's recursion.
struct DecisionTree::TrainScratch {
  std::vector<size_t> sample_idx;        // Fisher-Yates scratch
  std::vector<int> feats;                // feature subset of the current node
  std::vector<uint32_t> labels;          // node rows' labels, gathered once
  std::vector<double> cand_values;       // split candidates, collection order
  std::vector<int32_t> cand_ranks;       // their ranks
  // Dedup stamps, one per rank plus one for -0.0 (which shares +0.0's rank
  // but is a candidate of its own): a key was collected at this (node,
  // feature) iff its stamp equals `epoch`.
  std::vector<uint32_t> seen;
  uint32_t epoch = 0;
  std::vector<uint64_t> hist;            // per rank: kRowCount * count + count1
  std::vector<size_t> counts;            // per candidate: rows on the left
  std::vector<size_t> counts1;           // per candidate: class-1 rows left
  struct Partition {
    std::vector<int> left, right;
  };
  std::vector<Partition> partitions;     // one per depth
};

void DecisionTree::Train(const FeatureMatrix& data, const FeatureRanks& ranks,
                         const std::vector<int>& rows,
                         const TreeOptions& options, Rng* rng,
                         std::vector<double>* importance) {
  nodes_.clear();
  TrainScratch scratch;
  scratch.partitions.resize(static_cast<size_t>(options.max_depth) + 1);
  int32_t max_ranks = 0;
  for (int32_t r : ranks.num_ranks) max_ranks = std::max(max_ranks, r);
  scratch.seen.assign(static_cast<size_t>(max_ranks) + 2, 0);
  scratch.hist.resize(static_cast<size_t>(max_ranks) + 1);
  std::vector<int> working = rows;
  Build(data, ranks, working, 0, options, rng, importance, rows.size(),
        scratch);
}

void DecisionTree::Train(const FeatureMatrix& data, const std::vector<int>& rows,
                         const TreeOptions& options, Rng* rng,
                         std::vector<double>* importance) {
  Train(data, EncodeRanks(data), rows, options, rng, importance);
}

int DecisionTree::Build(const FeatureMatrix& data, const FeatureRanks& ranks,
                        std::vector<int>& rows, int depth,
                        const TreeOptions& options, Rng* rng,
                        std::vector<double>* importance, size_t total_rows,
                        TrainScratch& scratch) {
  int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();

  size_t n = rows.size();
  size_t n1 = 0;
  for (int r : rows) n1 += data.labels[r];
  double p1 = n == 0 ? 0.0 : static_cast<double>(n1) / static_cast<double>(n);
  nodes_[node_id].p1 = p1;

  bool pure = (n1 == 0 || n1 == n);
  if (depth >= options.max_depth || n < options.min_samples_split || pure) {
    return node_id;
  }

  // Select feature subset (scratch-backed SampleIndicesInto: same draw
  // sequence as SampleIndices, no per-node allocation).
  size_t p = data.num_features();
  std::vector<int>& feats = scratch.feats;
  feats.clear();
  if (options.features_per_split == 0 || options.features_per_split >= p) {
    for (size_t f = 0; f < p; ++f) feats.push_back(static_cast<int>(f));
  } else {
    rng->SampleIndicesInto(p, options.features_per_split, &scratch.sample_idx);
    for (size_t i : scratch.sample_idx) feats.push_back(static_cast<int>(i));
  }

  double parent_gini = Gini(n1, n);
  double best_gain = 1e-9;
  int best_feature = -1;
  double best_threshold = 0.0;
  int32_t best_rank = 0;
  bool best_categorical = false;

  // Labels depend only on the node's rows — gather once, not per feature.
  std::vector<uint32_t>& labs = scratch.labels;
  labs.resize(n);
  for (size_t i = 0; i < n; ++i) {
    labs[i] = static_cast<uint32_t>(data.labels[rows[i]]);
  }

  for (int f : feats) {
    const std::vector<double>& col = data.columns[f];
    const int32_t* rank = ranks.ranks[f].data();
    const int32_t num_ranks = ranks.num_ranks[f];
    bool cat = data.is_categorical[f];
    // Collect distinct candidate split points from a bounded sample of the
    // node's rows, in first-seen order. Distinct means a distinct bit
    // pattern: a rank, except that -0.0 gets its own key past the sentinel.
    std::vector<double>& cand_values = scratch.cand_values;
    std::vector<int32_t>& cand_ranks = scratch.cand_ranks;
    cand_values.clear();
    cand_ranks.clear();
    const uint32_t epoch = ++scratch.epoch;
    size_t step = std::max<size_t>(1, n / (options.max_candidates * 4));
    for (size_t i = 0; i < n; i += step) {
      const int r = rows[i];
      const int32_t rk = rank[r];
      if (rk == num_ranks) continue;  // NaN
      const double v = col[r];
      const size_t key = v == 0.0 && std::signbit(v)
                             ? static_cast<size_t>(num_ranks) + 1
                             : static_cast<size_t>(rk);
      if (scratch.seen[key] == epoch) continue;
      scratch.seen[key] = epoch;
      cand_values.push_back(v);
      cand_ranks.push_back(rk);
      if (cand_values.size() >= options.max_candidates) break;
    }
    if (cand_values.empty()) continue;
    const size_t k = cand_values.size();

    // Every candidate's left-side (count, class-1 count).
    std::vector<size_t>& counts = scratch.counts;
    std::vector<size_t>& counts1 = scratch.counts1;
    counts.resize(k);
    counts1.resize(k);
    if (static_cast<size_t>(num_ranks) <= n * k) {
      // One histogram pass over the node's rows, then each candidate reads
      // its bin (categorical) or the prefix sum through its rank (numeric).
      uint64_t* hist = scratch.hist.data();
      std::fill(hist, hist + num_ranks + 1, uint64_t{0});
      for (size_t i = 0; i < n; ++i) hist[rank[rows[i]]] += kRowCount + labs[i];
      if (!cat) {
        const int32_t top =
            *std::max_element(cand_ranks.begin(), cand_ranks.end());
        for (int32_t r = 1; r <= top; ++r) hist[r] += hist[r - 1];
      }
      for (size_t j = 0; j < k; ++j) {
        const uint64_t bin = hist[cand_ranks[j]];
        counts[j] = static_cast<size_t>(bin >> 32);
        counts1[j] = static_cast<size_t>(bin & 0xffffffffu);
      }
    } else {
      // More distinct values than row-candidate pairs: compare each row's
      // rank against each candidate's in one branch-free pass instead.
      std::fill(counts.begin(), counts.end(), size_t{0});
      std::fill(counts1.begin(), counts1.end(), size_t{0});
      const int32_t* cand = cand_ranks.data();
      if (cat) {
        for (size_t i = 0; i < n; ++i) {
          const int32_t rk = rank[rows[i]];
          const size_t lab = labs[i];
          for (size_t j = 0; j < k; ++j) {
            const size_t m = rk == cand[j] ? 1 : 0;
            counts[j] += m;
            counts1[j] += m & lab;
          }
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          const int32_t rk = rank[rows[i]];
          const size_t lab = labs[i];
          for (size_t j = 0; j < k; ++j) {
            const size_t m = rk <= cand[j] ? 1 : 0;
            counts[j] += m;
            counts1[j] += m & lab;
          }
        }
      }
    }

    for (size_t ci = 0; ci < k; ++ci) {
      size_t ln = counts[ci];
      size_t ln1 = counts1[ci];
      size_t rn = n - ln;
      if (ln < options.min_samples_leaf || rn < options.min_samples_leaf) continue;
      size_t rn1 = n1 - ln1;
      double child =
          (static_cast<double>(ln) * Gini(ln1, ln) +
           static_cast<double>(rn) * Gini(rn1, rn)) /
          static_cast<double>(n);
      double gain = parent_gini - child;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = f;
        best_threshold = cand_values[ci];
        best_rank = cand_ranks[ci];
        best_categorical = cat;
      }
    }
  }

  if (best_feature < 0) return node_id;

  if (importance != nullptr) {
    (*importance)[best_feature] +=
        best_gain * static_cast<double>(n) / static_cast<double>(total_rows);
  }

  // Partition rows into this depth's arena slot; the left subtree only
  // touches deeper slots, so right_rows stays intact until its turn. Every
  // row is written to both sides and only the side it belongs to advances.
  std::vector<int>& left_rows = scratch.partitions[depth].left;
  std::vector<int>& right_rows = scratch.partitions[depth].right;
  left_rows.resize(n);
  right_rows.resize(n);
  const int32_t* rank = ranks.ranks[best_feature].data();
  size_t nl = 0, nr = 0;
  for (int r : rows) {
    const int32_t rk = rank[r];
    const size_t left =
        (best_categorical ? rk == best_rank : rk <= best_rank) ? 1 : 0;
    left_rows[nl] = r;
    right_rows[nr] = r;
    nl += left;
    nr += 1 - left;
  }
  left_rows.resize(nl);
  right_rows.resize(nr);

  int left_id = Build(data, ranks, left_rows, depth + 1, options, rng,
                      importance, total_rows, scratch);
  int right_id = Build(data, ranks, right_rows, depth + 1, options, rng,
                       importance, total_rows, scratch);
  nodes_[node_id].leaf = false;
  nodes_[node_id].feature = best_feature;
  nodes_[node_id].categorical = best_categorical;
  nodes_[node_id].threshold = best_threshold;
  nodes_[node_id].left = left_id;
  nodes_[node_id].right = right_id;
  return node_id;
}

double DecisionTree::PredictProba(const std::vector<double>& features) const {
  if (nodes_.empty()) return 0.5;
  int id = 0;
  while (!nodes_[id].leaf) {
    const Node& node = nodes_[id];
    double v = features[node.feature];
    bool left = node.categorical ? (v == node.threshold)
                                 : (!std::isnan(v) && v <= node.threshold);
    id = left ? node.left : node.right;
  }
  return nodes_[id].p1;
}

}  // namespace cajade
