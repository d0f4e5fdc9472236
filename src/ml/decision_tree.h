// CART binary-classification decision tree with Gini impurity, supporting
// numeric threshold splits (x <= t) and categorical equality splits (x == v).
// Substrate for the random forest used in attribute relevance filtering
// (paper Section 3.1).
//
// Split search runs on the matrix's rank encoding (FeatureRanks), so each
// (node, feature) costs O(n) instead of O(n * k) for n node rows and k
// candidates: candidates are collected with a per-rank epoch stamp, and one
// histogram pass packs (count, class-1 count) into a 64-bit bin per rank. A
// numeric candidate's left side is the prefix sum through its rank (NaN
// holds the top rank, so it falls right); a categorical candidate's is its
// own bin. Only when a feature has more distinct values than n * k does a
// node fall back to comparing every row's rank against every candidate's.
// Counts are exact integers, so the chosen splits, importances and RNG draw
// sequence are those of comparing the doubles row by row: same candidates
// (same stride, first-seen order, NaN skip, cap, and -0.0/+0.0 kept as two
// candidates, as a bit-pattern dedup would), same counts, same
// strict-improvement tie-breaking.
//
// Ownership and thread-safety: training borrows the feature matrix and its
// ranks read-only and returns a caller-owned model, deterministic in the
// supplied Rng; concurrent training runs need distinct Rng instances.
// Trained models are immutable, so concurrent prediction is safe.

#ifndef CAJADE_ML_DECISION_TREE_H_
#define CAJADE_ML_DECISION_TREE_H_

#include <vector>

#include "src/common/rng.h"
#include "src/ml/feature_matrix.h"

namespace cajade {

/// Tree growth parameters.
struct TreeOptions {
  int max_depth = 8;
  size_t min_samples_split = 8;
  size_t min_samples_leaf = 3;
  /// Features considered per split; 0 = all, otherwise a random subset of
  /// this size (random forests pass ~sqrt(p)).
  size_t features_per_split = 0;
  /// Candidate thresholds/values examined per feature per split.
  size_t max_candidates = 16;
};

/// \brief A trained CART tree.
class DecisionTree {
 public:
  /// Trains on `rows` (indexes into `data`); `ranks` must be
  /// EncodeRanks(data). Importance (total weighted Gini decrease per
  /// feature) is accumulated into `importance` when non-null.
  void Train(const FeatureMatrix& data, const FeatureRanks& ranks,
             const std::vector<int>& rows, const TreeOptions& options,
             Rng* rng, std::vector<double>* importance = nullptr);

  /// As above, rank-encoding `data` first.
  void Train(const FeatureMatrix& data, const std::vector<int>& rows,
             const TreeOptions& options, Rng* rng,
             std::vector<double>* importance = nullptr);

  /// P(label=1) for a feature row vector.
  double PredictProba(const std::vector<double>& features) const;

  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    bool leaf = true;
    double p1 = 0.0;          // leaf: probability of class 1
    int feature = -1;
    bool categorical = false;
    double threshold = 0.0;   // numeric: x <= threshold; categorical: x == threshold
    int left = -1;
    int right = -1;
  };

  struct TrainScratch;

  int Build(const FeatureMatrix& data, const FeatureRanks& ranks,
            std::vector<int>& rows, int depth, const TreeOptions& options,
            Rng* rng, std::vector<double>* importance, size_t total_rows,
            TrainScratch& scratch);

  std::vector<Node> nodes_;
};

}  // namespace cajade

#endif  // CAJADE_ML_DECISION_TREE_H_
