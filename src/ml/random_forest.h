// Random forest classifier with impurity-based feature importances. Plays
// the role of the paper's relevance filter (Section 3.1): attributes are
// ranked by how useful they are for predicting which of the two user-question
// outputs an APT row belongs to.
//
// Ownership and thread-safety: training borrows the feature matrix and its
// rank encoding read-only and returns a caller-owned model, deterministic in
// the supplied Rng; concurrent training runs need distinct Rng instances.
// Trained models are immutable, so concurrent prediction is safe.

#ifndef CAJADE_ML_RANDOM_FOREST_H_
#define CAJADE_ML_RANDOM_FOREST_H_

#include <vector>

#include "src/common/rng.h"
#include "src/ml/decision_tree.h"

namespace cajade {

struct ForestOptions {
  int num_trees = 20;
  TreeOptions tree;
  /// Cap on the bootstrap pool size (rows are subsampled first when the
  /// dataset is larger).
  size_t row_cap = 2000;
};

/// \brief Bagged CART trees.
class RandomForest {
 public:
  /// Trains the ensemble on `data` and its rank encoding `ranks`
  /// (EncodeRanks(data)); features_per_split defaults to ceil(sqrt(p)) when
  /// the caller left it at 0.
  void Train(const FeatureMatrix& data, const FeatureRanks& ranks,
             const ForestOptions& options, Rng* rng);

  /// As above, rank-encoding `data` first.
  void Train(const FeatureMatrix& data, const ForestOptions& options, Rng* rng);

  /// Mean impurity-decrease importance per feature, normalized to sum 1
  /// (all-zero when no split was ever made).
  const std::vector<double>& importances() const { return importances_; }

  /// Ensemble-averaged P(label=1).
  double PredictProba(const std::vector<double>& features) const;

  size_t num_trees() const { return trees_.size(); }

 private:
  std::vector<DecisionTree> trees_;
  std::vector<double> importances_;
};

}  // namespace cajade

#endif  // CAJADE_ML_RANDOM_FOREST_H_
