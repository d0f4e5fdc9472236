// Column-major feature matrix with binary labels: the interchange format
// between APTs and the ML components (random forest relevance filtering,
// attribute clustering), plus its dense per-feature rank encoding, on which
// the forest's split search and Cramer's V count.
//
// Ownership and thread-safety: the matrix and its rank encoding own their
// dense storage and belong to the caller; concurrent const access is safe,
// construction is single-stream.

#ifndef CAJADE_ML_FEATURE_MATRIX_H_
#define CAJADE_ML_FEATURE_MATRIX_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cajade {

/// \brief Features as doubles (categorical columns hold integral dictionary
/// codes) plus 0/1 labels.
struct FeatureMatrix {
  std::vector<std::string> names;
  std::vector<bool> is_categorical;
  /// columns[f][r]: value of feature f in row r. NaN encodes null.
  std::vector<std::vector<double>> columns;
  std::vector<int> labels;

  size_t num_rows() const { return labels.size(); }
  size_t num_features() const { return columns.size(); }
};

/// \brief Order-preserving dense codes of a FeatureMatrix's values.
///
/// ranks[f][r] is the position of value (f, r) among feature f's sorted
/// distinct non-NaN values, distinct by value equality (-0.0 and +0.0 share
/// a rank). NaN rows hold the sentinel num_ranks[f], above every value's
/// rank. So for non-NaN values a <= b iff rank(a) <= rank(b) and a == b iff
/// rank(a) == rank(b); categorical codes become dense ranks in code order.
struct FeatureRanks {
  std::vector<std::vector<int32_t>> ranks;
  std::vector<int32_t> num_ranks;

  size_t num_features() const { return ranks.size(); }
};

/// Ranks of one column's values (see FeatureRanks); `*num_ranks` receives
/// the number of distinct non-NaN values, which is also the NaN sentinel.
std::vector<int32_t> RankColumn(const std::vector<double>& values,
                                int32_t* num_ranks);

/// Rank-encodes every feature of `data`.
FeatureRanks EncodeRanks(const FeatureMatrix& data);

}  // namespace cajade

#endif  // CAJADE_ML_FEATURE_MATRIX_H_
