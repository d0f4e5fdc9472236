// VARCLUS-style attribute clustering (paper Section 3.1): group mutually
// correlated attributes so that redundant attributes (e.g. birth date vs.
// age, assists vs. assist points) contribute a single representative to
// pattern mining. The paper notes any correlated-attribute clustering
// applies; we use threshold-based agglomeration over pairwise association.
//
// Ownership and thread-safety: stateless clustering over a borrowed
// read-only feature matrix and rank encoding; the returned clusters are
// fresh caller-owned values, so concurrent calls are safe.

#ifndef CAJADE_ML_VARCLUS_H_
#define CAJADE_ML_VARCLUS_H_

#include <vector>

#include "src/ml/feature_matrix.h"

namespace cajade {

/// Result of clustering: disjoint feature-index clusters plus one
/// representative per cluster.
struct AttributeClustering {
  std::vector<std::vector<int>> clusters;
  std::vector<int> representatives;
};

/// Clusters the features of `data` whose pairwise association exceeds
/// `threshold` (union-find agglomeration); `ranks` must be
/// EncodeRanks(data). The representative of a cluster is its member with
/// the highest `relevance` (ties: lowest index).
AttributeClustering ClusterAttributes(const FeatureMatrix& data,
                                      const FeatureRanks& ranks,
                                      const std::vector<double>& relevance,
                                      double threshold = 0.9);

/// As above, rank-encoding `data` first.
AttributeClustering ClusterAttributes(const FeatureMatrix& data,
                                      const std::vector<double>& relevance,
                                      double threshold = 0.9);

}  // namespace cajade

#endif  // CAJADE_ML_VARCLUS_H_
