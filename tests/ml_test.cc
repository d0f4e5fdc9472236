// Tests for src/ml: decision trees, random forests (importances), the
// association measures, and VARCLUS-style attribute clustering. The
// rank-histogram trainer and the dense Cramer's V are checked bit for bit
// against the row-by-row double-comparing trainer and the ordered-map
// contingency table they replaced, kept here as oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "src/common/rng.h"
#include "src/ml/correlation.h"
#include "src/ml/decision_tree.h"
#include "src/ml/random_forest.h"
#include "src/ml/varclus.h"

namespace cajade {
namespace {

/// label = 1 iff x0 > 0.5; x1 is noise; x2 (categorical) weakly informative.
FeatureMatrix MakeSyntheticData(size_t n, Rng* rng) {
  FeatureMatrix m;
  m.names = {"signal", "noise", "category"};
  m.is_categorical = {false, false, true};
  m.columns.resize(3);
  for (size_t i = 0; i < n; ++i) {
    double x0 = rng->UniformDouble();
    double x1 = rng->UniformDouble();
    double cat = static_cast<double>(rng->NextBounded(4));
    int label = x0 > 0.5 ? 1 : 0;
    if (rng->Bernoulli(0.05)) label = 1 - label;  // 5% noise
    m.columns[0].push_back(x0);
    m.columns[1].push_back(x1);
    m.columns[2].push_back(cat);
    m.labels.push_back(label);
  }
  return m;
}

// ---- Oracles ---------------------------------------------------------------

/// The CART trainer as a plain row scan: every candidate compares every
/// node row's double. Candidates are collected with the same stride, order,
/// NaN skip, cap and bit-pattern dedup (-0.0 and +0.0 are two candidates)
/// as DecisionTree, so its splits, importances and RNG draws are the
/// reference the rank-histogram search must reproduce exactly.
class OracleTree {
 public:
  void Train(const FeatureMatrix& data, const std::vector<int>& rows,
             const TreeOptions& options, Rng* rng,
             std::vector<double>* importance) {
    nodes_.clear();
    Build(data, rows, 0, options, rng, importance, rows.size());
  }

  double PredictProba(const std::vector<double>& features) const {
    if (nodes_.empty()) return 0.5;
    int id = 0;
    while (!nodes_[id].leaf) {
      const Node& node = nodes_[id];
      id = GoesLeft(features[node.feature], node.categorical, node.threshold)
               ? node.left
               : node.right;
    }
    return nodes_[id].p1;
  }

  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    bool leaf = true;
    double p1 = 0.0;
    int feature = -1;
    bool categorical = false;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
  };

  static bool GoesLeft(double v, bool categorical, double threshold) {
    return categorical ? v == threshold : (!std::isnan(v) && v <= threshold);
  }

  static double Gini(size_t n1, size_t n) {
    if (n == 0) return 0.0;
    double p = static_cast<double>(n1) / static_cast<double>(n);
    return 2.0 * p * (1.0 - p);
  }

  int Build(const FeatureMatrix& data, const std::vector<int>& rows,
            int depth, const TreeOptions& options, Rng* rng,
            std::vector<double>* importance, size_t total_rows) {
    const int node_id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    const size_t n = rows.size();
    size_t n1 = 0;
    for (int r : rows) n1 += data.labels[r];
    nodes_[node_id].p1 =
        n == 0 ? 0.0 : static_cast<double>(n1) / static_cast<double>(n);
    if (depth >= options.max_depth || n < options.min_samples_split ||
        n1 == 0 || n1 == n) {
      return node_id;
    }

    const size_t p = data.num_features();
    std::vector<size_t> feats;
    if (options.features_per_split == 0 || options.features_per_split >= p) {
      for (size_t f = 0; f < p; ++f) feats.push_back(f);
    } else {
      feats = rng->SampleIndices(p, options.features_per_split);
    }

    const double parent_gini = Gini(n1, n);
    double best_gain = 1e-9;
    int best_feature = -1;
    double best_threshold = 0.0;
    bool best_categorical = false;
    for (size_t f : feats) {
      const std::vector<double>& col = data.columns[f];
      const bool cat = data.is_categorical[f];
      std::vector<double> candidates;
      std::vector<int64_t> candidate_bits;
      const size_t step = std::max<size_t>(1, n / (options.max_candidates * 4));
      for (size_t i = 0; i < n; i += step) {
        const double v = col[rows[i]];
        if (std::isnan(v)) continue;
        int64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        if (std::find(candidate_bits.begin(), candidate_bits.end(), bits) ==
            candidate_bits.end()) {
          candidate_bits.push_back(bits);
          candidates.push_back(v);
        }
        if (candidates.size() >= options.max_candidates) break;
      }
      for (double c : candidates) {
        size_t ln = 0, ln1 = 0;
        for (int r : rows) {
          if (GoesLeft(col[r], cat, c)) {
            ++ln;
            ln1 += data.labels[r];
          }
        }
        const size_t rn = n - ln;
        if (ln < options.min_samples_leaf || rn < options.min_samples_leaf) {
          continue;
        }
        const size_t rn1 = n1 - ln1;
        const double child = (static_cast<double>(ln) * Gini(ln1, ln) +
                              static_cast<double>(rn) * Gini(rn1, rn)) /
                             static_cast<double>(n);
        const double gain = parent_gini - child;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_threshold = c;
          best_categorical = cat;
        }
      }
    }
    if (best_feature < 0) return node_id;
    if (importance != nullptr) {
      (*importance)[best_feature] +=
          best_gain * static_cast<double>(n) / static_cast<double>(total_rows);
    }
    std::vector<int> left_rows, right_rows;
    for (int r : rows) {
      (GoesLeft(data.columns[best_feature][r], best_categorical,
                best_threshold)
           ? left_rows
           : right_rows)
          .push_back(r);
    }
    const int left_id = Build(data, left_rows, depth + 1, options, rng,
                              importance, total_rows);
    const int right_id = Build(data, right_rows, depth + 1, options, rng,
                               importance, total_rows);
    Node& node = nodes_[node_id];
    node.leaf = false;
    node.feature = best_feature;
    node.categorical = best_categorical;
    node.threshold = best_threshold;
    node.left = left_id;
    node.right = right_id;
    return node_id;
  }

  std::vector<Node> nodes_;
};

/// RandomForest::Train's bagging over OracleTree.
struct OracleForest {
  std::vector<OracleTree> trees;
  std::vector<double> importances;

  void Train(const FeatureMatrix& data, const ForestOptions& options,
             Rng* rng) {
    importances.assign(data.num_features(), 0.0);
    TreeOptions tree_options = options.tree;
    if (tree_options.features_per_split == 0) {
      tree_options.features_per_split = static_cast<size_t>(
          std::ceil(std::sqrt(static_cast<double>(data.num_features()))));
    }
    std::vector<int> pool;
    if (data.num_rows() <= options.row_cap) {
      for (size_t i = 0; i < data.num_rows(); ++i) {
        pool.push_back(static_cast<int>(i));
      }
    } else {
      for (size_t i : rng->SampleIndices(data.num_rows(), options.row_cap)) {
        pool.push_back(static_cast<int>(i));
      }
    }
    if (pool.empty()) return;
    trees.resize(options.num_trees);
    for (OracleTree& tree : trees) {
      std::vector<int> bootstrap(pool.size());
      for (int& r : bootstrap) r = pool[rng->NextBounded(pool.size())];
      tree.Train(data, bootstrap, tree_options, rng, &importances);
    }
    double total = 0.0;
    for (double v : importances) total += v;
    if (total > 0) {
      for (double& v : importances) v /= total;
    }
  }

  double PredictProba(const std::vector<double>& features) const {
    if (trees.empty()) return 0.5;
    double sum = 0.0;
    for (const OracleTree& tree : trees) sum += tree.PredictProba(features);
    return sum / static_cast<double>(trees.size());
  }
};

/// Cramer's V over an ordered-map contingency table keyed by int64 codes.
double OracleCramersV(const std::vector<double>& x,
                      const std::vector<double>& y) {
  std::map<std::pair<int64_t, int64_t>, double> joint;
  std::map<int64_t, double> mx, my;
  double n = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i]) || std::isnan(y[i])) continue;
    auto a = static_cast<int64_t>(x[i]);
    auto b = static_cast<int64_t>(y[i]);
    joint[{a, b}] += 1;
    mx[a] += 1;
    my[b] += 1;
    n += 1;
  }
  if (n < 2 || mx.size() < 2 || my.size() < 2) {
    return (mx.size() <= 1 && my.size() <= 1) ? 1.0 : 0.0;
  }
  double chi2 = 0.0;
  for (const auto& [a, count_a] : mx) {
    for (const auto& [b, count_b] : my) {
      double expected = count_a * count_b / n;
      if (expected <= 0) continue;
      auto it = joint.find({a, b});
      double observed = it == joint.end() ? 0.0 : it->second;
      double d = observed - expected;
      chi2 += d * d / expected;
    }
  }
  double k = static_cast<double>(std::min(mx.size(), my.size()));
  return std::min(1.0, std::sqrt(chi2 / (n * (k - 1.0))));
}

/// A matrix built to stress the rank encoding: NaN-heavy tied numerics, a
/// constant column and a constant-or-NaN column, signed zeros among more
/// values than a small candidate cap (numeric and categorical), categorical
/// codes with gaps, and wide numeric and categorical columns of hundreds of
/// distinct values (more ranks than n * k in small nodes, so the compare
/// fallback runs). Labels lean on several features plus noise.
FeatureMatrix MakeStressMatrix(size_t n, Rng* rng) {
  const double nan = std::nan("");
  const double kTied[] = {-2.5, 0.5, 1.0, 1.0, 3.0, 7.25};
  const double kZeros[] = {-0.0, 0.0, -0.0, 0.0, -1.0, 1.0, 2.0, -2.0, nan};
  const double kCodes[] = {0, 7, 13, 500, 9000};
  const double kCatZeros[] = {-0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0};
  FeatureMatrix m;
  m.names = {"tied", "constant", "zeros", "codes", "wide",
             "cat_zeros", "constant_nan", "wide_codes"};
  m.is_categorical = {false, false, false, true, false, true, false, true};
  m.columns.resize(m.names.size());
  for (size_t i = 0; i < n; ++i) {
    const double tied = rng->Bernoulli(0.15) ? nan : kTied[rng->NextBounded(6)];
    const double zeros = kZeros[rng->NextBounded(9)];
    const double code = rng->Bernoulli(0.1) ? nan : kCodes[rng->NextBounded(5)];
    const double wide = rng->Bernoulli(0.05) ? nan : rng->UniformDouble();
    const double cat_zero = kCatZeros[rng->NextBounded(7)];
    const double wide_code = static_cast<double>(3 * rng->NextBounded(400));
    m.columns[0].push_back(tied);
    m.columns[1].push_back(4.0);
    m.columns[2].push_back(zeros);
    m.columns[3].push_back(code);
    m.columns[4].push_back(wide);
    m.columns[5].push_back(cat_zero);
    m.columns[6].push_back(rng->Bernoulli(0.3) ? nan : 2.0);
    m.columns[7].push_back(wide_code);
    bool label = tied > 0.7 || code == 9000 || zeros >= 2 || cat_zero == 4 ||
                 wide < 0.2 || wide_code < 60;
    if (rng->Bernoulli(0.15)) label = !label;
    m.labels.push_back(label ? 1 : 0);
  }
  return m;
}

std::vector<double> Row(const FeatureMatrix& m, size_t r) {
  std::vector<double> row;
  for (const auto& col : m.columns) row.push_back(col[r]);
  return row;
}

TEST(RankColumnTest, OrderPreservingSharedZeroNanSentinel) {
  const double nan = std::nan("");
  int32_t num_ranks = -1;
  const std::vector<int32_t> ranks =
      RankColumn({3.5, -0.0, nan, 0.0, -7.0, 3.5, 9000.0, nan}, &num_ranks);
  EXPECT_EQ(num_ranks, 4);
  EXPECT_EQ(ranks, (std::vector<int32_t>{2, 1, 4, 1, 0, 2, 3, 4}));
  EXPECT_EQ(RankColumn({}, &num_ranks), std::vector<int32_t>{});
  EXPECT_EQ(num_ranks, 0);
  EXPECT_EQ(RankColumn({nan, nan}, &num_ranks),
            (std::vector<int32_t>{0, 0}));
  EXPECT_EQ(num_ranks, 0);
}

TEST(DecisionTreeOracleTest, MatchesCompareLoopTrainer) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng gen(seed);
    const FeatureMatrix data = MakeStressMatrix(600, &gen);
    const FeatureRanks ranks = EncodeRanks(data);
    for (size_t max_candidates : {1u, 4u, 16u, 64u}) {
      for (size_t features_per_split : {0u, 3u}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " max_candidates=" +
                     std::to_string(max_candidates) + " features_per_split=" +
                     std::to_string(features_per_split));
        TreeOptions options;
        options.max_candidates = max_candidates;
        options.features_per_split = features_per_split;
        options.max_depth = 10;
        // A bootstrap sample: duplicate rows throughout.
        std::vector<int> rows(data.num_rows());
        for (int& r : rows) r = static_cast<int>(gen.NextBounded(rows.size()));
        Rng rng(seed * 31);
        Rng oracle_rng(seed * 31);
        std::vector<double> importance(data.num_features(), 0.0);
        std::vector<double> oracle_importance(data.num_features(), 0.0);
        DecisionTree tree;
        tree.Train(data, ranks, rows, options, &rng, &importance);
        OracleTree oracle;
        oracle.Train(data, rows, options, &oracle_rng, &oracle_importance);
        EXPECT_GT(oracle.num_nodes(), 7u);
        EXPECT_EQ(tree.num_nodes(), oracle.num_nodes());
        EXPECT_EQ(importance, oracle_importance);
        for (size_t r = 0; r < data.num_rows(); ++r) {
          const std::vector<double> row = Row(data, r);
          ASSERT_EQ(tree.PredictProba(row), oracle.PredictProba(row)) << r;
        }
        EXPECT_EQ(rng.Next(), oracle_rng.Next());  // same draw sequence
      }
    }
  }
}

TEST(RandomForestOracleTest, MatchesCompareLoopForest) {
  for (uint64_t seed : {5u, 6u}) {
    Rng gen(seed);
    const FeatureMatrix data = MakeStressMatrix(900, &gen);
    for (size_t max_candidates : {1u, 4u, 16u, 64u}) {
      for (size_t row_cap : {400u, 2000u}) {  // subsampled pool, whole matrix
        SCOPED_TRACE("seed=" + std::to_string(seed) + " max_candidates=" +
                     std::to_string(max_candidates) +
                     " row_cap=" + std::to_string(row_cap));
        ForestOptions options;
        options.num_trees = 6;
        options.row_cap = row_cap;
        options.tree.max_candidates = max_candidates;
        Rng rng(seed * 17);
        Rng oracle_rng(seed * 17);
        RandomForest forest;
        forest.Train(data, options, &rng);
        OracleForest oracle;
        oracle.Train(data, options, &oracle_rng);
        EXPECT_EQ(forest.num_trees(), oracle.trees.size());
        EXPECT_EQ(forest.importances(), oracle.importances);
        for (size_t r = 0; r < data.num_rows(); ++r) {
          const std::vector<double> row = Row(data, r);
          ASSERT_EQ(forest.PredictProba(row), oracle.PredictProba(row)) << r;
        }
        EXPECT_EQ(rng.Next(), oracle_rng.Next());
      }
    }
  }
}

TEST(CramersVOracleTest, MatchesOrderedMapTable) {
  const double nan = std::nan("");
  std::vector<std::pair<std::vector<double>, std::vector<double>>> cases;
  Rng rng(12);
  {  // NaNs in only one column
    std::vector<double> x, y;
    for (int i = 0; i < 300; ++i) {
      const auto v = static_cast<double>(rng.NextBounded(4));
      x.push_back(rng.Bernoulli(0.3) ? nan : v);
      y.push_back(rng.Bernoulli(0.7) ? v : static_cast<double>(rng.NextBounded(5)));
    }
    cases.emplace_back(x, y);
    cases.emplace_back(y, x);
  }
  {  // sparse codes
    const double kSparse[] = {0, 7, 9000};
    std::vector<double> x, y;
    for (int i = 0; i < 200; ++i) {
      x.push_back(kSparse[rng.NextBounded(3)]);
      y.push_back(rng.Bernoulli(0.5) ? x.back() : kSparse[rng.NextBounded(3)]);
    }
    cases.emplace_back(x, y);
  }
  {  // one column constant, then both
    std::vector<double> x(50, 7.0), y;
    for (int i = 0; i < 50; ++i) y.push_back(static_cast<double>(rng.NextBounded(3)));
    cases.emplace_back(x, y);
    cases.emplace_back(y, x);
    cases.emplace_back(x, std::vector<double>(50, 9000.0));
  }
  // Degenerate sizes: empty, one row, one counted row.
  cases.emplace_back(std::vector<double>{}, std::vector<double>{});
  cases.emplace_back(std::vector<double>{3}, std::vector<double>{4});
  cases.emplace_back(std::vector<double>{3, nan, 5},
                     std::vector<double>{1, 2, nan});
  // Random 2-50-code tables, partly dependent, with NaNs.
  for (int t = 0; t < 40; ++t) {
    const uint64_t cx = 2 + rng.NextBounded(49);
    const uint64_t cy = 2 + rng.NextBounded(49);
    const size_t n = 2 + rng.NextBounded(500);
    std::vector<double> x, y;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t a = rng.NextBounded(cx);
      x.push_back(rng.Bernoulli(0.05) ? nan : static_cast<double>(a * 3));
      const uint64_t b = rng.Bernoulli(0.4) ? a % cy : rng.NextBounded(cy);
      y.push_back(rng.Bernoulli(0.05) ? nan : static_cast<double>(b));
    }
    cases.emplace_back(x, y);
  }
  for (size_t c = 0; c < cases.size(); ++c) {
    const auto& [x, y] = cases[c];
    const double expected = OracleCramersV(x, y);
    EXPECT_EQ(CramersV(x, y), expected) << "case " << c;
    // Through the matrix's rank encoding, as the clustering calls it.
    FeatureMatrix m;
    m.names = {"x", "y"};
    m.is_categorical = {true, true};
    m.columns = {x, y};
    m.labels.assign(x.size(), 0);
    EXPECT_EQ(Association(m, EncodeRanks(m), 0, 1), expected) << "case " << c;
  }
}

TEST(DecisionTreeTest, LearnsThresholdSplit) {
  Rng rng(1);
  FeatureMatrix data = MakeSyntheticData(600, &rng);
  std::vector<int> rows(data.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int>(i);
  DecisionTree tree;
  TreeOptions options;
  tree.Train(data, rows, options, &rng);
  EXPECT_GT(tree.num_nodes(), 1u);
  int correct = 0;
  Rng test_rng(77);
  for (int i = 0; i < 200; ++i) {
    double x0 = test_rng.UniformDouble();
    double p = tree.PredictProba({x0, test_rng.UniformDouble(), 0.0});
    if ((p > 0.5) == (x0 > 0.5)) ++correct;
  }
  EXPECT_GT(correct, 170);  // > 85% accuracy
}

TEST(DecisionTreeTest, PureNodeStops) {
  FeatureMatrix data;
  data.names = {"x"};
  data.is_categorical = {false};
  data.columns = {{1, 2, 3, 4, 5, 6, 7, 8}};
  data.labels = {1, 1, 1, 1, 1, 1, 1, 1};
  std::vector<int> rows = {0, 1, 2, 3, 4, 5, 6, 7};
  DecisionTree tree;
  Rng rng(1);
  tree.Train(data, rows, TreeOptions{}, &rng);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_DOUBLE_EQ(tree.PredictProba({3.0}), 1.0);
}

TEST(DecisionTreeTest, CategoricalEqualitySplit) {
  // label = 1 iff category == 2.
  FeatureMatrix data;
  data.names = {"cat"};
  data.is_categorical = {true};
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    double c = static_cast<double>(rng.NextBounded(5));
    data.columns.resize(1);
    data.columns[0].push_back(c);
    data.labels.push_back(c == 2.0 ? 1 : 0);
  }
  std::vector<int> rows(data.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int>(i);
  DecisionTree tree;
  tree.Train(data, rows, TreeOptions{}, &rng);
  EXPECT_GT(tree.PredictProba({2.0}), 0.9);
  EXPECT_LT(tree.PredictProba({3.0}), 0.1);
}

TEST(RandomForestTest, ImportanceRanksSignalFirst) {
  Rng rng(2);
  FeatureMatrix data = MakeSyntheticData(800, &rng);
  RandomForest forest;
  ForestOptions options;
  options.num_trees = 15;
  forest.Train(data, options, &rng);
  const auto& imp = forest.importances();
  ASSERT_EQ(imp.size(), 3u);
  EXPECT_GT(imp[0], imp[1]);
  EXPECT_GT(imp[0], imp[2]);
  EXPECT_GT(imp[0], 0.5);  // normalized, signal dominates
  double total = imp[0] + imp[1] + imp[2];
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RandomForestTest, PredictionBetterThanChance) {
  Rng rng(3);
  FeatureMatrix data = MakeSyntheticData(800, &rng);
  RandomForest forest;
  forest.Train(data, ForestOptions{}, &rng);
  int correct = 0;
  Rng test_rng(99);
  for (int i = 0; i < 300; ++i) {
    double x0 = test_rng.UniformDouble();
    double p = forest.PredictProba({x0, test_rng.UniformDouble(), 1.0});
    if ((p > 0.5) == (x0 > 0.5)) ++correct;
  }
  EXPECT_GT(correct, 255);
}

TEST(RandomForestTest, EmptyDataSafe) {
  FeatureMatrix data;
  data.names = {"x"};
  data.is_categorical = {false};
  data.columns.resize(1);
  RandomForest forest;
  Rng rng(1);
  forest.Train(data, ForestOptions{}, &rng);
  EXPECT_DOUBLE_EQ(forest.PredictProba({0.0}), 0.5);
}

TEST(CorrelationTest, PearsonPerfectAndNone) {
  std::vector<double> x = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> y = {2, 4, 6, 8, 10, 12, 14, 16};
  EXPECT_NEAR(PearsonAbs(x, y), 1.0, 1e-9);
  std::vector<double> neg = {8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_NEAR(PearsonAbs(x, neg), 1.0, 1e-9);  // absolute value
  std::vector<double> konst(8, 3.0);
  EXPECT_DOUBLE_EQ(PearsonAbs(x, konst), 0.0);
}

TEST(CorrelationTest, PearsonSkipsNans) {
  std::vector<double> x = {1, 2, std::nan(""), 4};
  std::vector<double> y = {2, 4, 5, 8};
  EXPECT_NEAR(PearsonAbs(x, y), 1.0, 1e-9);
}

TEST(CorrelationTest, CramersVIdenticalAndIndependent) {
  Rng rng(4);
  std::vector<double> x, same, indep;
  for (int i = 0; i < 600; ++i) {
    double v = static_cast<double>(rng.NextBounded(3));
    x.push_back(v);
    same.push_back(v);
    indep.push_back(static_cast<double>(rng.NextBounded(3)));
  }
  EXPECT_GT(CramersV(x, same), 0.95);
  EXPECT_LT(CramersV(x, indep), 0.15);
}

TEST(CorrelationTest, CorrelationRatioDetectsGroupedMeans) {
  Rng rng(6);
  std::vector<double> cat, val, noise_val;
  for (int i = 0; i < 600; ++i) {
    double c = static_cast<double>(rng.NextBounded(3));
    cat.push_back(c);
    val.push_back(c * 10 + rng.Normal(0, 0.5));
    noise_val.push_back(rng.Normal(0, 1.0));
  }
  EXPECT_GT(CorrelationRatio(cat, val), 0.95);
  EXPECT_LT(CorrelationRatio(cat, noise_val), 0.2);
}

TEST(VarclusTest, ClustersCorrelatedAttributesWithRepresentative) {
  // f0 and f1 are near-duplicates (birth date vs. age); f2 independent.
  Rng rng(8);
  FeatureMatrix data;
  data.names = {"age", "birth", "other"};
  data.is_categorical = {false, false, false};
  data.columns.resize(3);
  for (int i = 0; i < 400; ++i) {
    double a = rng.Uniform(20, 80);
    data.columns[0].push_back(a);
    data.columns[1].push_back(2020 - a);
    data.columns[2].push_back(rng.Normal(0, 1));
    data.labels.push_back(0);
  }
  std::vector<double> relevance = {0.2, 0.7, 0.1};
  auto clustering = ClusterAttributes(data, relevance, 0.9);
  ASSERT_EQ(clustering.clusters.size(), 2u);
  // The age/birth cluster picks the higher-relevance member (birth = 1).
  bool found_pair = false;
  for (size_t c = 0; c < clustering.clusters.size(); ++c) {
    if (clustering.clusters[c].size() == 2) {
      found_pair = true;
      EXPECT_EQ(clustering.representatives[c], 1);
    }
  }
  EXPECT_TRUE(found_pair);
}

TEST(VarclusTest, NoCorrelationNoMerging) {
  Rng rng(9);
  FeatureMatrix data;
  data.names = {"a", "b", "c"};
  data.is_categorical = {false, false, false};
  data.columns.resize(3);
  for (int i = 0; i < 300; ++i) {
    for (int f = 0; f < 3; ++f) data.columns[f].push_back(rng.Normal(0, 1));
    data.labels.push_back(0);
  }
  auto clustering = ClusterAttributes(data, {1, 1, 1}, 0.9);
  EXPECT_EQ(clustering.clusters.size(), 3u);
}

}  // namespace
}  // namespace cajade
