// Association measures between attributes: Pearson correlation for
// numeric-numeric, Cramer's V for categorical-categorical, and the
// correlation ratio (eta) for mixed pairs. Substrate for VARCLUS-style
// attribute clustering (paper Section 3.1).
//
// Cramer's V counts on the matrix's rank encoding (FeatureRanks): the
// contingency table is dense over ranks, built one x rank at a time, so it
// costs O(n + R_x + R_y + k_x * k_y) time and O(n + R_x + R_y) memory with no
// tree lookups. Its grid walk visits ranks in ascending order, which is
// ascending code order, so chi-squared and V are the same doubles a
// code-keyed ordered map gives.
//
// Ownership and thread-safety: stateless functions over a borrowed read-only
// feature matrix and rank encoding; results are fresh caller-owned values,
// so concurrent calls are safe.

#ifndef CAJADE_ML_CORRELATION_H_
#define CAJADE_ML_CORRELATION_H_

#include <vector>

#include "src/ml/feature_matrix.h"

namespace cajade {

/// |Pearson r| of two numeric vectors (NaN pairs skipped); 0 when degenerate.
double PearsonAbs(const std::vector<double>& x, const std::vector<double>& y);

/// Cramer's V of two rank-encoded categorical columns (FeatureRanks ranks;
/// rank num_x / num_y is NaN); in [0, 1]. Only rows where both values are
/// non-NaN count. 1 when both columns are constant there, 0 when only one is.
double CramersV(const std::vector<int32_t>& x, int32_t num_x,
                const std::vector<int32_t>& y, int32_t num_y);

/// Cramer's V of two categorical (integral code-valued) vectors, ranked
/// first; in [0, 1].
double CramersV(const std::vector<double>& x, const std::vector<double>& y);

/// Correlation ratio eta: how much of numeric `y`'s variance the categorical
/// `x` explains; in [0, 1].
double CorrelationRatio(const std::vector<double>& categories,
                        const std::vector<double>& values);

/// Dispatches on the feature kinds: Pearson (num-num), Cramer's V (cat-cat,
/// on `ranks` = EncodeRanks(data)), eta (mixed). Symmetric; returns a value
/// in [0, 1].
double Association(const FeatureMatrix& data, const FeatureRanks& ranks,
                   int f1, int f2);

}  // namespace cajade

#endif  // CAJADE_ML_CORRELATION_H_
