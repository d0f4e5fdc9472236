#include "src/ml/correlation.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace cajade {

double PearsonAbs(const std::vector<double>& x, const std::vector<double>& y) {
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  size_t n = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i]) || std::isnan(y[i])) continue;
    ++n;
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    syy += y[i] * y[i];
    sxy += x[i] * y[i];
  }
  if (n < 2) return 0.0;
  double dn = static_cast<double>(n);
  double cov = sxy - sx * sy / dn;
  double vx = sxx - sx * sx / dn;
  double vy = syy - sy * sy / dn;
  if (vx <= 1e-12 || vy <= 1e-12) return 0.0;
  return std::min(1.0, std::fabs(cov) / std::sqrt(vx * vy));
}

double CramersV(const std::vector<int32_t>& x, int32_t num_x,
                const std::vector<int32_t>& y, int32_t num_y) {
  // Marginals over the rows where both values are non-NaN.
  std::vector<uint32_t> mx(static_cast<size_t>(num_x), 0);
  std::vector<uint32_t> my(static_cast<size_t>(num_y), 0);
  size_t rows = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i] == num_x || y[i] == num_y) continue;
    ++mx[x[i]];
    ++my[y[i]];
    ++rows;
  }
  std::vector<int32_t> ys;  // y ranks with a non-zero marginal, ascending
  for (int32_t b = 0; b < num_y; ++b) {
    if (my[b] > 0) ys.push_back(b);
  }
  size_t kx = 0;
  for (uint32_t c : mx) kx += c > 0 ? 1 : 0;
  const size_t ky = ys.size();
  const auto n = static_cast<double>(rows);
  if (rows < 2 || kx < 2 || ky < 2) {
    // A constant attribute is perfectly "explained": treat as no association
    // unless both are constant (then they are trivially redundant).
    return (kx <= 1 && ky <= 1) ? 1.0 : 0.0;
  }

  // Group the counted rows' y ranks by x rank (counting sort), so each x
  // rank's table row is scattered into `cell`, walked and cleared alone.
  std::vector<size_t> begin(static_cast<size_t>(num_x) + 1, 0);
  for (int32_t a = 0; a < num_x; ++a) begin[a + 1] = begin[a] + mx[a];
  std::vector<int32_t> y_by_x(rows);
  {
    std::vector<size_t> fill(begin.begin(), begin.end() - 1);
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i] == num_x || y[i] == num_y) continue;
      y_by_x[fill[x[i]]++] = y[i];
    }
  }
  // Chi-squared over the full grid of non-zero marginals, in ascending
  // (x, y) order: zero-observed cells still contribute their expected
  // counts.
  std::vector<uint32_t> cell(static_cast<size_t>(num_y), 0);
  double chi2 = 0.0;
  for (int32_t a = 0; a < num_x; ++a) {
    if (mx[a] == 0) continue;
    for (size_t i = begin[a]; i < begin[a + 1]; ++i) ++cell[y_by_x[i]];
    const auto count_a = static_cast<double>(mx[a]);
    for (int32_t b : ys) {
      double expected = count_a * static_cast<double>(my[b]) / n;
      double d = static_cast<double>(cell[b]) - expected;
      chi2 += d * d / expected;
    }
    for (size_t i = begin[a]; i < begin[a + 1]; ++i) cell[y_by_x[i]] = 0;
  }
  double k = static_cast<double>(std::min(kx, ky));
  double v = std::sqrt(chi2 / (n * (k - 1.0)));
  return std::min(1.0, v);
}

double CramersV(const std::vector<double>& x, const std::vector<double>& y) {
  int32_t num_x = 0, num_y = 0;
  std::vector<int32_t> rx = RankColumn(x, &num_x);
  std::vector<int32_t> ry = RankColumn(y, &num_y);
  return CramersV(rx, num_x, ry, num_y);
}

double CorrelationRatio(const std::vector<double>& categories,
                        const std::vector<double>& values) {
  std::unordered_map<int64_t, std::pair<double, double>> groups;  // sum, count
  double total_sum = 0;
  double n = 0;
  for (size_t i = 0; i < categories.size(); ++i) {
    if (std::isnan(categories[i]) || std::isnan(values[i])) continue;
    auto& g = groups[static_cast<int64_t>(categories[i])];
    g.first += values[i];
    g.second += 1;
    total_sum += values[i];
    n += 1;
  }
  if (n < 2 || groups.size() < 2) return 0.0;
  double mean = total_sum / n;
  double between = 0;
  for (const auto& [_, g] : groups) {
    double gm = g.first / g.second;
    between += g.second * (gm - mean) * (gm - mean);
  }
  double total_var = 0;
  for (size_t i = 0; i < categories.size(); ++i) {
    if (std::isnan(categories[i]) || std::isnan(values[i])) continue;
    total_var += (values[i] - mean) * (values[i] - mean);
  }
  if (total_var <= 1e-12) return 0.0;
  return std::min(1.0, std::sqrt(between / total_var));
}

double Association(const FeatureMatrix& data, const FeatureRanks& ranks,
                   int f1, int f2) {
  bool c1 = data.is_categorical[f1];
  bool c2 = data.is_categorical[f2];
  if (!c1 && !c2) return PearsonAbs(data.columns[f1], data.columns[f2]);
  if (c1 && c2) {
    return CramersV(ranks.ranks[f1], ranks.num_ranks[f1], ranks.ranks[f2],
                    ranks.num_ranks[f2]);
  }
  return c1 ? CorrelationRatio(data.columns[f1], data.columns[f2])
            : CorrelationRatio(data.columns[f2], data.columns[f1]);
}

}  // namespace cajade
