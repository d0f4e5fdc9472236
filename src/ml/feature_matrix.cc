#include "src/ml/feature_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

namespace cajade {

std::vector<int32_t> RankColumn(const std::vector<double>& values,
                                int32_t* num_ranks) {
  // Distinct values first, through an open-addressing table over their bit
  // patterns (-0.0 folded into +0.0, so distinct means distinct by ==), then
  // only the distinct values are sorted: O(n + R log R), not O(n log n).
  int log_capacity = 4;
  while ((size_t{1} << log_capacity) < 2 * values.size()) ++log_capacity;
  const size_t mask = (size_t{1} << log_capacity) - 1;
  std::vector<int32_t> slots(mask + 1, -1);
  std::vector<double> distinct;
  std::vector<int32_t> ids(values.size());  // per row: index into distinct
  for (size_t r = 0; r < values.size(); ++r) {
    double v = values[r];
    if (std::isnan(v)) {
      ids[r] = -1;
      continue;
    }
    if (v == 0.0) v = 0.0;
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    // Fibonacci hashing: the product's top bits mix every input bit (small
    // integers differ only in their high exponent/mantissa bits).
    size_t h = static_cast<size_t>((bits * 0x9E3779B97F4A7C15ULL) >>
                                   (64 - log_capacity));
    while (slots[h] >= 0 && distinct[slots[h]] != v) h = (h + 1) & mask;
    if (slots[h] < 0) {
      slots[h] = static_cast<int32_t>(distinct.size());
      distinct.push_back(v);
    }
    ids[r] = slots[h];
  }
  const auto sentinel = static_cast<int32_t>(distinct.size());
  std::vector<int32_t> order(distinct.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int32_t a, int32_t b) { return distinct[a] < distinct[b]; });
  std::vector<int32_t> rank_of(distinct.size());
  for (size_t i = 0; i < order.size(); ++i) {
    rank_of[order[i]] = static_cast<int32_t>(i);
  }
  for (int32_t& id : ids) id = id < 0 ? sentinel : rank_of[id];
  *num_ranks = sentinel;
  return ids;
}

FeatureRanks EncodeRanks(const FeatureMatrix& data) {
  FeatureRanks out;
  out.ranks.resize(data.num_features());
  out.num_ranks.resize(data.num_features());
  for (size_t f = 0; f < data.num_features(); ++f) {
    out.ranks[f] = RankColumn(data.columns[f], &out.num_ranks[f]);
  }
  return out;
}

}  // namespace cajade
