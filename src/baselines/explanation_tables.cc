#include "src/baselines/explanation_tables.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "src/common/string_util.h"
#include "src/mining/lca.h"

namespace cajade {

namespace {

double Kl(double p, double q) {
  auto term = [](double a, double b) {
    if (a <= 0) return 0.0;
    b = std::min(std::max(b, 1e-9), 1.0 - 1e-9);
    return a * std::log(a / b);
  };
  return term(p, q) + term(1.0 - p, 1.0 - q);
}

}  // namespace

Apt BinNumericColumns(const Apt& apt, int num_bins) {
  Apt out;
  out.pt_row = apt.pt_row;
  out.pt_rows_used = apt.pt_rows_used;
  out.num_pt_columns = apt.num_pt_columns;
  out.pattern_cols = apt.pattern_cols;

  Schema schema;
  std::vector<Column> columns;
  for (size_t c = 0; c < apt.table.num_columns(); ++c) {
    const ColumnDef& def = apt.table.schema().column(c);
    const Column& src = apt.table.column(c);
    if (!IsNumeric(def.type)) {
      (void)schema.AddColumn(def.name, def.type, def.mining_excluded);
      columns.push_back(src);
      continue;
    }
    // Equi-width bins over the observed range.
    double lo = 0, hi = 0;
    bool first = true;
    for (size_t r = 0; r < apt.table.num_rows(); ++r) {
      if (src.IsNull(r)) continue;
      double v = src.GetNumeric(r);
      if (first || v < lo) lo = v;
      if (first || v > hi) hi = v;
      first = false;
    }
    double width = (hi - lo) / std::max(1, num_bins);
    if (width <= 0) width = 1;
    Column binned(DataType::kString);
    binned.Reserve(apt.table.num_rows());
    for (size_t r = 0; r < apt.table.num_rows(); ++r) {
      if (src.IsNull(r)) {
        binned.AppendNull();
        continue;
      }
      int b = std::min(num_bins - 1,
                       static_cast<int>((src.GetNumeric(r) - lo) / width));
      binned.AppendString(Format("[%.4g,%.4g]", lo + b * width,
                                 lo + (b + 1) * width));
    }
    (void)schema.AddColumn(def.name, DataType::kString, def.mining_excluded);
    columns.push_back(std::move(binned));
  }
  out.table = Table("APT-binned", std::move(schema), std::move(columns),
                    apt.table.num_rows());
  return out;
}

std::vector<EtPattern> ExplanationTables::Build(const Apt& apt,
                                                const std::vector<int8_t>& outcome,
                                                Rng* rng) const {
  std::vector<EtPattern> table;
  const size_t n = apt.table.num_rows();
  if (n == 0) return table;

  // Categorical pattern-eligible columns.
  std::vector<int> cat_cols;
  for (int c : apt.pattern_cols) {
    if (apt.table.column(c).type() == DataType::kString) cat_cols.push_back(c);
  }
  if (cat_cols.empty()) return table;

  // Candidate patterns via the LCA meet of a sample with itself (the same
  // generation step the published algorithm uses). The all-free pattern acts
  // as the root (overall rate).
  std::vector<LcaCandidate> candidates =
      GenerateLcaCandidates(apt, cat_cols, options_.sample_size, rng);
  if (options_.max_candidates > 0 && candidates.size() > options_.max_candidates) {
    candidates.resize(options_.max_candidates);
  }
  std::vector<Pattern> patterns;
  patterns.reserve(candidates.size());
  for (const LcaCandidate& cand : candidates) {
    patterns.push_back(SignaturePattern(apt.table, cat_cols, cand.codes));
  }

  // Precompute per-candidate match bitmap lazily during gain scans; the
  // estimate vector carries the current model.
  double overall = 0;
  for (size_t r = 0; r < n; ++r) overall += outcome[r];
  overall /= static_cast<double>(n);
  std::vector<double> estimate(n, overall);

  std::vector<bool> used(patterns.size(), false);
  for (size_t round = 0; round < options_.table_size; ++round) {
    double best_gain = 1e-12;
    int best = -1;
    double best_rate = 0;
    int64_t best_count = 0;
    for (size_t i = 0; i < patterns.size(); ++i) {
      if (used[i]) continue;
      const Pattern& p = patterns[i];
      // Gain: sum over matching rows of KL(actual rate || current estimate)
      // minus the residual after updating to the pattern's rate.
      int64_t count = 0;
      double sum_outcome = 0;
      double kl_before = 0;
      for (size_t r = 0; r < n; ++r) {
        if (!p.Matches(apt.table, r)) continue;
        ++count;
        sum_outcome += outcome[r];
        kl_before += Kl(outcome[r], estimate[r]);
      }
      if (count == 0) continue;
      double rate = sum_outcome / static_cast<double>(count);
      double kl_after = 0;
      for (size_t r = 0; r < n; ++r) {
        if (!p.Matches(apt.table, r)) continue;
        kl_after += Kl(outcome[r], rate);
      }
      double gain = kl_before - kl_after;
      if (gain > best_gain) {
        best_gain = gain;
        best = static_cast<int>(i);
        best_rate = rate;
        best_count = count;
      }
    }
    if (best < 0) break;
    used[best] = true;
    const Pattern& p = patterns[best];
    for (size_t r = 0; r < n; ++r) {
      if (p.Matches(apt.table, r)) estimate[r] = best_rate;
    }
    table.push_back({p, best_rate, best_count, best_gain});
  }
  return table;
}

}  // namespace cajade
