// Tests for src/mining: patterns (matching, refinement), quality metrics
// (Definition 7), LCA candidate generation, the miner (Algorithm 1), top-k
// selection against a full-sort oracle, and the recall-monotonicity
// property (Proposition 3.1) as a parameterized property sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/core/config.h"
#include "src/mining/lca.h"
#include "src/mining/lca_internal.h"
#include "src/mining/miner.h"
#include "src/mining/quality.h"
#include "src/common/timer.h"

namespace cajade {
namespace {

/// Hand-splits an unsharded APT into a ShardedApt by PT-position ranges of
/// `shard_pts` positions each. Shard tables adopt the source dictionaries so
/// codes stay comparable across shards — the same invariant the real sharded
/// materializer provides via CopyColumnSubset. The fixture's APT rows are in
/// PT-position order, so shard concatenation reproduces the original rows.
ShardedApt SplitApt(const Apt& apt, size_t shard_pts) {
  ShardedApt sa;
  sa.pt_rows_used = apt.pt_rows_used;
  sa.num_pt_columns = apt.num_pt_columns;
  sa.pattern_cols = apt.pattern_cols;
  size_t n = apt.pt_rows_used.size();
  for (size_t b = 0; b < n; b += shard_pts) {
    size_t e = std::min(n, b + shard_pts);
    AptShard shard;
    shard.pt_begin = b;
    shard.pt_end = e;
    std::vector<Column> cols;
    for (size_t c = 0; c < apt.table.num_columns(); ++c) {
      const Column& src = apt.table.column(c);
      Column dst(src.type());
      if (src.type() == DataType::kString) dst.AdoptDictionary(src);
      cols.push_back(std::move(dst));
    }
    size_t rows = 0;
    for (size_t r = 0; r < apt.num_rows(); ++r) {
      size_t p = static_cast<size_t>(apt.pt_row[r]);
      if (p < b || p >= e) continue;
      for (size_t c = 0; c < apt.table.num_columns(); ++c) {
        const Column& src = apt.table.column(c);
        if (src.IsNull(r)) {
          cols[c].AppendNull();
        } else if (src.type() == DataType::kString) {
          cols[c].AppendCode(src.GetCode(r));
        } else if (src.type() == DataType::kInt64) {
          cols[c].AppendInt(src.GetInt(r));
        } else {
          cols[c].AppendDouble(src.GetDouble(r));
        }
      }
      shard.pt_row.push_back(apt.pt_row[r]);
      ++rows;
    }
    shard.table =
        Table(apt.table.name(), apt.table.schema(), std::move(cols), rows);
    sa.total_rows += rows;
    sa.shards.push_back(std::move(shard));
  }
  return sa;
}

/// A small synthetic APT: 40 PT rows (first 24 class 0, rest class 1), two
/// APT rows per PT row. Columns: cat (string), num (int64).
struct AptFixture {
  Apt apt;
  PtClasses classes;

  AptFixture() {
    Schema schema({{"cat", DataType::kString}, {"num", DataType::kInt64}});
    Table t("APT", std::move(schema));
    Rng rng(13);
    for (int p = 0; p < 40; ++p) {
      bool class0 = p < 24;
      for (int copy = 0; copy < 2; ++copy) {
        // Class 0 rows skew to cat="a" & num>=50; class 1 to "b" & low num.
        std::string cat = (class0 ? rng.Bernoulli(0.8) : rng.Bernoulli(0.25))
                              ? "a"
                              : "b";
        int64_t num = class0 ? rng.UniformInt(40, 100) : rng.UniformInt(0, 60);
        (void)t.AppendRow({Value(cat), Value(num)});
        apt.pt_row.push_back(p);
      }
      apt.pt_rows_used.push_back(p);
      classes.push_back(class0 ? 0 : 1);
    }
    apt.table = std::move(t);
    apt.num_pt_columns = 0;
    apt.pattern_cols = {0, 1};
  }
};

TEST(PatternTest, MatchingSemantics) {
  AptFixture fx;
  Pattern p;
  p.preds.push_back(
      PatternPredicate::Make(fx.apt.table, 0, PredOp::kEq, Value("a")));
  p.preds.push_back(PatternPredicate::Make(fx.apt.table, 1, PredOp::kGe,
                                           Value(int64_t{50})));
  size_t matches = 0;
  for (size_t r = 0; r < fx.apt.num_rows(); ++r) {
    bool expected = fx.apt.table.GetValue(r, 0) == Value("a") &&
                    fx.apt.table.GetValue(r, 1).AsInt() >= 50;
    EXPECT_EQ(p.Matches(fx.apt.table, r), expected);
    matches += expected;
  }
  EXPECT_GT(matches, 0u);
}

TEST(PatternTest, UnknownDictValueNeverMatches) {
  AptFixture fx;
  Pattern p;
  p.preds.push_back(
      PatternPredicate::Make(fx.apt.table, 0, PredOp::kEq, Value("zz")));
  for (size_t r = 0; r < std::min<size_t>(fx.apt.num_rows(), 10); ++r) {
    EXPECT_FALSE(p.Matches(fx.apt.table, r));
  }
}

TEST(PatternTest, RefineKeepsSortedAndFind) {
  AptFixture fx;
  Pattern p;
  p = p.Refine(PatternPredicate::Make(fx.apt.table, 1, PredOp::kLe,
                                      Value(int64_t{70})));
  p = p.Refine(PatternPredicate::Make(fx.apt.table, 0, PredOp::kEq, Value("a")));
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.preds[0].col, 0);
  EXPECT_EQ(p.preds[1].col, 1);
  EXPECT_FALSE(p.IsFree(0));
  EXPECT_TRUE(p.IsFree(5));
  EXPECT_NE(p.Find(1), nullptr);
  EXPECT_EQ(p.NumNumericPreds(fx.apt.table), 1);
}

TEST(PatternTest, KeyAndDescribeStable) {
  AptFixture fx;
  Pattern p;
  p.preds.push_back(
      PatternPredicate::Make(fx.apt.table, 0, PredOp::kEq, Value("a")));
  EXPECT_EQ(p.Key(), "0=a");
  EXPECT_EQ(p.Describe(fx.apt.table), "cat=a");
  Pattern empty;
  EXPECT_EQ(empty.Describe(fx.apt.table), "(*)");
}

TEST(QualityTest, FullViewCountsClasses) {
  AptFixture fx;
  MetricsView view = FullView(fx.apt, fx.classes);
  EXPECT_EQ(view.n1, 24u);
  EXPECT_EQ(view.n2, 16u);
  EXPECT_TRUE(view.all_rows);
}

TEST(QualityTest, EmptyPatternScoresAsAllCovered) {
  AptFixture fx;
  MetricsView view = FullView(fx.apt, fx.classes);
  Pattern empty;
  PatternScores s = ScorePattern(empty, fx.apt, fx.classes, view, 0);
  EXPECT_EQ(s.tp, 24);
  EXPECT_EQ(s.fp, 16);
  EXPECT_EQ(s.fn, 0);
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
  EXPECT_NEAR(s.precision, 0.6, 1e-9);
}

TEST(QualityTest, CoverageIsExistentialOverAptRows) {
  // A pattern matching only one of a PT row's two APT rows still covers it.
  AptFixture fx;
  MetricsView view = FullView(fx.apt, fx.classes);
  Pattern p;
  p.preds.push_back(
      PatternPredicate::Make(fx.apt.table, 0, PredOp::kEq, Value("a")));
  std::vector<uint8_t> covered;
  ComputeCoverage(p, fx.apt, view, &covered);
  for (size_t pt = 0; pt < covered.size(); ++pt) {
    bool any = false;
    for (size_t r = 0; r < fx.apt.num_rows(); ++r) {
      if (fx.apt.pt_row[r] == static_cast<int32_t>(pt) &&
          p.Matches(fx.apt.table, r)) {
        any = true;
      }
    }
    EXPECT_EQ(covered[pt] != 0, any);
  }
}

TEST(QualityTest, PrimarySwapsSides) {
  AptFixture fx;
  MetricsView view = FullView(fx.apt, fx.classes);
  Pattern p;
  p.preds.push_back(
      PatternPredicate::Make(fx.apt.table, 0, PredOp::kEq, Value("a")));
  PatternScores s0 = ScorePattern(p, fx.apt, fx.classes, view, 0);
  PatternScores s1 = ScorePattern(p, fx.apt, fx.classes, view, 1);
  EXPECT_EQ(s0.tp, s1.fp);
  EXPECT_EQ(s0.fp, s1.tp);
}

TEST(QualityTest, SampledViewShrinksCountsButKeepsBothClasses) {
  AptFixture fx;
  Rng rng(3);
  MetricsView view = SampledView(fx.apt, fx.classes, 0.3, &rng);
  EXPECT_FALSE(view.all_rows);
  EXPECT_GT(view.n1, 0u);
  EXPECT_GT(view.n2, 0u);
  EXPECT_LT(view.n1 + view.n2, 40u);
  // APT rows restricted to sampled PT positions (one slice: the full APT).
  ASSERT_EQ(view.slice_rows.size(), 1u);
  for (int32_t r : view.slice_rows.front()) {
    EXPECT_TRUE(view.pt_sampled[fx.apt.pt_row[r]]);
  }
  // The mask mirrors the row list.
  size_t mask_count = 0;
  for (int32_t r : view.slice_rows.front()) {
    EXPECT_TRUE(view.slice_masks.front().Test(static_cast<size_t>(r)));
    ++mask_count;
  }
  EXPECT_EQ(view.slice_masks.front().Popcount(), mask_count);
  EXPECT_EQ(view.sampled_rows, view.slice_rows.front().size());
}

TEST(QualityTest, SampledViewIsShardIndependent) {
  // The PT-position sample must not depend on how the APT is sliced.
  AptFixture fx;
  Rng rng_a(3);
  MetricsView whole = SampledView(fx.apt, fx.classes, 0.3, &rng_a);
  for (size_t shard_pts : {1u, 7u, 13u, 40u, 100u}) {
    ShardedApt sa = SplitApt(fx.apt, shard_pts);
    Rng rng_b(3);
    AptSliceSet ss = MakeSliceSet(sa);
    MetricsView split = SampledView(ss, fx.classes, 0.3, &rng_b);
    EXPECT_EQ(split.pt_sampled, whole.pt_sampled) << "shard_pts=" << shard_pts;
    EXPECT_EQ(split.n1, whole.n1);
    EXPECT_EQ(split.n2, whole.n2);
    EXPECT_EQ(split.sampled_rows, whole.sampled_rows);
    // Concatenating slice row lists (offset to global ids) reproduces the
    // unsharded row list.
    std::vector<int32_t> merged;
    size_t offset = 0;
    for (size_t si = 0; si < ss.slices.size(); ++si) {
      for (int32_t r : split.slice_rows[si]) {
        merged.push_back(static_cast<int32_t>(offset + r));
      }
      offset += ss.slices[si].num_rows();
    }
    EXPECT_EQ(merged, whole.slice_rows.front()) << "shard_pts=" << shard_pts;
  }
}

TEST(QualityTest, LocateRoutesGlobalRowsToSlices) {
  AptFixture fx;
  for (size_t shard_pts : {1u, 7u, 40u}) {
    ShardedApt sa = SplitApt(fx.apt, shard_pts);
    AptSliceSet ss = MakeSliceSet(sa);
    ASSERT_EQ(ss.offsets.size(), ss.slices.size() + 1);
    EXPECT_EQ(ss.offsets.back(), ss.total_rows);
    size_t row = 0;
    for (size_t si = 0; si < ss.slices.size(); ++si) {
      for (size_t r = 0; r < ss.slices[si].num_rows(); ++r, ++row) {
        EXPECT_EQ(ss.Locate(row), std::make_pair(si, r)) << "row " << row;
      }
    }
  }
}

TEST(CoverageTest, OrMergesShardCoverage) {
  CoverageBitmap a(100), b(100);
  a.Set(3);
  a.Set(64);
  b.Set(64);
  b.Set(99);
  a.Or(b);
  EXPECT_TRUE(a.Test(3));
  EXPECT_TRUE(a.Test(64));
  EXPECT_TRUE(a.Test(99));
  EXPECT_EQ(a.Popcount(), 3u);
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
TEST(CoverageDeathTest, OrRejectsMismatchedSizes) {
  // Merging a shard-row mask into a PT-position set is a bug the size
  // assert must catch loudly.
  CoverageBitmap pt_set(100);
  CoverageBitmap shard_mask(37);
  EXPECT_DEATH(pt_set.Or(shard_mask), "num_bits_");
}
#endif

TEST(LcaTest, CandidatesAreEqualityMeets) {
  AptFixture fx;
  Rng rng(5);
  auto candidates = GenerateLcaCandidates(fx.apt, {0}, 40, &rng);
  ASSERT_FALSE(candidates.empty());
  // Over one binary column, the only meets are cat=a and cat=b.
  EXPECT_LE(candidates.size(), 2u);
  for (const auto& c : candidates) {
    ASSERT_EQ(c.codes.size(), 1u);
    EXPECT_GE(c.codes[0], 0);
    EXPECT_LT(c.codes[0], 2);
    EXPECT_GT(c.pair_count, 0);
    const Pattern p = SignaturePattern(fx.apt.table, {0}, c.codes);
    ASSERT_EQ(p.size(), 1u);
    EXPECT_EQ(p.preds[0].op, PredOp::kEq);
    EXPECT_EQ(p.preds[0].code, c.codes[0]);
  }
  if (candidates.size() == 2) {
    EXPECT_NE(candidates[0].codes, candidates[1].codes);
  }
  // Sorted by pair count.
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_GE(candidates[i - 1].pair_count, candidates[i].pair_count);
  }
}

TEST(LcaTest, EmptyInputsProduceNoCandidates) {
  AptFixture fx;
  Rng rng(5);
  EXPECT_TRUE(GenerateLcaCandidates(fx.apt, {}, 40, &rng).empty());
}

TEST(LcaTest, SlicedCandidatesBitIdentical) {
  AptFixture fx;
  Rng rng_a(5);
  auto whole = GenerateLcaCandidates(fx.apt, {0}, 40, &rng_a);
  for (size_t shard_pts : {1u, 7u, 13u, 40u}) {
    ShardedApt sa = SplitApt(fx.apt, shard_pts);
    Rng rng_b(5);
    auto split = GenerateLcaCandidates(MakeSliceSet(sa), {0}, 40, &rng_b);
    ASSERT_EQ(split.size(), whole.size()) << "shard_pts=" << shard_pts;
    for (size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(split[i].pair_count, whole[i].pair_count);
      EXPECT_EQ(split[i].codes, whole[i].codes);
    }
  }
}

/// Test-only oracle: LCA generation as a per-pair loop. Every sampled pair
/// (i < j, in (i, j) order) bumps its signature in the same map type and
/// hash as the library, followed by the same unstable sort.
std::vector<LcaCandidate> PairLoopLcaCandidates(const AptSliceSet& ss,
                                                const std::vector<int>& cat_cols,
                                                size_t sample_size, Rng* rng) {
  const std::vector<size_t> sample =
      rng->SampleIndices(ss.total_rows, sample_size);
  const size_t s = sample.size();
  const size_t k = cat_cols.size();
  std::vector<std::vector<int32_t>> codes(k, std::vector<int32_t>(s));
  for (size_t i = 0; i < s; ++i) {
    size_t si = 0;
    size_t local = sample[i];
    while (local >= ss.slices[si].num_rows()) local -= ss.slices[si++].num_rows();
    for (size_t c = 0; c < k; ++c) {
      const Column& col = ss.slices[si].table->column(cat_cols[c]);
      codes[c][i] = col.IsNull(local) ? -1 : col.GetCode(local);
    }
  }
  LcaSigCounts counts;
  std::vector<int32_t> sig(k);
  for (size_t i = 0; i < s; ++i) {
    for (size_t j = i + 1; j < s; ++j) {
      bool any = false;
      for (size_t c = 0; c < k; ++c) {
        const int32_t a = codes[c][i];
        sig[c] = a >= 0 && a == codes[c][j] ? a : -1;
        any = any || sig[c] >= 0;
      }
      if (any) ++counts[sig];
    }
  }
  std::vector<LcaCandidate> out;
  for (const auto& [signature, count] : counts) out.push_back({signature, count});
  std::sort(out.begin(), out.end(),
            [](const LcaCandidate& a, const LcaCandidate& b) {
              return a.pair_count > b.pair_count;
            });
  return out;
}

/// A generated APT of `n` rows over `k` string columns, two rows per PT
/// row. Rows repeat a skewed choice among n/8 prototype rows, so samples
/// hold many duplicates. Each column has a dictionary of 2 to 10^4 values
/// (skewed toward low codes, so large dictionaries still meet) and a NULL
/// rate of 0-50%.
Apt MakeLcaApt(size_t n, size_t k, Rng* rng) {
  static const int32_t kDictSizes[] = {2, 3, 12, 300, 10000};
  std::vector<ColumnDef> defs;
  std::vector<Column> cols;
  std::vector<std::vector<int32_t>> protos(std::max<size_t>(1, n / 8),
                                           std::vector<int32_t>(k));
  for (size_t c = 0; c < k; ++c) {
    defs.push_back({"c" + std::to_string(c), DataType::kString});
    cols.emplace_back(DataType::kString);
    const int32_t dict = kDictSizes[rng->NextBounded(5)];
    for (int32_t v = 0; v < dict; ++v) {
      cols[c].InternString("v" + std::to_string(v));
    }
    const double null_rate = rng->Uniform(0.0, 0.5);
    for (auto& proto : protos) {
      const double u = rng->UniformDouble();
      proto[c] = rng->Bernoulli(null_rate)
                     ? -1
                     : static_cast<int32_t>(dict * u * u * u);
    }
  }
  Apt apt;
  for (size_t r = 0; r < n; ++r) {
    const double u = rng->UniformDouble();
    const auto& proto = protos[static_cast<size_t>(protos.size() * u * u)];
    for (size_t c = 0; c < k; ++c) {
      if (proto[c] < 0) {
        cols[c].AppendNull();
      } else {
        cols[c].AppendCode(proto[c]);
      }
    }
    apt.pt_row.push_back(static_cast<int32_t>(r / 2));
    if (r % 2 == 0) apt.pt_rows_used.push_back(static_cast<int64_t>(r / 2));
  }
  apt.table = Table("APT", Schema(std::move(defs)), std::move(cols), n);
  apt.num_pt_columns = 0;
  apt.pattern_cols.resize(k);
  std::iota(apt.pattern_cols.begin(), apt.pattern_cols.end(), 0);
  return apt;
}

TEST(LcaTest, MatchesPairLoopOracle) {
  // The grouped meet must return the per-pair loop's list exactly: same
  // candidates, same counts, and the same order among equal counts. Rows
  // wider than one mask word (k = 65, 130) and the full word (k = 64) stop
  // at 200 samples: the oracle costs k per pair, and 200 samples already
  // give thousands of candidates there.
  Rng gen(2024);
  for (size_t k : {1u, 4u, 6u, 17u, 64u, 65u, 130u}) {
    const Apt apt = MakeLcaApt(1600, k, &gen);
    std::vector<int> cat_cols(k);
    std::iota(cat_cols.begin(), cat_cols.end(), 0);
    for (size_t sample : {16u, 200u, 1000u}) {
      if (k >= 64 && sample > 200) continue;
      const uint64_t seed = gen.Next();
      const size_t shard_pts = 1 + gen.NextBounded(apt.pt_rows_used.size());
      SCOPED_TRACE("k=" + std::to_string(k) + " sample=" +
                   std::to_string(sample) + " shard_pts=" +
                   std::to_string(shard_pts));
      Rng rng_oracle(seed);
      const auto expected =
          PairLoopLcaCandidates(MakeSliceSet(apt), cat_cols, sample, &rng_oracle);
      ASSERT_FALSE(expected.empty());
      const ShardedApt split = SplitApt(apt, shard_pts);
      for (const AptSliceSet& ss : {MakeSliceSet(apt), MakeSliceSet(split)}) {
        Rng rng(seed);
        const auto got = GenerateLcaCandidates(ss, cat_cols, sample, &rng);
        ASSERT_EQ(got.size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i) {
          ASSERT_EQ(got[i].pair_count, expected[i].pair_count) << "at " << i;
          ASSERT_EQ(got[i].codes, expected[i].codes) << "at " << i;
        }
      }
    }
  }
}

TEST(MinerTest, FindsDiscriminativePattern) {
  AptFixture fx;
  CajadeConfig config;
  config.sel_attr = 1.0;
  PatternMiner miner(&config, nullptr);
  Rng rng(7);
  MineResult result = miner.Mine(fx.apt, fx.classes, &rng).ValueOrDie();
  ASSERT_FALSE(result.top_k.empty());
  // The best pattern should beat the trivial baseline (precision 0.6).
  EXPECT_GT(result.top_k[0].exact.fscore, 0.75);
  EXPECT_GT(result.patterns_evaluated, 0u);
  // Supports are consistent.
  for (const auto& mp : result.top_k) {
    EXPECT_LE(mp.support_primary, mp.total_primary);
    EXPECT_LE(mp.support_other, mp.total_other);
    EXPECT_EQ(mp.total_primary + mp.total_other, 40);
  }
}

TEST(MinerTest, ShardedMineBitIdentical) {
  // The shard-native miner must reproduce the unsharded result exactly —
  // same patterns, same order, same scores, same counters — at any shard
  // size, including sampled (f1_sample_rate < 1) configurations.
  AptFixture fx;
  for (double sample_rate : {1.0, 0.5}) {
    CajadeConfig config;
    config.sel_attr = 1.0;
    config.f1_sample_rate = sample_rate;
    PatternMiner miner(&config, nullptr);
    Rng rng(7);
    MineResult whole = miner.Mine(fx.apt, fx.classes, &rng).ValueOrDie();
    for (size_t shard_pts : {1u, 7u, 13u, 40u, 100u}) {
      ShardedApt sa = SplitApt(fx.apt, shard_pts);
      Rng rng2(7);
      MineResult split = miner.Mine(sa, fx.classes, &rng2).ValueOrDie();
      SCOPED_TRACE("shard_pts=" + std::to_string(shard_pts) +
                   " rate=" + std::to_string(sample_rate));
      EXPECT_EQ(split.apt_rows, whole.apt_rows);
      EXPECT_EQ(split.num_attributes, whole.num_attributes);
      EXPECT_EQ(split.selected_attributes, whole.selected_attributes);
      EXPECT_EQ(split.lca_candidates, whole.lca_candidates);
      EXPECT_EQ(split.patterns_evaluated, whole.patterns_evaluated);
      EXPECT_EQ(split.budget_exhausted, whole.budget_exhausted);
      ASSERT_EQ(split.top_k.size(), whole.top_k.size());
      for (size_t i = 0; i < whole.top_k.size(); ++i) {
        const MinedPattern& w = whole.top_k[i];
        const MinedPattern& s = split.top_k[i];
        EXPECT_EQ(s.pattern.Key(), w.pattern.Key());
        EXPECT_EQ(s.primary, w.primary);
        EXPECT_EQ(s.scores.tp, w.scores.tp);
        EXPECT_EQ(s.scores.fp, w.scores.fp);
        EXPECT_EQ(s.exact.tp, w.exact.tp);
        EXPECT_EQ(s.exact.fp, w.exact.fp);
        EXPECT_DOUBLE_EQ(s.exact.fscore, w.exact.fscore);
        EXPECT_EQ(s.support_primary, w.support_primary);
        EXPECT_EQ(s.total_primary, w.total_primary);
        EXPECT_EQ(s.support_other, w.support_other);
        EXPECT_EQ(s.total_other, w.total_other);
      }
    }
  }
}

/// A generated APT over 150 PT rows with 1 to 3 APT rows each: two
/// NULL-heavy string columns and two small-int columns (some NULLs), with
/// class 0 skewed toward c0 = "x" and larger n0. Rows are in PT order, so
/// SplitApt can shard it.
struct GeneratedApt {
  Apt apt;
  PtClasses classes;
};

GeneratedApt MakeMinerApt(Rng* rng) {
  GeneratedApt g;
  Table t("APT", Schema({{"c0", DataType::kString},
                         {"c1", DataType::kString},
                         {"n0", DataType::kInt64},
                         {"n1", DataType::kInt64}}));
  for (int p = 0; p < 150; ++p) {
    const bool class0 = rng->Bernoulli(0.5);
    const size_t copies = 1 + rng->NextBounded(3);
    for (size_t copy = 0; copy < copies; ++copy) {
      Value c0 = rng->Bernoulli(0.4)
                     ? Value::Null()
                     : Value(class0 && rng->Bernoulli(0.6)
                                 ? std::string("x")
                                 : "y" + std::to_string(rng->NextBounded(3)));
      Value c1 = rng->Bernoulli(0.5)
                     ? Value::Null()
                     : Value("z" + std::to_string(rng->NextBounded(class0 ? 2 : 4)));
      Value n0 = rng->Bernoulli(0.3)
                     ? Value::Null()
                     : Value(rng->UniformInt(class0 ? 2 : 0, 6));
      Value n1 = rng->Bernoulli(0.2) ? Value::Null() : Value(rng->UniformInt(0, 4));
      (void)t.AppendRow({c0, c1, n0, n1});
      g.apt.pt_row.push_back(p);
    }
    g.apt.pt_rows_used.push_back(p);
    g.classes.push_back(class0 ? 0 : 1);
  }
  g.apt.table = std::move(t);
  g.apt.num_pt_columns = 0;
  g.apt.pattern_cols = {0, 1, 2, 3};
  return g;
}

TEST(MinerTest, ExactSupportsMatchScalarOracle) {
  // Every winner's exact scores and supports must equal the scalar
  // Pattern::Matches oracle over the full view, whole or sharded, with or
  // without F-score sampling.
  Rng gen(77);
  const GeneratedApt g = MakeMinerApt(&gen);
  const MetricsView full = FullView(g.apt, g.classes);
  for (double sample_rate : {1.0, 0.5}) {
    CajadeConfig config;
    config.enable_feature_selection = false;
    config.f1_sample_rate = sample_rate;
    PatternMiner miner(&config, nullptr);
    for (size_t shard_pts : {0u, 1u, 7u, 64u}) {  // 0: the unsharded APT
      SCOPED_TRACE("shard_pts=" + std::to_string(shard_pts) +
                   " rate=" + std::to_string(sample_rate));
      Rng rng(9);
      const MineResult result =
          shard_pts == 0
              ? miner.Mine(g.apt, g.classes, &rng).ValueOrDie()
              : miner.Mine(SplitApt(g.apt, shard_pts), g.classes, &rng)
                    .ValueOrDie();
      ASSERT_FALSE(result.top_k.empty());
      for (const MinedPattern& mp : result.top_k) {
        SCOPED_TRACE(mp.pattern.Key());
        const PatternScores sp =
            ScorePattern(mp.pattern, g.apt, g.classes, full, mp.primary);
        const PatternScores so =
            ScorePattern(mp.pattern, g.apt, g.classes, full, 1 - mp.primary);
        EXPECT_EQ(mp.exact.tp, sp.tp);
        EXPECT_EQ(mp.exact.fp, sp.fp);
        EXPECT_EQ(mp.exact.fn, sp.fn);
        EXPECT_DOUBLE_EQ(mp.exact.precision, sp.precision);
        EXPECT_DOUBLE_EQ(mp.exact.recall, sp.recall);
        EXPECT_DOUBLE_EQ(mp.exact.fscore, sp.fscore);
        EXPECT_EQ(mp.support_primary, sp.tp);
        EXPECT_EQ(mp.total_primary, sp.tp + sp.fn);
        EXPECT_EQ(mp.support_other, so.tp);
        EXPECT_EQ(mp.total_other, so.tp + so.fn);
      }
    }
  }
}

/// Mines MakeMinerApt's APT, whole and in 7-position shards, under
/// `config` and returns both statuses' codes.
std::vector<StatusCode> MineCodes(const CajadeConfig& config) {
  Rng gen(77);
  const GeneratedApt g = MakeMinerApt(&gen);
  PatternMiner miner(&config, nullptr);
  Rng rng(9);
  Rng sharded_rng(9);
  return {miner.Mine(g.apt, g.classes, &rng).status().code(),
          miner.Mine(SplitApt(g.apt, 7), g.classes, &sharded_rng)
              .status()
              .code()};
}

const std::vector<StatusCode> kBothOk = {StatusCode::kOk, StatusCode::kOk};
const std::vector<StatusCode> kBothInvalid = {StatusCode::kInvalidArgument,
                                              StatusCode::kInvalidArgument};

// Each knob below reaches an integer cast or a container size inside the
// miner; a bad value must be InvalidArgument up front, never undefined
// behaviour or an exception from training. The boundary values and huge
// values (clamped before any cast) still mine.
TEST(MinerKnobTest, SelAttrNegativeOrNanRejected) {
  for (double v : {-0.5, -3.0, std::nan("")}) {
    CajadeConfig config;
    config.sel_attr = v;
    EXPECT_EQ(MineCodes(config), kBothInvalid) << v;
  }
  for (double v : {0.0, 1.0, 2.5, 1e300, HUGE_VAL}) {
    CajadeConfig config;
    config.sel_attr = v;
    EXPECT_EQ(MineCodes(config), kBothOk) << v;
  }
}

TEST(MinerKnobTest, PatSampleRateNegativeOrNanRejected) {
  for (double v : {-0.1, std::nan("")}) {
    CajadeConfig config;
    config.pat_sample_rate = v;
    EXPECT_EQ(MineCodes(config), kBothInvalid) << v;
  }
  for (double v : {0.0, 1.0, 1e300, HUGE_VAL}) {
    CajadeConfig config;
    config.pat_sample_rate = v;
    EXPECT_EQ(MineCodes(config), kBothOk) << v;
  }
}

TEST(MinerKnobTest, NegativeForestTreesRejected) {
  CajadeConfig config;
  config.forest_trees = -1;
  EXPECT_EQ(MineCodes(config), kBothInvalid);
  config.forest_trees = 0;  // no trees: nothing learned, every attr kept
  EXPECT_EQ(MineCodes(config), kBothOk);
}

TEST(MinerKnobTest, ForestMaxDepthBelowMinusOneRejected) {
  CajadeConfig config;
  config.forest_max_depth = -2;
  EXPECT_EQ(MineCodes(config), kBothInvalid);
  config.forest_max_depth = -1;  // root-only trees
  EXPECT_EQ(MineCodes(config), kBothOk);
}

TEST(MinerTest, MaxNumericAttrsRespected) {
  AptFixture fx;
  CajadeConfig config;
  config.sel_attr = 1.0;
  config.max_numeric_attrs = 0;  // no numeric refinement at all
  PatternMiner miner(&config, nullptr);
  Rng rng(7);
  MineResult result = miner.Mine(fx.apt, fx.classes, &rng).ValueOrDie();
  for (const auto& mp : result.top_k) {
    EXPECT_EQ(mp.pattern.NumNumericPreds(fx.apt.table), 0);
  }
}

TEST(MinerTest, DiversityChangesSelection) {
  AptFixture fx;
  CajadeConfig config;
  config.sel_attr = 1.0;
  PatternMiner miner(&config, nullptr);
  Rng rng(7);
  MineResult with = miner.Mine(fx.apt, fx.classes, &rng).ValueOrDie();
  config.enable_diversity = false;
  Rng rng2(7);
  MineResult without = miner.Mine(fx.apt, fx.classes, &rng2).ValueOrDie();
  // Both return k patterns; the diverse set has at least as many distinct
  // attribute combinations.
  auto distinct_shapes = [&](const MineResult& r) {
    std::set<std::string> shapes;
    for (const auto& mp : r.top_k) {
      std::string s;
      for (const auto& pred : mp.pattern.preds) s += std::to_string(pred.col) + ",";
      shapes.insert(s);
    }
    return shapes.size();
  };
  EXPECT_GE(distinct_shapes(with), distinct_shapes(without));
}

TEST(MinerTest, StageTimesAddUpToWallTime) {
  // Refinement recurses; each stage must still be charged once, so the
  // stages of a serial Mine never sum past its wall time. The APT has
  // several numeric attributes so refinement chains run deep.
  Schema schema({{"cat", DataType::kString},
                 {"n0", DataType::kInt64},
                 {"n1", DataType::kInt64},
                 {"n2", DataType::kDouble},
                 {"n3", DataType::kDouble}});
  Table t("APT", std::move(schema));
  Apt apt;
  PtClasses classes;
  Rng rng(21);
  for (int p = 0; p < 2000; ++p) {
    const bool class0 = p < 1100;
    (void)t.AppendRow({Value(rng.Bernoulli(class0 ? 0.7 : 0.3) ? "a" : "b"),
                       Value(rng.UniformInt(class0 ? 30 : 0, 100)),
                       Value(rng.UniformInt(0, class0 ? 60 : 100)),
                       Value(rng.Uniform(class0 ? 0.2 : 0.0, 1.0)),
                       Value(rng.Uniform(0.0, 1.0))});
    apt.pt_row.push_back(p);
    apt.pt_rows_used.push_back(p);
    classes.push_back(class0 ? 0 : 1);
  }
  apt.table = std::move(t);
  apt.num_pt_columns = 0;
  apt.pattern_cols = {0, 1, 2, 3, 4};

  CajadeConfig config;
  config.enable_feature_selection = false;
  config.num_fragments = 8;
  config.max_numeric_attrs = 4;
  StepProfiler profiler;
  PatternMiner miner(&config, &profiler);
  Timer wall;
  MineResult result = miner.Mine(apt, classes, &rng).ValueOrDie();
  const double wall_seconds = wall.ElapsedSeconds();
  EXPECT_GT(result.patterns_evaluated, 100u);
  for (const char* stage : {"Gen. Pat. Cand.", "Sampling for F1",
                            "F-score Calc.", "Refine Patterns",
                            "Top-k Selection", "Exact Supports"}) {
    EXPECT_EQ(profiler.totals().count(stage), 1u) << stage;
  }
  EXPECT_GT(profiler.Get("Refine Patterns"), 0.0);
  EXPECT_GT(profiler.Get("F-score Calc."), 0.0);
  EXPECT_LE(profiler.Total(), wall_seconds);
}

TEST(DiversityScoreTest, MatchesPaperFormula) {
  AptFixture fx;
  auto eq = [&](int col, const char* v) {
    return PatternPredicate::Make(fx.apt.table, col, PredOp::kEq, Value(v));
  };
  Pattern a;
  a.preds = {eq(0, "a")};
  Pattern b_free;  // attribute not used: +1
  EXPECT_DOUBLE_EQ(DiversityScore(a, b_free), 1.0);
  Pattern b_same;
  b_same.preds = {eq(0, "a")};  // same constant: -2
  EXPECT_DOUBLE_EQ(DiversityScore(a, b_same), -2.0);
  Pattern b_diff;
  b_diff.preds = {eq(0, "b")};  // different constant: -0.3
  EXPECT_DOUBLE_EQ(DiversityScore(a, b_diff), -0.3);
}

// ---- Top-k selection against a full-sort oracle --------------------------
// The oracle reads the spec directly: build every Pattern::Key(), fully sort
// by (F-score desc, key asc, pool index asc), keep the first 2000 for the
// diversity pass, and rescan every pick for each candidate's min D.

std::vector<size_t> OracleTopK(const std::vector<MinedPattern>& pool, size_t k,
                               bool use_diversity) {
  std::vector<std::string> keys;
  for (const MinedPattern& mp : pool) keys.push_back(mp.pattern.Key());
  std::vector<size_t> order(pool.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (pool[a].scores.fscore != pool[b].scores.fscore) {
      return pool[a].scores.fscore > pool[b].scores.fscore;
    }
    if (keys[a] != keys[b]) return keys[a] < keys[b];
    return a < b;
  });
  if (!use_diversity) {
    if (order.size() > k) order.resize(k);
    return order;
  }
  if (order.size() > 2000) order.resize(2000);
  std::vector<size_t> selected;
  std::vector<bool> used(order.size(), false);
  while (selected.size() < k) {
    double best_score = -1e18;
    size_t best_pos = SIZE_MAX;
    for (size_t pos = 0; pos < order.size(); ++pos) {
      if (used[pos]) continue;
      const MinedPattern& cand = pool[order[pos]];
      double wscore = cand.scores.fscore;
      if (!selected.empty()) {
        double min_d = 1e18;
        for (size_t s : selected) {
          min_d = std::min(min_d, DiversityScore(cand.pattern, pool[s].pattern));
        }
        wscore += min_d;
      }
      if (wscore > best_score) {
        best_score = wscore;
        best_pos = pos;
      }
    }
    if (best_pos == SIZE_MAX) break;
    used[best_pos] = true;
    selected.push_back(order[best_pos]);
  }
  return selected;
}

/// A random pool shaped like the miner's: few distinct F-scores (heavy tie
/// runs), the same pattern under both primaries, string constants whose
/// keys order differently from their parts ("a!" sorts before the '&' that
/// follows "a"), multi-digit columns, and INT64 bounds that truncate to
/// equal constants (3.2 and 3.7 both become 3).
std::vector<MinedPattern> RandomTiePool(const Table& table, size_t size,
                                        Rng* rng) {
  const char* strings[] = {"a", "a!", "ab"};
  const char* tags[] = {"x", "y"};
  const double int_bounds[] = {3.2, 3.7, 10.5};
  const double double_bounds[] = {0.25, 0.5};
  const double fscores[] = {0.2, 0.5, 0.5, 0.8, 0.8, 0.8};
  std::vector<MinedPattern> pool;
  while (pool.size() < size) {
    Pattern p;
    auto op = [&] { return rng->Bernoulli(0.5) ? PredOp::kLe : PredOp::kGe; };
    if (rng->Bernoulli(0.6)) {
      p.preds.push_back(PatternPredicate::Make(table, 1, PredOp::kEq,
                                               Value(strings[rng->NextBounded(3)])));
    }
    if (rng->Bernoulli(0.4)) {
      p.preds.push_back(PatternPredicate::Make(table, 2, PredOp::kEq,
                                               Value(tags[rng->NextBounded(2)])));
    }
    if (rng->Bernoulli(0.5)) {
      p.preds.push_back(PatternPredicate::Make(
          table, 10, op(),
          Value(static_cast<int64_t>(int_bounds[rng->NextBounded(3)]))));
    }
    if (rng->Bernoulli(0.4)) {
      p.preds.push_back(PatternPredicate::Make(
          table, 11, op(), Value(double_bounds[rng->NextBounded(2)])));
    }
    if (p.empty()) continue;
    MinedPattern mp;
    mp.pattern = std::move(p);
    mp.scores.fscore = fscores[rng->NextBounded(6)];
    const bool both_primaries = rng->Bernoulli(0.5);
    pool.push_back(mp);
    if (both_primaries) {
      mp.primary = 1;
      pool.push_back(mp);
    }
  }
  return pool;
}

TEST(TopKTest, MatchesFullSortOracle) {
  std::vector<ColumnDef> cols;
  for (int c = 0; c < 12; ++c) {
    const DataType type = c == 1 || c == 2 ? DataType::kString
                          : c == 11        ? DataType::kDouble
                                           : DataType::kInt64;
    cols.push_back({"c" + std::to_string(c), type});
  }
  Table table("APT", Schema(cols));
  for (size_t pool_size : {300u, 2500u, 4100u}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      Rng rng(seed);
      std::vector<MinedPattern> pool = RandomTiePool(table, pool_size, &rng);
      for (size_t k : {0u, 1u, 10u, 40u}) {
        for (bool use_diversity : {false, true}) {
          SCOPED_TRACE("pool=" + std::to_string(pool.size()) +
                       " seed=" + std::to_string(seed) +
                       " k=" + std::to_string(k) +
                       " diversity=" + std::to_string(use_diversity));
          EXPECT_EQ(SelectTopKDiverse(pool, k, use_diversity),
                    OracleTopK(pool, k, use_diversity));
        }
      }
    }
  }
}

// ---- Proposition 3.1 as a property sweep ----------------------------------
// For random patterns and any refinement, recall must not increase.

class RecallMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(RecallMonotonicityTest, RefinementNeverIncreasesRecall) {
  AptFixture fx;
  MetricsView view = FullView(fx.apt, fx.classes);
  Rng rng(GetParam());
  // Random base pattern: maybe a categorical predicate.
  Pattern base;
  if (rng.Bernoulli(0.5)) {
    base.preds.push_back(PatternPredicate::Make(
        fx.apt.table, 0, PredOp::kEq, Value(rng.Bernoulli(0.5) ? "a" : "b")));
  }
  // Random numeric refinement.
  PredOp op = rng.Bernoulli(0.5) ? PredOp::kLe : PredOp::kGe;
  Pattern refined = base.Refine(PatternPredicate::Make(
      fx.apt.table, 1, op, Value(rng.UniformInt(0, 100))));
  for (int primary = 0; primary < 2; ++primary) {
    PatternScores s_base = ScorePattern(base, fx.apt, fx.classes, view, primary);
    PatternScores s_ref =
        ScorePattern(refined, fx.apt, fx.classes, view, primary);
    EXPECT_LE(s_ref.recall, s_base.recall + 1e-12)
        << "primary=" << primary << " base=" << base.Describe(fx.apt.table)
        << " refined=" << refined.Describe(fx.apt.table);
    // TP monotone too (Definition 7b).
    EXPECT_LE(s_ref.tp, s_base.tp);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPatterns, RecallMonotonicityTest,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace cajade
