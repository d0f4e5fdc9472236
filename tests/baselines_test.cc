// Tests for the comparison systems: Explanation Tables and CAPE.

#include <gtest/gtest.h>

#include "src/baselines/cape.h"
#include "src/baselines/explanation_tables.h"
#include "src/common/timer.h"

namespace cajade {
namespace {

/// APT with a binary outcome strongly linked to cat="hot". With
/// `unique_ids`, a fourth categorical column holds a distinct value per row,
/// so no two rows are identical.
struct EtFixture {
  Apt apt;
  std::vector<int8_t> outcome;

  explicit EtFixture(int rows = 400, bool unique_ids = false) {
    std::vector<ColumnDef> defs = {{"cat", DataType::kString},
                                   {"other", DataType::kString},
                                   {"num", DataType::kInt64}};
    if (unique_ids) defs.push_back({"id", DataType::kString});
    Table t("APT", Schema(std::move(defs)));
    Rng rng(21);
    for (int i = 0; i < rows; ++i) {
      bool hot = rng.Bernoulli(0.4);
      std::string cat = hot ? "hot" : "cold";
      std::string other = rng.Bernoulli(0.5) ? "x" : "y";
      std::vector<Value> row = {Value(cat), Value(other),
                                Value(rng.UniformInt(0, 100))};
      if (unique_ids) row.push_back(Value("r" + std::to_string(i)));
      (void)t.AppendRow(row);
      apt.pt_row.push_back(i);
      apt.pt_rows_used.push_back(i);
      outcome.push_back(hot && rng.Bernoulli(0.9) ? 1 : (rng.Bernoulli(0.1) ? 1 : 0));
    }
    apt.table = std::move(t);
    apt.pattern_cols = {0, 1, 2};
    if (unique_ids) apt.pattern_cols.push_back(3);
  }
};

TEST(ExplanationTablesTest, FindsHighGainPatternFirst) {
  EtFixture fx;
  EtOptions options;
  options.sample_size = 64;
  options.table_size = 5;
  ExplanationTables et(options);
  Rng rng(3);
  auto table = et.Build(fx.apt, fx.outcome, &rng);
  ASSERT_FALSE(table.empty());
  // The first pattern must involve the cat column and have a rate far from
  // the base rate.
  EXPECT_NE(table[0].pattern.Describe(fx.apt.table).find("cat"),
            std::string::npos);
  EXPECT_GT(table[0].gain, 0.0);
  // Gains weakly decrease (greedy).
  for (size_t i = 1; i < table.size(); ++i) {
    EXPECT_LE(table[i].gain, table[0].gain + 1e-9);
  }
}

TEST(ExplanationTablesTest, RuntimeGrowsWithSampleSize) {
  // The LCA meet runs once per pair of distinct sampled rows, so its work
  // grows with the sample only where sampled rows differ. Every row here is
  // distinct (unique ids), as in real APTs with key-like attributes.
  EtFixture fx(1000, /*unique_ids=*/true);
  Rng rng(3);
  auto run = [&](size_t size) {
    EtOptions options;
    options.sample_size = size;
    options.table_size = 10;
    ExplanationTables et(options);
    Rng local(3);
    Timer t;
    auto table = et.Build(fx.apt, fx.outcome, &local);
    return t.ElapsedSeconds();
  };
  // Not asserting exact quadratics (too flaky); just that work grows.
  double small = run(16) + run(16);
  double big = run(1000) + run(1000);
  EXPECT_GT(big, small);
}

TEST(ExplanationTablesTest, NoCategoricalColumnsYieldsEmpty) {
  Apt apt;
  Schema schema({{"num", DataType::kInt64}});
  Table t("APT", std::move(schema));
  (void)t.AppendRow({Value(int64_t{1})});
  apt.table = std::move(t);
  apt.pt_row = {0};
  apt.pt_rows_used = {0};
  apt.pattern_cols = {0};
  ExplanationTables et(EtOptions{});
  Rng rng(1);
  EXPECT_TRUE(et.Build(apt, {1}, &rng).empty());
}

TEST(BinNumericTest, ConvertsNumericToCategorical) {
  EtFixture fx;
  Apt binned = BinNumericColumns(fx.apt, 4);
  int num_col = binned.table.schema().FindColumn("num");
  ASSERT_GE(num_col, 0);
  EXPECT_EQ(binned.table.schema().column(num_col).type, DataType::kString);
  EXPECT_LE(binned.table.column(num_col).dict_size(), 4u);
  EXPECT_EQ(binned.table.num_rows(), fx.apt.table.num_rows());
}

Table MakeSeries() {
  Table t("result", Schema({{"season", DataType::kString},
                            {"win", DataType::kInt64}}));
  // Rising trend with one high outlier (index 3) and one low dip (index 1).
  int64_t wins[] = {20, 10, 30, 60, 38, 45};
  const char* seasons[] = {"s0", "s1", "s2", "s3", "s4", "s5"};
  for (int i = 0; i < 6; ++i) {
    (void)t.AppendRow({Value(seasons[i]), Value(wins[i])});
  }
  return t;
}

TEST(CapeTest, HighOutlierGetsLowCounterbalances) {
  Table series = MakeSeries();
  Cape cape;
  auto result = cape.Explain(series, "win", Where({{"season", Value("s3")}}),
                             CapeDirection::kHigh, 3)
                    .ValueOrDie();
  ASSERT_FALSE(result.empty());
  // All counterbalances lie below the trend.
  for (const auto& e : result) {
    EXPECT_LT(e.residual, 0.0);
  }
  // The deepest dip (s1) ranks first.
  EXPECT_NE(result[0].tuple.find("s1"), std::string::npos);
}

TEST(CapeTest, LowOutlierGetsHighCounterbalances) {
  Table series = MakeSeries();
  Cape cape;
  auto result = cape.Explain(series, "win", Where({{"season", Value("s1")}}),
                             CapeDirection::kLow, 3)
                    .ValueOrDie();
  ASSERT_FALSE(result.empty());
  for (const auto& e : result) {
    EXPECT_GT(e.residual, 0.0);
  }
  EXPECT_NE(result[0].tuple.find("s3"), std::string::npos);
}

TEST(CapeTest, ErrorsOnBadInputs) {
  Table series = MakeSeries();
  Cape cape;
  EXPECT_FALSE(cape.Explain(series, "nope", Where({{"season", Value("s1")}}),
                            CapeDirection::kLow)
                   .ok());
  EXPECT_FALSE(cape.Explain(series, "win", Where({{"season", Value("zz")}}),
                            CapeDirection::kLow)
                   .ok());
  Table tiny("r", Schema({{"a", DataType::kString}, {"v", DataType::kInt64}}));
  (void)tiny.AppendRow({Value("x"), Value(int64_t{1})});
  EXPECT_FALSE(
      cape.Explain(tiny, "v", Where({{"a", Value("x")}}), CapeDirection::kLow)
          .ok());
}

}  // namespace
}  // namespace cajade
