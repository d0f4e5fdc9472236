// Tests for the columnar pattern kernels and bitset coverage scoring:
// PredicateTable matching (EvalMask slot masks ANDed with a base mask)
// differentially against the scalar row-id reference path
// (ReferenceMatchAll / ReferenceMatchInto), categorical-slot interning over
// a sharded split, the reference path against the scalar Pattern::Matches
// loop, exact int64 threshold semantics beyond 2^53, and CoverageScorer
// equivalence with the byte-vector ScoreFromCoverage.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/mining/coverage.h"
#include "src/mining/pattern.h"
#include "src/mining/pattern_kernel.h"
#include "src/mining/quality.h"
#include "src/storage/table.h"

namespace cajade {
namespace {

/// Random table with one column of each type; `null_rate` controls how
/// NULL-heavy every column is.
Table RandomTable(size_t rows, Rng* rng, double null_rate = 0.1) {
  Table t("t", Schema({{"i", DataType::kInt64},
                       {"d", DataType::kDouble},
                       {"s", DataType::kString}}));
  for (size_t r = 0; r < rows; ++r) {
    Value i = rng->Bernoulli(null_rate) ? Value::Null()
                                        : Value(rng->UniformInt(-5, 15));
    Value d = rng->Bernoulli(null_rate) ? Value::Null()
                                        : Value(rng->Uniform(-2.0, 2.0));
    Value s = rng->Bernoulli(null_rate)
                  ? Value::Null()
                  : Value("c" + std::to_string(rng->NextBounded(6)));
    t.AppendRow({i, d, s});
  }
  return t;
}

Pattern RandomPattern(const Table& t, Rng* rng) {
  Pattern p;
  if (rng->Bernoulli(0.6)) {
    // String equality; sometimes a constant missing from the dictionary.
    std::string c = rng->Bernoulli(0.2)
                        ? "missing"
                        : "c" + std::to_string(rng->NextBounded(6));
    p = p.Refine(PatternPredicate::Make(t, 2, PredOp::kEq, Value(c)));
  }
  if (rng->Bernoulli(0.7)) {
    PredOp op = rng->Bernoulli(0.5) ? PredOp::kLe : PredOp::kGe;
    p = p.Refine(PatternPredicate::Make(t, 0, op, Value(rng->UniformInt(-5, 15))));
  }
  if (rng->Bernoulli(0.7)) {
    PredOp op = rng->Bernoulli(0.33)   ? PredOp::kEq
                : rng->Bernoulli(0.5) ? PredOp::kLe
                                       : PredOp::kGe;
    p = p.Refine(PatternPredicate::Make(t, 1, op, Value(rng->Uniform(-2.0, 2.0))));
  }
  return p;
}

std::vector<int32_t> MaskToRows(const CoverageBitmap& mask) {
  std::vector<int32_t> rows;
  for (size_t i = 0; i < mask.num_bits(); ++i) {
    if (mask.Test(i)) rows.push_back(static_cast<int32_t>(i));
  }
  return rows;
}

CoverageBitmap RowsToMask(const std::vector<int32_t>& rows, size_t bits) {
  CoverageBitmap mask(bits);
  for (int32_t r : rows) mask.Set(static_cast<size_t>(r));
  return mask;
}

/// Adds `pattern`'s predicates to `table` as slots; returns their ids.
std::vector<uint32_t> AddSlots(PredicateTable* table, const Pattern& pattern) {
  std::vector<uint32_t> slots;
  for (const PatternPredicate& p : pattern.preds) slots.push_back(table->Add(p));
  return slots;
}

/// Matches `pattern` on `t` through a fresh single-slice PredicateTable:
/// out = base AND pattern (a null base is every row).
size_t TableMatch(const Table& t, const Pattern& pattern,
                  const CoverageBitmap* base, CoverageBitmap* out) {
  PredicateTable table({&t});
  const std::vector<uint32_t> slots = AddSlots(&table, pattern);
  return table.Match(slots.data(), slots.size(), 0, base, out);
}

/// Splits `t` into consecutive row ranges ending at `cuts` (ascending, the
/// last one t.num_rows()). Slices adopt t's dictionaries, so codes stay
/// comparable across them, as in a sharded APT.
std::vector<Table> SplitTable(const Table& t, const std::vector<size_t>& cuts) {
  std::vector<Table> out;
  size_t begin = 0;
  for (size_t end : cuts) {
    std::vector<Column> cols;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const Column& src = t.column(c);
      Column dst(src.type());
      if (src.type() == DataType::kString) dst.AdoptDictionary(src);
      for (size_t r = begin; r < end; ++r) {
        if (src.IsNull(r)) {
          dst.AppendNull();
        } else if (src.type() == DataType::kString) {
          dst.AppendCode(src.GetCode(r));
        } else if (src.type() == DataType::kInt64) {
          dst.AppendInt(src.GetInt(r));
        } else {
          dst.AppendDouble(src.GetDouble(r));
        }
      }
      cols.push_back(std::move(dst));
    }
    out.emplace_back(t.name(), t.schema(), std::move(cols), end - begin);
    begin = end;
  }
  return out;
}

TEST(ReferenceMatchTest, MatchAllEqualsScalarLoopRandomized) {
  Rng rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    Table t = RandomTable(50 + rng.NextBounded(200), &rng);
    Pattern p = RandomPattern(t, &rng);

    std::vector<int32_t> expected;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      if (p.Matches(t, r)) expected.push_back(static_cast<int32_t>(r));
    }
    std::vector<int32_t> actual;
    ReferenceMatchAll(p, t, &actual);
    ASSERT_EQ(actual, expected) << "trial " << trial;
  }
}

TEST(ReferenceMatchTest, MatchIntoFiltersSelectionVector) {
  Rng rng(29);
  for (int trial = 0; trial < 20; ++trial) {
    Table t = RandomTable(100, &rng);
    Pattern p = RandomPattern(t, &rng);

    std::vector<int32_t> subset;
    for (int32_t r = 0; r < static_cast<int32_t>(t.num_rows()); ++r) {
      if (rng.Bernoulli(0.4)) subset.push_back(r);
    }
    std::vector<int32_t> expected;
    for (int32_t r : subset) {
      if (p.Matches(t, static_cast<size_t>(r))) expected.push_back(r);
    }
    std::vector<int32_t> actual;
    ReferenceMatchInto(p, t, subset, &actual);
    ASSERT_EQ(actual, expected) << "trial " << trial;
  }
}

// The central differential: table matching must be bit-identical to the
// scalar reference path on NULL-heavy columns, across tail sizes
// (num_rows % 64 != 0), and for sparse and dense base masks, including a
// match written over its own base.
TEST(PredicateTableTest, MatchEqualsReferenceRandomizedNullHeavy) {
  Rng rng(47);
  const double null_rates[] = {0.0, 0.1, 0.5, 0.95};
  for (int trial = 0; trial < 40; ++trial) {
    size_t rows = 1 + rng.NextBounded(420);  // covers <64 and multi-word + tails
    if (trial % 5 == 0) rows = 64 * (1 + rng.NextBounded(4));  // exact words
    double null_rate = null_rates[trial % 4];
    Table t = RandomTable(rows, &rng, null_rate);
    Pattern p = RandomPattern(t, &rng);
    PredicateTable table({&t});
    const std::vector<uint32_t> slots = AddSlots(&table, p);

    // Every row: Match without a base vs ReferenceMatchAll.
    std::vector<int32_t> expected;
    ReferenceMatchAll(p, t, &expected);
    CoverageBitmap mask;
    size_t count = table.Match(slots.data(), slots.size(), 0, nullptr, &mask);
    ASSERT_EQ(mask.num_bits(), rows);
    ASSERT_EQ(MaskToRows(mask), expected) << "trial " << trial;
    ASSERT_EQ(count, expected.size()) << "trial " << trial;
    ASSERT_EQ(mask.Popcount(), expected.size());

    // View-restricted: sparse (~3%) and dense (~90%) base masks, both
    // against ReferenceMatchInto on the same row subset.
    for (double base_rate : {0.03, 0.9}) {
      std::vector<int32_t> subset;
      for (size_t r = 0; r < rows; ++r) {
        if (rng.Bernoulli(base_rate)) subset.push_back(static_cast<int32_t>(r));
      }
      CoverageBitmap base = RowsToMask(subset, rows);
      std::vector<int32_t> expect_subset;
      ReferenceMatchInto(p, t, subset, &expect_subset);
      CoverageBitmap out;
      size_t sub_count =
          table.Match(slots.data(), slots.size(), 0, &base, &out);
      ASSERT_EQ(MaskToRows(out), expect_subset)
          << "trial " << trial << " base_rate " << base_rate;
      ASSERT_EQ(sub_count, expect_subset.size());
      // In place: the base itself as the output.
      ASSERT_EQ(table.Match(slots.data(), slots.size(), 0, &base, &base),
                expect_subset.size());
      ASSERT_EQ(base.words(), out.words());
    }
  }
}

// Entirely-NULL columns produce all-NULL words: every predicate on them
// matches nothing, on full words and tails alike.
TEST(PredicateTableTest, AllNullColumnMatchesNothing) {
  Table t("t", Schema({{"i", DataType::kInt64}, {"d", DataType::kDouble}}));
  for (size_t r = 0; r < 130; ++r) {  // two full words + a tail
    t.AppendRow({Value::Null(), Value(1.0)});
  }
  for (PredOp op : {PredOp::kEq, PredOp::kLe, PredOp::kGe}) {
    Pattern p;
    p = p.Refine(PatternPredicate::Make(t, 0, op, Value(int64_t{0})));
    CoverageBitmap mask;
    EXPECT_EQ(TableMatch(t, p, nullptr, &mask), 0u);
    EXPECT_EQ(mask.Popcount(), 0u);
    std::vector<int32_t> ref;
    ReferenceMatchAll(p, t, &ref);
    EXPECT_TRUE(ref.empty());
  }
  // A null-free column in the same table still matches (the fast path must
  // not leak between predicates).
  Pattern p;
  p = p.Refine(PatternPredicate::Make(t, 1, PredOp::kLe, Value(2.0)));
  CoverageBitmap mask;
  EXPECT_EQ(TableMatch(t, p, nullptr, &mask), t.num_rows());
}

TEST(PredicateTableTest, EmptySlotListMatchesTheBase) {
  Rng rng(31);
  Table t = RandomTable(40, &rng);
  std::vector<int32_t> rows;
  ReferenceMatchAll(Pattern{}, t, &rows);
  ASSERT_EQ(rows.size(), t.num_rows());
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(rows[r], static_cast<int32_t>(r));
  }
  std::vector<int32_t> subset = {3, 7, 9};
  std::vector<int32_t> out;
  ReferenceMatchInto(Pattern{}, t, subset, &out);
  EXPECT_EQ(out, subset);

  // Every row is all-ones (tail bits zero); a base is copied.
  CoverageBitmap mask;
  EXPECT_EQ(TableMatch(t, Pattern{}, nullptr, &mask), t.num_rows());
  EXPECT_EQ(mask.Popcount(), t.num_rows());
  CoverageBitmap base = RowsToMask(subset, t.num_rows());
  CoverageBitmap restricted;
  EXPECT_EQ(TableMatch(t, Pattern{}, &base, &restricted), subset.size());
  EXPECT_EQ(MaskToRows(restricted), subset);
  EXPECT_EQ(TableMatch(t, Pattern{}, &base, &base), subset.size());
  EXPECT_EQ(MaskToRows(base), subset);
}

TEST(PredicateTableTest, MissingDictionaryConstantMatchesNothing) {
  Rng rng(37);
  Table t = RandomTable(60, &rng);
  Pattern p;
  p = p.Refine(PatternPredicate::Make(t, 2, PredOp::kEq, Value("nope")));
  EXPECT_EQ(CompiledPredicate::Compile(p.preds[0], t).kind,
            CompiledPredicate::Kind::kNever);
  std::vector<int32_t> rows;
  ReferenceMatchAll(p, t, &rows);
  EXPECT_TRUE(rows.empty());
  CoverageBitmap mask;
  EXPECT_EQ(TableMatch(t, p, nullptr, &mask), 0u);
  EXPECT_EQ(mask.num_bits(), t.num_rows());
  EXPECT_EQ(mask.Popcount(), 0u);
  CoverageBitmap base(t.num_rows());
  base.SetAll();
  EXPECT_EQ(TableMatch(t, p, &base, &mask), 0u);
  EXPECT_EQ(mask.Popcount(), 0u);
}

// Regression for the >2^53 precision collapse: int64 comparisons run
// against an exact int64 threshold. The seed cast rows to double, which
// equates e.g. 2^62 + 1 with 2^62 + 2 (both round to the same double);
// Pattern::Matches still does, which is exactly why the kernels pin the
// exact semantics here instead of differentially.
TEST(PredicateTableTest, HugeInt64ThresholdsAreExact) {
  const int64_t base = int64_t{1} << 62;
  Table t("t", Schema({{"i", DataType::kInt64}}));
  for (int64_t delta : {0, 1, 2, 3}) t.AppendRow({Value(base + delta)});
  t.AppendRow({Value::Null()});

  auto match = [&](PredOp op, Value v) {
    Pattern p;
    p = p.Refine(PatternPredicate::Make(t, 0, op, std::move(v)));
    CoverageBitmap mask;
    TableMatch(t, p, nullptr, &mask);
    // The reference path agrees with the mask.
    std::vector<int32_t> ref;
    ReferenceMatchAll(p, t, &ref);
    EXPECT_EQ(MaskToRows(mask), ref);
    return MaskToRows(mask);
  };

  // The double domain cannot tell base+1 and base+2 apart; the kernel must.
  EXPECT_EQ(match(PredOp::kEq, Value(base + 1)), (std::vector<int32_t>{1}));
  EXPECT_EQ(match(PredOp::kLe, Value(base + 1)), (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(match(PredOp::kGe, Value(base + 2)), (std::vector<int32_t>{2, 3}));

  // Double constants convert to the equivalent exact int64 bound.
  EXPECT_EQ(match(PredOp::kLe, Value(0.5)), (std::vector<int32_t>{}));
  EXPECT_EQ(match(PredOp::kGe, Value(0.5)), (std::vector<int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(match(PredOp::kEq, Value(0.5)), (std::vector<int32_t>{}));
  // Out-of-range constants clamp (Le +huge: all non-null) or never match.
  EXPECT_EQ(match(PredOp::kLe, Value(1e300)), (std::vector<int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(match(PredOp::kGe, Value(1e300)), (std::vector<int32_t>{}));
  EXPECT_EQ(match(PredOp::kLe, Value(-1e300)), (std::vector<int32_t>{}));
  EXPECT_EQ(match(PredOp::kGe, Value(-1e300)), (std::vector<int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(match(PredOp::kEq, Value(std::nan(""))), (std::vector<int32_t>{}));
  EXPECT_EQ(match(PredOp::kLe, Value(std::nan(""))), (std::vector<int32_t>{}));
}

// A categorical equality is interned once per (col, code): asking again
// returns the same slot, the slot's predicate is the one Make builds from
// the dictionary string, and its masks equal EvalMask on every slice of a
// random split. Multi-slice matching equals the reference on each slice.
TEST(PredicateTableTest, InternEqSharesOneSlotPerColumnCode) {
  Rng rng(61);
  for (int trial = 0; trial < 20; ++trial) {
    Table t = RandomTable(1 + rng.NextBounded(400), &rng, trial % 2 ? 0.5 : 0.0);
    std::vector<size_t> cuts;
    for (size_t r = 1; r < t.num_rows(); ++r) {
      if (rng.Bernoulli(0.02)) cuts.push_back(r);
    }
    cuts.push_back(t.num_rows());
    const std::vector<Table> slices = SplitTable(t, cuts);
    std::vector<const Table*> ptrs;
    for (const Table& s : slices) ptrs.push_back(&s);
    PredicateTable table(ptrs);

    const Column& col = t.column(2);
    std::vector<uint32_t> ids;
    for (int32_t code = 0; code < static_cast<int32_t>(col.dict_size()); ++code) {
      ids.push_back(table.InternEq(2, code));
    }
    EXPECT_EQ(table.num_slots(), col.dict_size());
    for (int32_t code = 0; code < static_cast<int32_t>(col.dict_size()); ++code) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " code " +
                   std::to_string(code));
      const uint32_t id = ids[code];
      EXPECT_EQ(table.InternEq(2, code), id);
      const PatternPredicate made = PatternPredicate::Make(
          t, 2, PredOp::kEq, Value(col.DictEntry(code)));
      const PatternPredicate& pred = table.slot(id).pred;
      EXPECT_EQ(pred.col, made.col);
      EXPECT_EQ(pred.op, made.op);
      EXPECT_EQ(pred.value, made.value);
      EXPECT_EQ(pred.code, made.code);
      EXPECT_EQ(pred.num, made.num);
      EXPECT_EQ(table.slot(id).key_part, made.KeyPart());
      for (size_t si = 0; si < slices.size(); ++si) {
        const size_t rows = slices[si].num_rows();
        std::vector<uint64_t> expect(CoverageBitmap::NumWords(rows));
        CompiledPredicate::Compile(made, slices[si]).EvalMask(rows, expect.data());
        ASSERT_TRUE(std::equal(expect.begin(), expect.end(), table.mask(id, si)))
            << "slice " << si;
      }
    }

    // A random pattern plus an interned equality, matched slice by slice.
    Pattern p = RandomPattern(t, &rng);
    std::vector<uint32_t> slots = AddSlots(&table, p);
    Pattern with_eq = p;
    if (with_eq.IsFree(2) && col.dict_size() > 0) {
      const int32_t code = static_cast<int32_t>(rng.NextBounded(col.dict_size()));
      slots.push_back(table.InternEq(2, code));
      with_eq = with_eq.Refine(PatternPredicate::CodeEq(t, 2, code));
    }
    for (size_t si = 0; si < slices.size(); ++si) {
      std::vector<int32_t> expected;
      ReferenceMatchAll(with_eq, slices[si], &expected);
      CoverageBitmap mask;
      ASSERT_EQ(table.Match(slots.data(), slots.size(), si, nullptr, &mask),
                expected.size());
      ASSERT_EQ(MaskToRows(mask), expected) << "slice " << si;
    }
  }
}

TEST(CompiledPredicateTest, ScalarTestAgreesWithPatternMatches) {
  Rng rng(41);
  Table t = RandomTable(80, &rng);
  for (int trial = 0; trial < 50; ++trial) {
    int col = static_cast<int>(rng.NextBounded(3));
    PredOp op = col == 2 ? PredOp::kEq
                         : (rng.Bernoulli(0.5) ? PredOp::kLe : PredOp::kGe);
    Value v = col == 0   ? Value(rng.UniformInt(-5, 15))
              : col == 1 ? Value(rng.Uniform(-2.0, 2.0))
                         : Value("c" + std::to_string(rng.NextBounded(6)));
    PatternPredicate pred = PatternPredicate::Make(t, col, op, v);
    CompiledPredicate cp = CompiledPredicate::Compile(pred, t);
    Pattern single;
    single = single.Refine(pred);
    for (size_t r = 0; r < t.num_rows(); ++r) {
      ASSERT_EQ(cp.Test(static_cast<int32_t>(r)), single.Matches(t, r))
          << "trial " << trial << " row " << r;
    }
  }
}

// EvalMask, and a one-slot Match against a sparse or dense base, agree
// with the scalar Test on every row, also when the match overwrites its
// base in place.
TEST(CompiledPredicateTest, MaskKernelsAgreeWithScalarTest) {
  Rng rng(53);
  for (int trial = 0; trial < 25; ++trial) {
    size_t rows = 1 + rng.NextBounded(300);
    Table t = RandomTable(rows, &rng, trial % 2 == 0 ? 0.0 : 0.4);
    int col = static_cast<int>(rng.NextBounded(3));
    PredOp op = col == 2 ? PredOp::kEq
                         : (rng.Bernoulli(0.5) ? PredOp::kLe : PredOp::kGe);
    Value v = col == 0   ? Value(rng.UniformInt(-5, 15))
              : col == 1 ? Value(rng.Uniform(-2.0, 2.0))
                         : Value("c" + std::to_string(rng.NextBounded(6)));
    const PatternPredicate pred = PatternPredicate::Make(t, col, op, v);
    CompiledPredicate cp = CompiledPredicate::Compile(pred, t);

    CoverageBitmap mask;
    mask.ResetForOverwrite(rows);
    uint64_t pop = cp.EvalMask(rows, mask.MutableWords());
    uint64_t expect_pop = 0;
    for (size_t r = 0; r < rows; ++r) {
      bool expect = cp.Test(static_cast<int32_t>(r));
      ASSERT_EQ(mask.Test(r), expect) << "trial " << trial << " row " << r;
      expect_pop += expect;
    }
    ASSERT_EQ(pop, expect_pop);
    ASSERT_EQ(mask.Popcount(), expect_pop);  // tail bits must be zero

    PredicateTable table({&t});
    const uint32_t slot = table.Add(pred);
    for (double rate : {0.02, 0.8}) {
      CoverageBitmap in(rows);
      for (size_t r = 0; r < rows; ++r) {
        if (rng.Bernoulli(rate)) in.Set(r);
      }
      const CoverageBitmap original_in = in;
      CoverageBitmap out;
      const size_t out_pop = table.Match(&slot, 1, 0, &in, &out);
      const size_t in_place_pop = table.Match(&slot, 1, 0, &in, &in);
      ASSERT_EQ(out_pop, in_place_pop);
      ASSERT_EQ(out.words(), in.words());
      size_t expect_out = 0;
      for (size_t r = 0; r < rows; ++r) {
        bool expect =
            original_in.Test(r) && cp.Test(static_cast<int32_t>(r));
        ASSERT_EQ(out.Test(r), expect) << "row " << r << " rate " << rate;
        expect_out += expect;
      }
      ASSERT_EQ(out_pop, expect_out);
    }
  }
}

TEST(CoverageBitmapTest, SetTestPopcount) {
  CoverageBitmap b(130);  // crosses two word boundaries
  EXPECT_EQ(b.Popcount(), 0u);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_FALSE(b.Test(128));
  EXPECT_EQ(b.Popcount(), 4u);

  CoverageBitmap other(130);
  other.Set(63);
  other.Set(128);
  other.Set(129);
  EXPECT_EQ(b.AndPopcount(other), 2u);

  b.Reset(130);
  EXPECT_EQ(b.Popcount(), 0u);
}

TEST(CoverageBitmapTest, AdoptTakesWordsAndClearsTail) {
  // 70 bits over 2 words; the adopted tail word carries garbage past bit 5
  // that Adopt must clear so popcounts stay exact.
  std::vector<uint64_t> words = {~uint64_t{0}, ~uint64_t{0}};
  CoverageBitmap b(std::move(words), 70);
  EXPECT_EQ(b.num_bits(), 70u);
  EXPECT_EQ(b.num_words(), 2u);
  EXPECT_EQ(b.Popcount(), 70u);
  EXPECT_TRUE(b.Test(69));

  CoverageBitmap c;
  c.Adopt({uint64_t{0b101}}, 3);
  EXPECT_EQ(c.Popcount(), 2u);
  EXPECT_TRUE(c.Test(0));
  EXPECT_FALSE(c.Test(1));
  EXPECT_TRUE(c.Test(2));

  CoverageBitmap all(70);
  all.SetAll();
  EXPECT_EQ(all.Popcount(), 70u);
  EXPECT_EQ(all.AndPopcount(b), 70u);
}

TEST(CoverageScorerTest, MatchesByteVectorScoringRandomized) {
  Rng rng(43);
  for (int trial = 0; trial < 30; ++trial) {
    size_t m = 10 + rng.NextBounded(300);
    PtClasses classes(m);
    MetricsView view;
    view.all_rows = false;
    view.pt_sampled.assign(m, 0);
    for (size_t p = 0; p < m; ++p) {
      classes[p] = rng.Bernoulli(0.4) ? 1 : 0;
      view.pt_sampled[p] = rng.Bernoulli(0.7) ? 1 : 0;
      if (!view.pt_sampled[p]) continue;
      if (classes[p] == 0) {
        ++view.n1;
      } else {
        ++view.n2;
      }
    }

    std::vector<uint8_t> covered_bytes(m, 0);
    CoverageBitmap covered(m);
    for (size_t p = 0; p < m; ++p) {
      if (rng.Bernoulli(0.3)) {
        covered_bytes[p] = 1;
        covered.Set(p);
      }
    }

    CoverageScorer scorer(classes, view);
    for (int primary = 0; primary < 2; ++primary) {
      PatternScores expect =
          ScoreFromCoverage(covered_bytes, classes, view, primary);
      PatternScores got = scorer.Score(covered, primary);
      ASSERT_EQ(got.tp, expect.tp) << "trial " << trial;
      ASSERT_EQ(got.fp, expect.fp) << "trial " << trial;
      ASSERT_EQ(got.fn, expect.fn) << "trial " << trial;
      ASSERT_DOUBLE_EQ(got.precision, expect.precision);
      ASSERT_DOUBLE_EQ(got.recall, expect.recall);
      ASSERT_DOUBLE_EQ(got.fscore, expect.fscore);
    }
  }
}

TEST(CoverageScorerTest, CoverageFromRowsMapsAptRowsToPtPositions) {
  // Three APT rows extending PT positions {0, 1, 1}.
  std::vector<int32_t> pt_row = {0, 1, 1};
  CoverageBitmap covered(2);
  CoverageScorer::CoverageFromRows({0, 2}, pt_row, &covered);
  EXPECT_TRUE(covered.Test(0));
  EXPECT_TRUE(covered.Test(1));
  covered.Reset(2);
  CoverageScorer::CoverageFromRows({1}, pt_row, &covered);
  EXPECT_FALSE(covered.Test(0));
  EXPECT_TRUE(covered.Test(1));
}

TEST(CoverageScorerTest, CoverageFromMaskEqualsCoverageFromRows) {
  Rng rng(59);
  for (int trial = 0; trial < 20; ++trial) {
    size_t apt_rows = 1 + rng.NextBounded(400);
    size_t positions = 1 + rng.NextBounded(100);
    std::vector<int32_t> pt_row(apt_rows);
    for (auto& p : pt_row) p = static_cast<int32_t>(rng.NextBounded(positions));
    std::vector<int32_t> matched;
    CoverageBitmap mask(apt_rows);
    for (size_t r = 0; r < apt_rows; ++r) {
      if (rng.Bernoulli(0.25)) {
        matched.push_back(static_cast<int32_t>(r));
        mask.Set(r);
      }
    }
    CoverageBitmap from_rows(positions), from_mask(positions);
    CoverageScorer::CoverageFromRows(matched, pt_row, &from_rows);
    CoverageScorer::CoverageFromMask(mask, pt_row, &from_mask);
    ASSERT_EQ(from_rows.words(), from_mask.words()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace cajade
