// Tests for the flat open-addressing join substrate: FlatMultiMap behavior,
// the typed key fast paths, exact numeric key semantics (the >2^53
// regression), null/empty/duplicate edge cases, and randomized differential
// equivalence against the reference implementation.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/flat_hash.h"
#include "src/exec/join.h"
#include "src/storage/table.h"

namespace cajade {
namespace {

using Pairs = std::vector<std::pair<int64_t, int64_t>>;

std::vector<int64_t> AllRows(const Table& t) {
  std::vector<int64_t> rows(t.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int64_t>(i);
  return rows;
}

TEST(FlatMultiMapTest, InsertAndLookup) {
  FlatMultiMap map;
  map.Insert(SplitMix64(1), 10);
  map.Insert(SplitMix64(2), 20);
  map.Insert(SplitMix64(1), 11);
  map.Insert(SplitMix64(1), 12);
  EXPECT_EQ(map.size(), 4u);
  EXPECT_EQ(map.distinct_keys(), 2u);

  std::vector<int64_t> hits;
  map.ForEach(SplitMix64(1), [&](int64_t v) { hits.push_back(v); });
  // Duplicates come back in insertion order.
  EXPECT_EQ(hits, (std::vector<int64_t>{10, 11, 12}));

  hits.clear();
  map.ForEach(SplitMix64(3), [&](int64_t v) { hits.push_back(v); });
  EXPECT_TRUE(hits.empty());
}

TEST(FlatMultiMapTest, RehashPreservesChainsAndOrder) {
  FlatMultiMap map;  // no Reserve: forces several rehashes
  const int kKeys = 1000, kDups = 3;
  for (int d = 0; d < kDups; ++d) {
    for (int k = 0; k < kKeys; ++k) {
      map.Insert(SplitMix64(static_cast<uint64_t>(k)), k * 10 + d);
    }
  }
  EXPECT_EQ(map.size(), static_cast<size_t>(kKeys * kDups));
  EXPECT_EQ(map.distinct_keys(), static_cast<size_t>(kKeys));
  for (int k = 0; k < kKeys; ++k) {
    std::vector<int64_t> hits;
    map.ForEach(SplitMix64(static_cast<uint64_t>(k)),
                [&](int64_t v) { hits.push_back(v); });
    ASSERT_EQ(hits.size(), static_cast<size_t>(kDups)) << "key " << k;
    for (int d = 0; d < kDups; ++d) EXPECT_EQ(hits[d], k * 10 + d);
  }
}

TEST(HashJoinEdgeTest, NullKeysNeverMatch) {
  Table left("l", Schema({{"k", DataType::kInt64}}));
  left.AppendRow({Value(int64_t{1})});
  left.AppendRow({Value::Null()});
  left.AppendRow({Value(int64_t{2})});
  Table right("r", Schema({{"k", DataType::kInt64}}));
  right.AppendRow({Value::Null()});
  right.AppendRow({Value(int64_t{1})});
  right.AppendRow({Value::Null()});

  JoinKeySpec keys{{0}, {0}};
  Pairs pairs = HashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
  EXPECT_EQ(pairs, (Pairs{{0, 1}}));  // null != null, null != 1

  // Same through the string fast path.
  Table ls("ls", Schema({{"s", DataType::kString}}));
  ls.AppendRow({Value("a")});
  ls.AppendRow({Value::Null()});
  Table rs("rs", Schema({{"s", DataType::kString}}));
  rs.AppendRow({Value::Null()});
  rs.AppendRow({Value("a")});
  pairs = HashEquiJoin(ls, AllRows(ls), rs, AllRows(rs), keys);
  EXPECT_EQ(pairs, (Pairs{{0, 1}}));
}

TEST(HashJoinEdgeTest, Int64KeysBeyond2Pow53StayDistinct) {
  // Regression: the seed hashed int64 keys through a double cast, so
  // 2^53 and 2^53 + 1 collided in hash AND compared equal via the widened
  // double equality. They are different keys and must not join.
  const int64_t base = int64_t{1} << 53;
  Table left("l", Schema({{"k", DataType::kInt64}}));
  left.AppendRow({Value(base)});
  left.AppendRow({Value(base + 1)});
  left.AppendRow({Value(base + 2)});
  Table right("r", Schema({{"k", DataType::kInt64}}));
  right.AppendRow({Value(base + 1)});
  right.AppendRow({Value(base)});

  JoinKeySpec keys{{0}, {0}};
  Pairs pairs = HashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
  EXPECT_EQ(pairs, (Pairs{{0, 1}, {1, 0}}));  // exact matches only

  // The generic (multi-column) path must agree with the typed fast path.
  JoinKeySpec two{{0, 0}, {0, 0}};
  Pairs generic = HashEquiJoin(left, AllRows(left), right, AllRows(right), two);
  EXPECT_EQ(generic, pairs);
}

TEST(HashJoinEdgeTest, FullInt64RangeKeysDoNotOverflowDensePath) {
  // INT64_MIN and INT64_MAX on the build side make the key-range width wrap
  // to 0; the join must fall back to the hash path and still be correct.
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  Table left("l", Schema({{"k", DataType::kInt64}}));
  left.AppendRow({Value(hi)});
  left.AppendRow({Value(int64_t{0})});
  left.AppendRow({Value(lo)});
  Table right("r", Schema({{"k", DataType::kInt64}}));
  right.AppendRow({Value(lo)});
  right.AppendRow({Value(hi)});

  JoinKeySpec keys{{0}, {0}};
  Pairs pairs = HashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
  EXPECT_EQ(pairs, (Pairs{{0, 1}, {2, 0}}));
}

TEST(HashJoinEdgeTest, CrossTypeIntDoubleKeysCompareExactly) {
  Table left("l", Schema({{"k", DataType::kInt64}}));
  left.AppendRow({Value(int64_t{3})});
  left.AppendRow({Value(int64_t{4})});
  left.AppendRow({Value((int64_t{1} << 53) + 1)});
  Table right("r", Schema({{"k", DataType::kDouble}}));
  right.AppendRow({Value(3.0)});
  right.AppendRow({Value(3.5)});
  right.AppendRow({Value(9007199254740992.0)});  // 2^53

  JoinKeySpec keys{{0}, {0}};
  Pairs pairs = HashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
  // 3 == 3.0; 4 matches nothing; 2^53+1 must NOT match the double 2^53
  // (the seed's widen-to-double compare said they were equal).
  EXPECT_EQ(pairs, (Pairs{{0, 0}}));
}

TEST(HashJoinEdgeTest, DuplicateHeavyBuildSide) {
  Table left("l", Schema({{"k", DataType::kInt64}}));
  left.AppendRow({Value(int64_t{7})});
  left.AppendRow({Value(int64_t{8})});
  Table right("r", Schema({{"k", DataType::kInt64}}));
  const int kDups = 100;
  for (int i = 0; i < kDups; ++i) right.AppendRow({Value(int64_t{7})});

  JoinKeySpec keys{{0}, {0}};
  Pairs pairs = HashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
  ASSERT_EQ(pairs.size(), static_cast<size_t>(kDups));
  for (int i = 0; i < kDups; ++i) {
    EXPECT_EQ(pairs[i].first, 0);
    EXPECT_EQ(pairs[i].second, i);  // build-side order preserved
  }
}

TEST(HashJoinEdgeTest, EmptyInputs) {
  Table left("l", Schema({{"k", DataType::kInt64}}));
  left.AppendRow({Value(int64_t{1})});
  Table right("r", Schema({{"k", DataType::kInt64}}));
  right.AppendRow({Value(int64_t{1})});
  JoinKeySpec keys{{0}, {0}};

  EXPECT_TRUE(HashEquiJoin(left, {}, right, AllRows(right), keys).empty());
  EXPECT_TRUE(HashEquiJoin(left, AllRows(left), right, {}, keys).empty());

  Table empty_l("el", Schema({{"k", DataType::kInt64}}));
  Table empty_r("er", Schema({{"k", DataType::kInt64}}));
  EXPECT_TRUE(HashEquiJoin(empty_l, {}, empty_r, {}, keys).empty());
}

TEST(HashJoinEdgeTest, DictCodeFastPathBothRemapDirections) {
  // Left dictionary smaller than right: left codes are remapped.
  Table small("small", Schema({{"s", DataType::kString}}));
  small.AppendRow({Value("b")});
  small.AppendRow({Value("z")});  // absent from the other side
  Table big("big", Schema({{"s", DataType::kString}}));
  for (const char* s : {"a", "b", "c", "d", "b"}) big.AppendRow({Value(s)});

  JoinKeySpec keys{{0}, {0}};
  Pairs pairs = HashEquiJoin(small, AllRows(small), big, AllRows(big), keys);
  EXPECT_EQ(pairs, (Pairs{{0, 1}, {0, 4}}));

  // Right dictionary smaller than left: right codes are remapped.
  pairs = HashEquiJoin(big, AllRows(big), small, AllRows(small), keys);
  EXPECT_EQ(pairs, (Pairs{{1, 0}, {4, 0}}));
}

// ---- Randomized differential tests vs. the reference implementation ------

Table RandomIntTable(const char* name, size_t rows, int64_t key_mod, Rng* rng,
                     double null_rate) {
  Table t(name, Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}));
  for (size_t i = 0; i < rows; ++i) {
    if (rng->Bernoulli(null_rate)) {
      t.AppendRow({Value::Null(), Value(static_cast<int64_t>(i))});
    } else {
      t.AppendRow({Value(static_cast<int64_t>(rng->NextBounded(key_mod))),
                   Value(static_cast<int64_t>(i))});
    }
  }
  return t;
}

Table RandomStringTable(const char* name, size_t rows, int vocab, Rng* rng,
                        double null_rate) {
  Table t(name, Schema({{"s", DataType::kString}, {"k", DataType::kInt64}}));
  for (size_t i = 0; i < rows; ++i) {
    Value s = rng->Bernoulli(null_rate)
                  ? Value::Null()
                  : Value("w" + std::to_string(rng->NextBounded(vocab)));
    t.AppendRow({s, Value(static_cast<int64_t>(rng->NextBounded(8)))});
  }
  return t;
}

TEST(HashJoinDifferentialTest, Int64KeysMatchReferenceByteForByte) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 20 + rng.NextBounded(300);
    Table left = RandomIntTable("l", n, 1 + rng.NextBounded(40), &rng, 0.1);
    Table right = RandomIntTable("r", n, 1 + rng.NextBounded(40), &rng, 0.1);
    JoinKeySpec keys{{0}, {0}};
    Pairs fast = HashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
    Pairs ref =
        ReferenceHashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
    ASSERT_EQ(fast, ref) << "trial " << trial;
  }
}

TEST(HashJoinDifferentialTest, StringKeysMatchReferenceByteForByte) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 20 + rng.NextBounded(300);
    Table left = RandomStringTable("l", n, 1 + rng.NextBounded(30), &rng, 0.1);
    Table right = RandomStringTable("r", n, 1 + rng.NextBounded(30), &rng, 0.1);
    JoinKeySpec keys{{0}, {0}};
    Pairs fast = HashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
    Pairs ref =
        ReferenceHashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
    ASSERT_EQ(fast, ref) << "trial " << trial;
  }
}

TEST(HashJoinDifferentialTest, MultiColumnKeysMatchReference) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 20 + rng.NextBounded(200);
    Table left = RandomStringTable("l", n, 6, &rng, 0.05);
    Table right = RandomStringTable("r", n, 6, &rng, 0.05);
    JoinKeySpec keys{{0, 1}, {0, 1}};  // string + int composite key
    Pairs fast = HashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
    Pairs ref =
        ReferenceHashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
    ASSERT_EQ(fast, ref) << "trial " << trial;
  }
}

TEST(HashJoinDifferentialTest, WideRangeKeysUseFlatTableAndMatchReference) {
  // Keys spread over the full int64 range defeat the dense counting layout,
  // exercising the FlatMultiMap fallback.
  Rng rng(15);
  for (int trial = 0; trial < 10; ++trial) {
    size_t n = 50 + rng.NextBounded(200);
    Table left("l", Schema({{"k", DataType::kInt64}}));
    Table right("r", Schema({{"k", DataType::kInt64}}));
    std::vector<int64_t> pool;
    for (int i = 0; i < 40; ++i) {
      pool.push_back(static_cast<int64_t>(rng.Next()));  // arbitrary 64-bit keys
    }
    for (size_t i = 0; i < n; ++i) {
      left.AppendRow({Value(pool[rng.NextBounded(pool.size())])});
      right.AppendRow({Value(pool[rng.NextBounded(pool.size())])});
    }
    JoinKeySpec keys{{0}, {0}};
    Pairs fast = HashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
    Pairs ref =
        ReferenceHashEquiJoin(left, AllRows(left), right, AllRows(right), keys);
    ASSERT_EQ(fast, ref) << "trial " << trial;
    ASSERT_FALSE(fast.empty());  // shared pool guarantees overlaps
  }
}

TEST(HashJoinDifferentialTest, RowSubsetsMatchReference) {
  // Both sides are shuffled subsets: probe order need not be sorted, and
  // matches per probe tuple must come back in `right_rows` order even when
  // that order is not ascending (the reference keeps per-key vectors in
  // right_rows order). INT64 keys exercise the dense layout, STRING keys
  // the dictionary-code remap.
  Rng rng(19);
  const Table tables[][2] = {
      {RandomIntTable("l", 200, 25, &rng, 0.1),
       RandomIntTable("r", 200, 25, &rng, 0.1)},
      {RandomStringTable("l", 200, 25, &rng, 0.1),
       RandomStringTable("r", 200, 25, &rng, 0.1)},
  };
  for (const auto& [left, right] : tables) {
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<int64_t> lrows, rrows;
      for (int64_t r = 0; r < 200; ++r) {
        if (rng.Bernoulli(0.5)) lrows.push_back(r);
        if (rng.Bernoulli(0.5)) rrows.push_back(r);
      }
      rng.Shuffle(&lrows);
      rng.Shuffle(&rrows);
      JoinKeySpec keys{{0}, {0}};
      Pairs fast = HashEquiJoin(left, lrows, right, rrows, keys);
      Pairs ref = ReferenceHashEquiJoin(left, lrows, right, rrows, keys);
      ASSERT_EQ(fast, ref) << left.schema().column(0).name << " trial "
                           << trial;
      ASSERT_FALSE(fast.empty());
    }
  }
}

}  // namespace
}  // namespace cajade
