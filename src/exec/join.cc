#include "src/exec/join.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <unordered_map>

#include "src/exec/flat_hash.h"

namespace cajade {

namespace {

// 2^63 as a double; doubles in [-2^63, 2^63) cast to int64 losslessly.
constexpr double kInt64Lo = -9223372036854775808.0;
constexpr double kInt64Hi = 9223372036854775808.0;

/// Exact INT64 == DOUBLE: the double must hold exactly that integer. Avoids
/// the seed's widen-to-double compare, under which ints differing only
/// beyond 2^53 were "equal".
inline bool IntEqualsDouble(int64_t i, double d) {
  return d >= kInt64Lo && d < kInt64Hi && d == std::floor(d) &&
         static_cast<int64_t>(d) == i;
}

/// Canonical hash of a numeric cell: integral values (from either physical
/// type) hash as their int64 — this branch also folds -0.0 and +0.0 together
/// — everything else by double bit pattern. Keeps hash-equality aligned with
/// the exact cross-type equality in KeyCellsEqual while preserving full
/// int64 precision.
inline uint64_t HashDoubleCanonical(double d) {
  if (d >= kInt64Lo && d < kInt64Hi && d == std::floor(d)) {
    return SplitMix64(static_cast<uint64_t>(static_cast<int64_t>(d)));
  }
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return SplitMix64(bits);
}

using PairVec = std::vector<std::pair<int64_t, int64_t>>;

// How many keys ahead the build/probe loops prefetch home slots.
constexpr size_t kPrefetchDistance = 16;

/// Whether a dense counting layout pays off for `range` distinct key values
/// against `n` build rows: the offsets array must stay cache-resident and
/// not dwarf the data.
inline bool DenseWorthwhile(uint64_t range, size_t n) {
  return range <= (uint64_t{1} << 22) && range <= 4 * static_cast<uint64_t>(n) + 1024;
}

}  // namespace

uint64_t HashKeyCell(const Column& col, int64_t row) {
  if (col.IsNull(row)) return 0xdeadULL;
  switch (col.type()) {
    case DataType::kInt64:
      return SplitMix64(static_cast<uint64_t>(col.GetInt(row)));
    case DataType::kDouble:
      return HashDoubleCanonical(col.GetDouble(row));
    case DataType::kString:
      return std::hash<std::string>()(col.GetString(row));
    default:
      return 0;
  }
}

bool KeyCellsEqual(const Column& a, int64_t row_a, const Column& b, int64_t row_b) {
  if (a.IsNull(row_a) || b.IsNull(row_b)) return false;  // null never joins
  if (a.type() == DataType::kInt64) {
    if (b.type() == DataType::kInt64) return a.GetInt(row_a) == b.GetInt(row_b);
    if (b.type() == DataType::kDouble) {
      return IntEqualsDouble(a.GetInt(row_a), b.GetDouble(row_b));
    }
    return false;
  }
  if (a.type() == DataType::kDouble) {
    if (b.type() == DataType::kDouble) return a.GetDouble(row_a) == b.GetDouble(row_b);
    if (b.type() == DataType::kInt64) {
      return IntEqualsDouble(b.GetInt(row_b), a.GetDouble(row_a));
    }
    return false;
  }
  if (a.type() == DataType::kString && b.type() == DataType::kString) {
    return a.GetString(row_a) == b.GetString(row_b);
  }
  return false;
}

uint64_t HashRowKey(const Table& table, int64_t row, const std::vector<int>& cols) {
  uint64_t h = kRowKeyHashSeed;
  for (int c : cols) h = CombineKeyHash(h, HashKeyCell(table.column(c), row));
  return h;
}

bool RowKeysEqual(const Table& a, int64_t row_a, const std::vector<int>& cols_a,
                  const Table& b, int64_t row_b, const std::vector<int>& cols_b) {
  for (size_t i = 0; i < cols_a.size(); ++i) {
    if (!KeyCellsEqual(a.column(cols_a[i]), row_a, b.column(cols_b[i]), row_b)) {
      return false;
    }
  }
  return true;
}

std::vector<std::pair<int64_t, int64_t>> ProbeEquiJoin(
    const Table& build, const std::vector<int64_t>& build_rows,
    const std::vector<int>& build_cols, const std::vector<ProbeKeyCol>& probe,
    size_t n_probe, const TableStats* build_stats) {
  PairVec out;
  if (n_probe == 0 || build_rows.empty()) return out;
  const JoinBuildIndex index(build, build_cols, build_stats, &build_rows);
  out.reserve(n_probe);
  index.Probe(probe, n_probe, /*max_matches=*/0, &out);
  return out;
}

std::vector<std::pair<int64_t, int64_t>> HashEquiJoin(
    const Table& left, const std::vector<int64_t>& left_rows, const Table& right,
    const std::vector<int64_t>& right_rows, const JoinKeySpec& keys,
    const TableStats* right_stats) {
  std::vector<ProbeKeyCol> probe;
  probe.reserve(keys.left_cols.size());
  for (int c : keys.left_cols) probe.push_back({&left.column(c), &left_rows});
  PairVec out = ProbeEquiJoin(right, right_rows, keys.right_cols, probe,
                              left_rows.size(), right_stats);
  for (auto& match : out) match.first = left_rows[match.first];
  return out;
}

// ---- JoinBuildIndex ---------------------------------------------------------

/// Resolved probe-side access for one key column of one Probe() call. The
/// typed plan is build-only, so how a probe column feeds the packed key —
/// direct int, integral-double, shared dictionary codes, or a per-call
/// remap into the build code space — is decided here, per call.
struct JoinBuildIndex::ProbeColView {
  enum class Mode { kInt, kIntFromDouble, kCode, kCodeRemap };
  Mode mode = Mode::kInt;
  const Column* col = nullptr;
  const std::vector<int64_t>* rows = nullptr;
  /// kCodeRemap: probe dictionary code -> build code, -1 = value absent
  /// from the build dictionary (such probe cells can never match).
  std::vector<int32_t> remap;
};

JoinBuildIndex::JoinBuildIndex(const Table& build, std::vector<int> build_cols,
                               const TableStats* build_stats,
                               const std::vector<int64_t>* build_rows)
    : build_(&build), cols_(std::move(build_cols)) {
  // Stale statistics (row count or arity drift) are worse than none. They
  // describe the whole table, so a row subset checks against it too.
  if (build_stats != nullptr &&
      (build_stats->num_rows != build.num_rows() ||
       build_stats->columns.size() != build.num_columns())) {
    build_stats = nullptr;
  }
  std::vector<int64_t> all_rows;
  if (build_rows == nullptr) {
    all_rows.resize(build.num_rows());
    std::iota(all_rows.begin(), all_rows.end(), 0);
    build_rows = &all_rows;
  }
  Build(*build_rows, build_stats);
}

// `flatten` (here and on Probe) inlines the key extractors and layout loops
// into one body: at -O3 GCC's inline budget otherwise gives out partway
// down, leaving per-row key extraction as an outlined call in the scan
// loops (+25-60% on the single-column join benchmarks).
__attribute__((flatten)) void JoinBuildIndex::Build(
    const std::vector<int64_t>& rows, const TableStats* build_stats) {
  const Table& build = *build_;
  const size_t n = rows.size();
  const size_t k = cols_.size();
  if (n == 0 || k == 0) return;  // kEmpty

  // Typed plan from the build side alone: INT64 offsets from the build
  // minimum, STRING columns keyed by the build dictionary.
  bool typed = true;
  bool range_known = true;
  plans_.assign(k, ColPlan{});
  unsigned __int128 total = 1;
  for (size_t i = 0; i < k && typed; ++i) {
    const Column& bc = build.column(cols_[i]);
    ColPlan& p = plans_[i];
    if (bc.type() == DataType::kInt64) {
      bool have_range = false;
      if (build_stats != nullptr) {
        const ColumnStats& cs = build_stats->columns[cols_[i]];
        if (cs.has_int_range) {
          p.min = cs.int_min;
          p.max = cs.int_max;
          have_range = true;
        } else if (cs.null_count == build.num_rows()) {
          return;  // every key cell null: nothing indexable (kEmpty)
        }
      }
      if (!have_range) {
        // Key-range scan of the indexed rows (cheap, sequential).
        bool any = false;
        int64_t mn = 0, mx = 0;
        for (size_t j = 0; j < n; ++j) {
          const int64_t r = rows[j];
          if (bc.IsNull(r)) continue;
          int64_t v = bc.GetInt(r);
          if (!any) {
            mn = mx = v;
            any = true;
          } else {
            mn = std::min(mn, v);
            mx = std::max(mx, v);
          }
        }
        if (!any) return;  // kEmpty
        p.min = mn;
        p.max = mx;
      }
      // Unsigned width so full-span columns wrap to 0 (= 2^64) instead of
      // overflowing.
      p.range = static_cast<uint64_t>(p.max) - static_cast<uint64_t>(p.min) + 1;
      if (p.range == 0) {
        if (k != 1) {
          typed = false;  // cannot pack a full-span column with others
        } else {
          range_known = false;
        }
      }
    } else if (bc.type() == DataType::kString) {
      p.dict = true;
      const size_t key_space = bc.dict_size();
      if (key_space == 0) return;  // no string ever interned: all null (kEmpty)
      p.min = 0;
      p.max = static_cast<int64_t>(key_space) - 1;
      p.range = key_space;
    } else {
      typed = false;  // DOUBLE keys: canonical hash+verify path
    }
    if (typed && range_known) {
      total *= p.range;
      if (total > static_cast<unsigned __int128>(UINT64_MAX)) typed = false;
    }
  }

  if (!typed) {
    BuildGeneric(rows);
    return;
  }
  uint64_t stride = 1;
  for (size_t i = 0; i < k; ++i) {
    plans_[i].stride = stride;
    stride *= plans_[i].range;  // harmless wrap on the last column
  }
  if (range_known) total_range_ = static_cast<uint64_t>(total);

  // Single-column keys get dedicated extractors with the column arrays
  // hoisted out of the scan loops; composite keys fold over the plans.
  if (k == 1) {
    const Column& bc = build.column(cols_[0]);
    const uint8_t* nulls = bc.nulls().data();
    if (!plans_[0].dict) {
      const int64_t* vals = bc.ints().data();
      const int64_t mn = plans_[0].min;
      BuildTyped(rows, range_known, [&](int64_t r, uint64_t* key) {
        if (nulls[r] != 0) return false;  // null keys are never indexed
        *key = static_cast<uint64_t>(vals[r]) - static_cast<uint64_t>(mn);
        return true;
      });
    } else {
      const int32_t* codes = bc.codes().data();
      BuildTyped(rows, range_known, [&](int64_t r, uint64_t* key) {
        if (nulls[r] != 0) return false;
        *key = static_cast<uint64_t>(static_cast<uint32_t>(codes[r]));
        return true;
      });
    }
    return;
  }
  std::vector<const Column*> bcols(k);
  for (size_t i = 0; i < k; ++i) bcols[i] = &build.column(cols_[i]);
  BuildTyped(rows, range_known, [&](int64_t r, uint64_t* key) {
    uint64_t packed = 0;
    for (size_t i = 0; i < k; ++i) {
      const Column& bc = *bcols[i];
      if (bc.IsNull(r)) return false;  // null keys are never indexed
      const ColPlan& p = plans_[i];
      const uint64_t off =
          p.dict ? static_cast<uint64_t>(static_cast<uint32_t>(bc.GetCode(r)))
                 : static_cast<uint64_t>(bc.GetInt(r)) -
                       static_cast<uint64_t>(p.min);
      packed += off * p.stride;
    }
    *key = packed;
    return true;
  });
}

template <typename KeyFn>
void JoinBuildIndex::BuildTyped(const std::vector<int64_t>& rows,
                                bool range_known, KeyFn&& build_key) {
  const size_t n = rows.size();
  if (range_known && DenseWorthwhile(total_range_, n)) {
    // Counting sort over the packed key range: key v's rows occupy
    // dense_rows_[dense_offsets_[v] .. dense_offsets_[v+1]) in index order.
    layout_ = Layout::kDense;
    dense_offsets_.assign(total_range_ + 1, 0);
    int32_t* offsets = dense_offsets_.data();
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t key;
      if (!build_key(rows[i], &key)) continue;
      ++offsets[static_cast<size_t>(key) + 1];
      ++kept;
    }
    for (size_t v = 1; v <= total_range_; ++v) offsets[v] += offsets[v - 1];
    dense_rows_.resize(kept);
    int64_t* dense_rows = dense_rows_.data();
    std::vector<int32_t> cursor(dense_offsets_.begin(),
                                dense_offsets_.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      uint64_t key;
      if (!build_key(rows[i], &key)) continue;
      dense_rows[cursor[static_cast<size_t>(key)]++] = rows[i];
    }
    size_ = kept;
    return;
  }

  // Flat table on SplitMix64(packed key), a bijection, so probes skip
  // verification. Keys are staged so the insert loop can prefetch home
  // slots ahead.
  layout_ = Layout::kTyped;
  std::vector<uint64_t> keys(n);
  std::vector<uint8_t> valid(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t key;
    valid[i] = build_key(rows[i], &key) ? 1 : 0;
    if (valid[i]) keys[i] = SplitMix64(key);
  }
  InsertStaged(rows, keys, valid);
}

void JoinBuildIndex::BuildGeneric(const std::vector<int64_t>& rows) {
  layout_ = Layout::kGeneric;
  const size_t n = rows.size();
  std::vector<uint64_t> hashes(n);
  std::vector<uint8_t> valid(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t r = rows[i];
    valid[i] = HasNullKey(*build_, r, cols_) ? 0 : 1;
    if (valid[i]) hashes[i] = HashRowKey(*build_, r, cols_);
  }
  InsertStaged(rows, hashes, valid);
}

void JoinBuildIndex::InsertStaged(const std::vector<int64_t>& rows,
                                  const std::vector<uint64_t>& hashes,
                                  const std::vector<uint8_t>& valid) {
  const size_t n = rows.size();
  flat_.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n && valid[i + kPrefetchDistance]) {
      flat_.Prefetch(hashes[i + kPrefetchDistance]);
    }
    if (valid[i]) {
      flat_.Insert(hashes[i], rows[i]);
      ++size_;
    }
  }
  flat_.Finalize();
}

__attribute__((flatten)) bool JoinBuildIndex::Probe(
    const std::vector<ProbeKeyCol>& probe, size_t n_probe, size_t max_matches,
    PairVec* out) const {
  if (n_probe == 0 || layout_ == Layout::kEmpty || size_ == 0) return true;
  const size_t k = cols_.size();

  if (layout_ == Layout::kGeneric) {
    std::vector<uint64_t> ph(n_probe);
    std::vector<uint8_t> pvalid(n_probe);
    for (size_t t = 0; t < n_probe; ++t) {
      uint64_t h = kRowKeyHashSeed;
      bool ok = true;
      for (size_t i = 0; i < k; ++i) {
        const int64_t row = (*probe[i].rows)[t];
        if (probe[i].col->IsNull(row)) {
          ok = false;  // null probe keys never match
          break;
        }
        h = CombineKeyHash(h, HashKeyCell(*probe[i].col, row));
      }
      pvalid[t] = ok ? 1 : 0;
      if (ok) ph[t] = h;
    }
    for (size_t t = 0; t < n_probe; ++t) {
      if (t + kPrefetchDistance < n_probe && pvalid[t + kPrefetchDistance]) {
        flat_.Prefetch(ph[t + kPrefetchDistance]);
      }
      if (!pvalid[t]) continue;
      flat_.ForEach(ph[t], [&](int64_t r) {
        for (size_t i = 0; i < k; ++i) {
          if (!KeyCellsEqual(*probe[i].col, (*probe[i].rows)[t],
                             build_->column(cols_[i]), r)) {
            return;
          }
        }
        out->emplace_back(static_cast<int64_t>(t), r);
      });
      if (max_matches > 0 && out->size() > max_matches) return false;
    }
    return true;
  }

  // Typed layouts: resolve how each probe column feeds the packed key.
  std::vector<ProbeColView> views(k);
  for (size_t i = 0; i < k; ++i) {
    const Column& pc = *probe[i].col;
    ProbeColView& v = views[i];
    v.col = &pc;
    v.rows = probe[i].rows;
    if (plans_[i].dict) {
      if (pc.type() != DataType::kString) return true;  // can never match
      const Column& bc = build_->column(cols_[i]);
      if (&pc == &bc) {
        v.mode = ProbeColView::Mode::kCode;  // shared code space (self join)
      } else {
        v.mode = ProbeColView::Mode::kCodeRemap;
        v.remap.resize(pc.dict_size());
        for (size_t c = 0; c < v.remap.size(); ++c) {
          v.remap[c] = bc.FindCode(pc.DictEntry(static_cast<int32_t>(c)));
        }
      }
    } else {
      if (pc.type() == DataType::kInt64) {
        v.mode = ProbeColView::Mode::kInt;
      } else if (pc.type() == DataType::kDouble) {
        // Exact cross-type join: an integral double equals the int it holds.
        v.mode = ProbeColView::Mode::kIntFromDouble;
      } else {
        return true;  // STRING probe against an INT64 key: can never match
      }
    }
  }

  // Single-column INT64 and dictionary-code probes get dedicated extractors
  // with the column arrays hoisted out of the loop.
  if (k == 1) {
    const ProbeColView& v = views[0];
    const Column& pc = *v.col;
    const int64_t* prows = v.rows->data();
    const uint8_t* nulls = pc.nulls().data();
    switch (v.mode) {
      case ProbeColView::Mode::kInt: {
        const int64_t* vals = pc.ints().data();
        const int64_t mn = plans_[0].min;
        const int64_t mx = plans_[0].max;
        return ProbeTyped(n_probe, max_matches, out,
                          [&](size_t t, uint64_t* key) {
                            const int64_t row = prows[t];
                            if (nulls[row] != 0) return false;
                            const int64_t x = vals[row];
                            if (x < mn || x > mx) return false;
                            *key = static_cast<uint64_t>(x) -
                                   static_cast<uint64_t>(mn);
                            return true;
                          });
      }
      case ProbeColView::Mode::kCode: {
        const int32_t* codes = pc.codes().data();
        return ProbeTyped(n_probe, max_matches, out,
                          [&](size_t t, uint64_t* key) {
                            const int64_t row = prows[t];
                            if (nulls[row] != 0) return false;
                            *key = static_cast<uint64_t>(
                                static_cast<uint32_t>(codes[row]));
                            return true;
                          });
      }
      case ProbeColView::Mode::kCodeRemap: {
        const int32_t* codes = pc.codes().data();
        const int32_t* remap = v.remap.data();
        return ProbeTyped(n_probe, max_matches, out,
                          [&](size_t t, uint64_t* key) {
                            const int64_t row = prows[t];
                            if (nulls[row] != 0) return false;
                            const int32_t code = remap[codes[row]];
                            if (code < 0) return false;
                            *key = static_cast<uint64_t>(
                                static_cast<uint32_t>(code));
                            return true;
                          });
      }
      case ProbeColView::Mode::kIntFromDouble:
        break;  // rare: the composite extractor below handles it
    }
  }

  return ProbeTyped(n_probe, max_matches, out, [&](size_t t, uint64_t* key) {
    uint64_t packed = 0;
    for (size_t i = 0; i < k; ++i) {
      const ProbeColView& v = views[i];
      const ColPlan& p = plans_[i];
      const int64_t row = (*v.rows)[t];
      if (v.col->IsNull(row)) return false;  // null probe keys never match
      uint64_t off = 0;
      switch (v.mode) {
        case ProbeColView::Mode::kInt: {
          const int64_t x = v.col->GetInt(row);
          if (x < p.min || x > p.max) return false;
          off = static_cast<uint64_t>(x) - static_cast<uint64_t>(p.min);
          break;
        }
        case ProbeColView::Mode::kIntFromDouble: {
          const double d = v.col->GetDouble(row);
          if (!(d >= kInt64Lo && d < kInt64Hi && d == std::floor(d))) {
            return false;  // non-integral double never equals an int64
          }
          const int64_t x = static_cast<int64_t>(d);
          if (x < p.min || x > p.max) return false;
          off = static_cast<uint64_t>(x) - static_cast<uint64_t>(p.min);
          break;
        }
        case ProbeColView::Mode::kCode:
          off = static_cast<uint64_t>(
              static_cast<uint32_t>(v.col->GetCode(row)));
          break;
        case ProbeColView::Mode::kCodeRemap: {
          const int32_t code = v.remap[v.col->GetCode(row)];
          if (code < 0) return false;  // value absent from the build space
          off = static_cast<uint64_t>(static_cast<uint32_t>(code));
          break;
        }
      }
      packed += off * p.stride;
    }
    *key = packed;
    return true;
  });
}

template <typename KeyFn>
bool JoinBuildIndex::ProbeTyped(size_t n_probe, size_t max_matches,
                                PairVec* out, KeyFn&& probe_key) const {
  if (layout_ == Layout::kDense) {
    // Two array reads per probe: no hashing, nothing worth staging.
    const int32_t* offsets = dense_offsets_.data();
    const int64_t* dense_rows = dense_rows_.data();
    for (size_t t = 0; t < n_probe; ++t) {
      uint64_t key;
      if (!probe_key(t, &key)) continue;
      const int32_t begin = offsets[static_cast<size_t>(key)];
      const int32_t end = offsets[static_cast<size_t>(key) + 1];
      for (int32_t i = begin; i < end; ++i) {
        out->emplace_back(static_cast<int64_t>(t), dense_rows[i]);
      }
      if (max_matches > 0 && out->size() > max_matches) return false;
    }
    return true;
  }
  // Keys are staged so the probe loop can prefetch home slots ahead.
  std::vector<uint64_t> pkeys(n_probe);
  std::vector<uint8_t> pvalid(n_probe);
  for (size_t t = 0; t < n_probe; ++t) {
    uint64_t key;
    pvalid[t] = probe_key(t, &key) ? 1 : 0;
    if (pvalid[t]) pkeys[t] = SplitMix64(key);
  }
  for (size_t t = 0; t < n_probe; ++t) {
    if (t + kPrefetchDistance < n_probe && pvalid[t + kPrefetchDistance]) {
      flat_.Prefetch(pkeys[t + kPrefetchDistance]);
    }
    if (!pvalid[t]) continue;
    flat_.ForEach(pkeys[t], [&](int64_t r) {
      out->emplace_back(static_cast<int64_t>(t), r);
    });
    if (max_matches > 0 && out->size() > max_matches) return false;
  }
  return true;
}

size_t JoinBuildIndex::ApproxBytes() const {
  return plans_.capacity() * sizeof(ColPlan) +
         cols_.capacity() * sizeof(int) +
         dense_offsets_.capacity() * sizeof(int32_t) +
         dense_rows_.capacity() * sizeof(int64_t) + flat_.ApproxBytes();
}

std::vector<std::pair<int64_t, int64_t>> ReferenceHashEquiJoin(
    const Table& left, const std::vector<int64_t>& left_rows, const Table& right,
    const std::vector<int64_t>& right_rows, const JoinKeySpec& keys) {
  std::vector<std::pair<int64_t, int64_t>> out;
  std::unordered_map<uint64_t, std::vector<int64_t>> build;
  build.reserve(right_rows.size() * 2);
  for (int64_t r : right_rows) {
    if (HasNullKey(right, r, keys.right_cols)) continue;
    build[HashRowKey(right, r, keys.right_cols)].push_back(r);
  }
  for (int64_t l : left_rows) {
    if (HasNullKey(left, l, keys.left_cols)) continue;
    auto it = build.find(HashRowKey(left, l, keys.left_cols));
    if (it == build.end()) continue;
    for (int64_t r : it->second) {
      if (RowKeysEqual(left, l, keys.left_cols, right, r, keys.right_cols)) {
        out.emplace_back(l, r);
      }
    }
  }
  return out;
}

}  // namespace cajade
