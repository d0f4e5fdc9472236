#include "src/mining/pattern_kernel.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>

namespace cajade {

namespace {

/// Multiplier that gathers the low bit of each of 8 bytes into the top byte
/// of the product: byte i (LSB first) lands on bit i.
constexpr uint64_t kPackMul = 0x0102040810204080ull;

/// Packs 64 bytes, each 0 or 1, into one word with bit i = b[i].
inline uint64_t PackBoolBytes(const uint8_t* b) {
  uint64_t out = 0;
  for (int k = 0; k < 8; ++k) {
    uint64_t chunk;
    std::memcpy(&chunk, b + 8 * k, sizeof(chunk));
    out |= ((chunk * kPackMul) >> 56) << (8 * k);
  }
  return out;
}

/// Evaluates one full 64-row chunk at `base` into a selection word: the
/// branch-free compare fills a 0/1 byte per row (auto-vectorizable), the
/// multiply-pack folds 8 bytes to 8 bits at a time, and NULLs (when the
/// column has any) fold in by AND-NOT of the packed null bytes. A null
/// `nulls` pointer is the null-free-chunk fast path.
template <typename Cmp>
inline uint64_t EvalFullWord(size_t base, const uint8_t* nulls, Cmp&& cmp) {
  alignas(64) uint8_t bytes[64];
  for (size_t i = 0; i < 64; ++i) {
    bytes[i] = static_cast<uint8_t>(cmp(base + i));
  }
  uint64_t m = PackBoolBytes(bytes);
  if (nulls != nullptr) m &= ~PackBoolBytes(nulls + base);
  return m;
}

/// Tail chunk (n < 64 rows); bits at and beyond n stay zero.
template <typename Cmp>
inline uint64_t EvalTailWord(size_t base, size_t n, const uint8_t* nulls,
                             Cmp&& cmp) {
  uint64_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    bool ok = cmp(base + i);
    if (nulls != nullptr) ok = ok && nulls[base + i] == 0;
    m |= uint64_t{ok} << i;
  }
  return m;
}

/// Dispatches one predicate to its typed value-only compare (the null check
/// is folded in separately by the mask loops). Must not be called for
/// kNever — callers special-case it first.
template <typename Body>
inline void DispatchValueTest(const CompiledPredicate& p, Body&& body) {
  using Kind = CompiledPredicate::Kind;
  switch (p.kind) {
    case Kind::kIntEq:
      body([ints = p.ints, c = p.inum](size_t r) { return ints[r] == c; });
      break;
    case Kind::kIntLe:
      body([ints = p.ints, c = p.inum](size_t r) { return ints[r] <= c; });
      break;
    case Kind::kIntGe:
      body([ints = p.ints, c = p.inum](size_t r) { return ints[r] >= c; });
      break;
    case Kind::kDoubleEq:
      body([vals = p.doubles, c = p.num](size_t r) { return vals[r] == c; });
      break;
    case Kind::kDoubleLe:
      body([vals = p.doubles, c = p.num](size_t r) { return vals[r] <= c; });
      break;
    case Kind::kDoubleGe:
      body([vals = p.doubles, c = p.num](size_t r) { return vals[r] >= c; });
      break;
    case Kind::kCodeEq:
      body([codes = p.codes, c = p.code](size_t r) { return codes[r] == c; });
      break;
    case Kind::kNever:
      break;
  }
}

/// Shared filter skeleton for the reference row-id loops: `test(row)`
/// decides survival with the null check already folded in by the caller.
template <typename TestFn>
inline void FilterLoop(const int32_t* in, size_t n, std::vector<int32_t>* out,
                       TestFn&& test) {
  for (size_t i = 0; i < n; ++i) {
    int32_t r = in[i];
    if (test(r)) out->push_back(r);
  }
}

template <typename TestFn>
inline void CompactLoop(std::vector<int32_t>* rows, TestFn&& test) {
  size_t w = 0;
  const size_t n = rows->size();
  int32_t* data = rows->data();
  for (size_t i = 0; i < n; ++i) {
    int32_t r = data[i];
    data[w] = r;
    w += test(r) ? 1 : 0;
  }
  rows->resize(w);
}

/// Row test with the null check folded in, for the reference loops.
template <typename Body>
inline void DispatchPredicate(const CompiledPredicate& p, Body&& body) {
  if (p.kind == CompiledPredicate::Kind::kNever) {
    body([](int32_t) { return false; });
    return;
  }
  DispatchValueTest(p, [&](auto&& cmp) {
    body([&](int32_t r) {
      return !p.nulls[static_cast<size_t>(r)] && cmp(static_cast<size_t>(r));
    });
  });
}

/// Compacts `*rows` by every predicate of `pattern` after the first (the
/// reference row-id loops).
void CompactByLaterPreds(const Pattern& pattern, const Table& table,
                         std::vector<int32_t>* rows) {
  for (size_t i = 1; i < pattern.preds.size() && !rows->empty(); ++i) {
    DispatchPredicate(CompiledPredicate::Compile(pattern.preds[i], table),
                      [&](auto&& test) { CompactLoop(rows, test); });
  }
}

/// Exact int64 bound for `ints[r] <= c` with a double constant: every int64
/// <= c iff it is <= floor(c), clamped at the int64 range edges. 2^63 is
/// exactly representable as a double, so the boundary compares are exact.
constexpr double kTwoPow63 = 9223372036854775808.0;

}  // namespace

CompiledPredicate CompiledPredicate::Compile(const PatternPredicate& pred,
                                             const Table& table) {
  CompiledPredicate out;
  const Column& col = table.column(pred.col);
  out.nulls = col.nulls().data();
  out.col_has_nulls = col.has_nulls();
  switch (col.type()) {
    case DataType::kString:
      if (pred.op != PredOp::kEq || pred.code < 0) {
        out.kind = Kind::kNever;
      } else {
        out.kind = Kind::kCodeEq;
        out.codes = col.codes().data();
        out.code = pred.code;
      }
      break;
    case DataType::kInt64: {
      out.ints = col.ints().data();
      out.num = pred.num;
      // Exact int64 threshold: an integral constant (the common case — the
      // miner quotes column values) carries over losslessly; a double
      // constant converts to the equivalent integer bound. The seed compared
      // static_cast<double>(ints[r]) against a double, silently equating
      // distinct int64s beyond 2^53.
      if (pred.value.is_int()) {
        out.inum = pred.value.AsInt();
        out.kind = pred.op == PredOp::kEq   ? Kind::kIntEq
                   : pred.op == PredOp::kLe ? Kind::kIntLe
                                            : Kind::kIntGe;
      } else {
        const double c = pred.num;
        if (std::isnan(c)) {
          out.kind = Kind::kNever;
        } else if (pred.op == PredOp::kEq) {
          if (std::floor(c) == c && c >= -kTwoPow63 && c < kTwoPow63) {
            out.kind = Kind::kIntEq;
            out.inum = static_cast<int64_t>(c);
          } else {
            out.kind = Kind::kNever;  // fractional or out-of-range: no int64
          }
        } else if (pred.op == PredOp::kLe) {
          const double f = std::floor(c);
          if (f < -kTwoPow63) {
            out.kind = Kind::kNever;  // below every int64
          } else {
            out.kind = Kind::kIntLe;
            out.inum = f >= kTwoPow63 ? INT64_MAX : static_cast<int64_t>(f);
          }
        } else {
          const double f = std::ceil(c);
          if (f >= kTwoPow63) {
            out.kind = Kind::kNever;  // above every int64
          } else {
            out.kind = Kind::kIntGe;
            out.inum = f <= -kTwoPow63 ? INT64_MIN : static_cast<int64_t>(f);
          }
        }
      }
      break;
    }
    case DataType::kDouble:
      out.doubles = col.doubles().data();
      out.num = pred.num;
      out.kind = pred.op == PredOp::kEq   ? Kind::kDoubleEq
                 : pred.op == PredOp::kLe ? Kind::kDoubleLe
                                          : Kind::kDoubleGe;
      break;
    default:
      out.kind = Kind::kNever;
  }
  return out;
}

bool CompiledPredicate::Test(int32_t row) const {
  bool result = false;
  DispatchPredicate(*this, [&](auto&& test) { result = test(row); });
  return result;
}

uint64_t CompiledPredicate::EvalMask(size_t num_rows, uint64_t* out) const {
  const size_t num_words = CoverageBitmap::NumWords(num_rows);
  if (kind == Kind::kNever) {
    std::fill_n(out, num_words, uint64_t{0});
    return 0;
  }
  const uint8_t* null_bytes = col_has_nulls ? nulls : nullptr;
  uint64_t pop = 0;
  DispatchValueTest(*this, [&](auto&& cmp) {
    const size_t full = num_rows / 64;
    for (size_t w = 0; w < full; ++w) {
      const uint64_t m = EvalFullWord(w * 64, null_bytes, cmp);
      out[w] = m;
      pop += static_cast<uint64_t>(__builtin_popcountll(m));
    }
    const size_t tail = num_rows % 64;
    if (tail != 0) {
      const uint64_t m = EvalTailWord(full * 64, tail, null_bytes, cmp);
      out[full] = m;
      pop += static_cast<uint64_t>(__builtin_popcountll(m));
    }
  });
  return pop;
}

void CompiledPredicate::FilterInto(const std::vector<int32_t>& rows_in,
                                   std::vector<int32_t>* rows_out) const {
  rows_out->clear();
  DispatchPredicate(*this, [&](auto&& test) {
    FilterLoop(rows_in.data(), rows_in.size(), rows_out, test);
  });
}

PredicateTable::PredicateTable(std::vector<const Table*> slices)
    : tables_(std::move(slices)) {
  rows_.reserve(tables_.size());
  offsets_.reserve(tables_.size());
  for (const Table* t : tables_) {
    rows_.push_back(t->num_rows());
    offsets_.push_back(words_);
    words_ += CoverageBitmap::NumWords(t->num_rows());
  }
}

uint32_t PredicateTable::Add(PatternPredicate pred) {
  const auto id = static_cast<uint32_t>(slots_.size());
  masks_.resize(masks_.size() + words_);
  for (size_t si = 0; si < tables_.size(); ++si) {
    CompiledPredicate::Compile(pred, *tables_[si])
        .EvalMask(rows_[si], masks_.data() + id * words_ + offsets_[si]);
  }
  std::string key_part = pred.KeyPart();
  slots_.push_back({std::move(pred), std::move(key_part)});
  return id;
}

uint32_t PredicateTable::InternEq(int col, int32_t code) {
  const uint64_t key = uint64_t{static_cast<uint32_t>(col)} << 32 |
                       static_cast<uint32_t>(code);
  auto [it, inserted] = eq_slots_.try_emplace(key, 0);
  if (inserted) {
    it->second = Add(PatternPredicate::CodeEq(*tables_.front(), col, code));
  }
  return it->second;
}

size_t PredicateTable::Match(const uint32_t* slots, size_t num_slots,
                             size_t slice, const CoverageBitmap* base,
                             CoverageBitmap* out) const {
  const size_t rows = rows_[slice];
  assert(base == nullptr || base->num_bits() == rows);
  const uint64_t* src = base == nullptr ? nullptr : base->words().data();
  out->ResetForOverwrite(rows);
  uint64_t* dst = out->MutableWords();
  const size_t words = out->num_words();
  if (num_slots == 0) {
    if (src == nullptr) {
      out->SetAll();
      return rows;
    }
    if (src != dst) std::copy_n(src, words, dst);
    return out->Popcount();
  }
  size_t pop = 0;
  for (size_t i = 0; i < num_slots; ++i) {
    const uint64_t* m = mask(slots[i], slice);
    pop = AndInto(src == nullptr ? m : src, m, words, dst);
    if (pop == 0) break;  // every word of dst is zero already
    src = dst;
  }
  return pop;
}

void ReferenceMatchInto(const Pattern& pattern, const Table& table,
                        const std::vector<int32_t>& rows_in,
                        std::vector<int32_t>* rows_out) {
  if (pattern.preds.empty()) {
    rows_out->assign(rows_in.begin(), rows_in.end());
    return;
  }
  CompiledPredicate::Compile(pattern.preds[0], table)
      .FilterInto(rows_in, rows_out);
  CompactByLaterPreds(pattern, table, rows_out);
}

void ReferenceMatchAll(const Pattern& pattern, const Table& table,
                       std::vector<int32_t>* rows_out) {
  const size_t num_rows = table.num_rows();
  rows_out->clear();
  if (pattern.preds.empty()) {
    rows_out->resize(num_rows);
    std::iota(rows_out->begin(), rows_out->end(), 0);
    return;
  }
  rows_out->reserve(num_rows);
  DispatchPredicate(
      CompiledPredicate::Compile(pattern.preds[0], table), [&](auto&& test) {
        for (size_t r = 0; r < num_rows; ++r) {
          if (test(static_cast<int32_t>(r))) {
            rows_out->push_back(static_cast<int32_t>(r));
          }
        }
      });
  CompactByLaterPreds(pattern, table, rows_out);
}

}  // namespace cajade
