#include "src/mining/lca.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

#include "src/mining/lca_internal.h"

namespace cajade {

namespace {

constexpr size_t kEmpty = std::numeric_limits<size_t>::max();

uint64_t Mix(uint64_t h, uint64_t x) {
  return h ^ (x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// murmur3's finalizer: the low bits used as a slot index then depend on
/// every input bit.
uint64_t Finish(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb93fe53e4963ULL;
  return h ^ (h >> 33);
}

/// Open-addressing capacity for up to `n` keys: a power of two >= 2n.
size_t TableCapacity(size_t n) {
  size_t cap = 2;
  while (cap < 2 * n) cap <<= 1;
  return cap;
}

/// Distinct sampled rows, numbered in order of first appearance in the
/// sample. Column masks over the k columns are `words` 64-bit words.
struct RowGroups {
  size_t k = 0;
  size_t words = 0;
  std::vector<int32_t> codes;    ///< k per group (row-major); -1 = null
  std::vector<int32_t> columns;  ///< the same codes, column-major
  std::vector<int64_t> count;    ///< sampled rows in the group
  std::vector<size_t> first;     ///< sample index of the first row
  std::vector<size_t> second;    ///< sample index of the second row, if any

  size_t size() const { return count.size(); }
  const int32_t* Codes(size_t g) const { return &codes[g * k]; }
  const int32_t* Column(size_t c) const { return &columns[c * size()]; }
};

/// Groups the s row-major sampled code rows by content.
RowGroups GroupRows(const std::vector<int32_t>& rows, size_t s, size_t k) {
  RowGroups g;
  g.k = k;
  g.words = (k + 63) / 64;
  const size_t cap = TableCapacity(s);
  std::vector<size_t> slots(cap, kEmpty);  // slot -> group id
  g.codes.reserve(s * k);
  g.count.reserve(s);
  g.first.reserve(s);
  g.second.reserve(s);
  for (size_t i = 0; i < s; ++i) {
    const int32_t* row = &rows[i * k];
    uint64_t h = 0;
    for (size_t c = 0; c < k; ++c) h = Mix(h, static_cast<uint32_t>(row[c]));
    size_t slot = Finish(h) & (cap - 1);
    while (slots[slot] != kEmpty &&
           !std::equal(row, row + k, g.Codes(slots[slot]))) {
      slot = (slot + 1) & (cap - 1);
    }
    if (slots[slot] != kEmpty) {
      const size_t id = slots[slot];
      if (++g.count[id] == 2) g.second[id] = i;
      continue;
    }
    slots[slot] = g.size();
    g.codes.insert(g.codes.end(), row, row + k);
    g.count.push_back(1);
    g.first.push_back(i);
    g.second.push_back(0);
  }
  const size_t n = g.size();
  g.columns.resize(n * k);
  for (size_t id = 0; id < n; ++id) {
    for (size_t c = 0; c < k; ++c) g.columns[c * n + id] = g.Codes(id)[c];
  }
  return g;
}

/// Per-owner accumulator keyed by equality mask: summed pair weight and the
/// smallest partner sample index. Direct-indexed (the mask is the slot, and
/// each slot's key is preset to its index) while 2^k fits the hashed
/// table's size; linear-probed otherwise. Sized for `max_keys` distinct
/// masks, which one owner never exceeds. A slot whose weight is 0 is empty
/// whatever its key, so a direct-indexed Add takes no data-dependent branch
/// beyond the rare first use of a slot.
class MaskTable {
 public:
  MaskTable(size_t k, size_t words, size_t max_keys)
      : words_(words),
        direct_(k < 64 && (size_t{1} << k) <= TableCapacity(max_keys)) {
    const size_t cap = direct_ ? size_t{1} << k : TableCapacity(max_keys);
    keys_.resize(cap * words);
    if (direct_) std::iota(keys_.begin(), keys_.end(), uint64_t{0});
    weight_.resize(cap, 0);
    partner_.resize(cap, kEmpty);
  }

  void Add(const uint64_t* mask, int64_t weight, size_t partner) {
    const size_t cap = weight_.size();
    size_t slot = direct_ ? mask[0] : Hash(mask) & (cap - 1);
    while (!KeyIs(slot, mask) && weight_[slot] != 0) {
      slot = (slot + 1) & (cap - 1);
    }
    if (weight_[slot] == 0) {
      for (size_t x = 0; x < words_; ++x) keys_[slot * words_ + x] = mask[x];
    }
    partner_[slot] = std::min(partner_[slot], partner);
    weight_[slot] += weight;
  }

  /// Adds every accumulated mask to `counts` under its signature (the
  /// owner's `codes` on the mask; the empty mask is dropped) and clears.
  /// Owners come in ascending first sample index and each owner's masks go
  /// in ascending partner, so new signatures enter the map in the order of
  /// their first sampled pair (i, j), as in a per-pair loop.
  void FlushInto(const int32_t* codes, std::vector<int32_t>* sig,
                 LcaSigCounts* counts) {
    order_.clear();
    for (size_t slot = 0; slot < weight_.size(); ++slot) {
      if (weight_[slot] != 0) order_.push_back(slot);
    }
    std::sort(order_.begin(), order_.end(), [&](size_t x, size_t y) {
      return partner_[x] < partner_[y];
    });
    for (size_t slot : order_) {
      std::fill(sig->begin(), sig->end(), -1);
      bool any = false;
      for (size_t x = 0; x < words_; ++x) {
        for (uint64_t m = keys_[slot * words_ + x]; m != 0; m &= m - 1) {
          const size_t c = x * 64 + static_cast<size_t>(__builtin_ctzll(m));
          (*sig)[c] = codes[c];
          any = true;
        }
      }
      if (any) (*counts)[*sig] += weight_[slot];
      weight_[slot] = 0;
      partner_[slot] = kEmpty;
    }
  }

 private:
  bool KeyIs(size_t slot, const uint64_t* mask) const {
    for (size_t x = 0; x < words_; ++x) {
      if (keys_[slot * words_ + x] != mask[x]) return false;
    }
    return true;
  }

  uint64_t Hash(const uint64_t* mask) const {
    uint64_t h = 0;
    for (size_t x = 0; x < words_; ++x) h = Mix(h, mask[x]);
    return Finish(h);
  }

  size_t words_;
  bool direct_;
  std::vector<uint64_t> keys_;    ///< `words_` per slot
  std::vector<int64_t> weight_;   ///< 0 = empty slot
  std::vector<size_t> partner_;   ///< kEmpty when empty
  std::vector<size_t> order_;     ///< occupied slots, reused by each flush
};

/// Meets every pair of sampled rows once per pair of distinct rows. Owner
/// group a takes its self-pairs, C(cnt_a, 2) under its non-null mask, and
/// every later group b, cnt_a * cnt_b under their equality mask (bit c set
/// where both hold the same non-null code; an empty mask is accumulated
/// too and dropped at the flush). The first sampled pair behind a group
/// pair is (first_a, first_b); behind a self-pair it is (first_a,
/// second_a). The masks of all partners of a are built a column at a time
/// over the column-major codes, in a branch-free loop (vectorizable while
/// k <= 64).
void CountGroupMeets(const RowGroups& g, LcaSigCounts* counts) {
  const size_t n = g.size();
  const size_t words = g.words;
  MaskTable local(g.k, words, n);
  std::vector<uint64_t> eqs(n * words);  // partner b's mask at b * words
  std::vector<uint64_t> self(words);
  std::vector<int32_t> sig(g.k);
  for (size_t a = 0; a < n; ++a) {
    const int32_t* ca = g.Codes(a);
    std::fill(eqs.begin() + (a + 1) * words, eqs.end(), 0);
    std::fill(self.begin(), self.end(), 0);
    for (size_t c = 0; c < g.k; ++c) {
      const int32_t v = ca[c];
      if (v < 0) continue;
      const unsigned bit = c % 64;
      self[c / 64] |= uint64_t{1} << bit;
      const int32_t* col = g.Column(c);
      uint64_t* eq = &eqs[c / 64];
      for (size_t b = a + 1; b < n; ++b) {
        eq[b * words] |= static_cast<uint64_t>(col[b] == v) << bit;
      }
    }
    const int64_t cnt_a = g.count[a];
    if (cnt_a >= 2) local.Add(self.data(), cnt_a * (cnt_a - 1) / 2, g.second[a]);
    for (size_t b = a + 1; b < n; ++b) {
      local.Add(&eqs[b * words], cnt_a * g.count[b], g.first[b]);
    }
    local.FlushInto(ca, &sig, counts);
  }
}

}  // namespace

std::vector<LcaCandidate> GenerateLcaCandidates(const AptSliceSet& ss,
                                                const std::vector<int>& cat_cols,
                                                size_t sample_size, Rng* rng) {
  std::vector<LcaCandidate> out;
  if (cat_cols.empty() || ss.total_rows == 0) return out;

  // Global row ids: the same draws, hitting the same logical rows, at any
  // shard size.
  std::vector<size_t> sample = rng->SampleIndices(ss.total_rows, sample_size);

  // Pre-extract the categorical codes of the sampled rows (row-major), -1
  // for null. Codes are comparable across slices (the AptSliceSet
  // dictionary invariant), so the meet never consults the tables again.
  const size_t s = sample.size();
  const size_t k = cat_cols.size();
  std::vector<std::pair<size_t, size_t>> located(s);
  for (size_t i = 0; i < s; ++i) located[i] = ss.Locate(sample[i]);
  std::vector<int32_t> rows(s * k);
  for (size_t c = 0; c < k; ++c) {
    for (size_t i = 0; i < s; ++i) {
      const auto& [si, r] = located[i];
      const Column& col = ss.slices[si].table->column(cat_cols[c]);
      rows[i * k + c] = col.IsNull(r) ? -1 : col.GetCode(r);
    }
  }

  // Meet distinct rows; signatures enter the map in first-seen order, so
  // it iterates exactly as if every sampled pair had been inserted.
  LcaSigCounts counts;
  CountGroupMeets(GroupRows(rows, s, k), &counts);

  // Move every signature out of the map in its iteration order.
  out.reserve(counts.size());
  while (!counts.empty()) {
    auto node = counts.extract(counts.begin());
    out.push_back({std::move(node.key()), node.mapped()});
  }
  std::sort(out.begin(), out.end(), [](const LcaCandidate& a, const LcaCandidate& b) {
    return a.pair_count > b.pair_count;
  });
  return out;
}

std::vector<LcaCandidate> GenerateLcaCandidates(const Apt& apt,
                                                const std::vector<int>& cat_cols,
                                                size_t sample_size, Rng* rng) {
  return GenerateLcaCandidates(MakeSliceSet(apt), cat_cols, sample_size, rng);
}

Pattern SignaturePattern(const Table& apt_table, const std::vector<int>& cat_cols,
                         const std::vector<int32_t>& codes) {
  Pattern pattern;
  for (size_t c = 0; c < cat_cols.size(); ++c) {
    if (codes[c] < 0) continue;
    pattern.preds.push_back(
        PatternPredicate::CodeEq(apt_table, cat_cols[c], codes[c]));
  }
  return pattern;
}

}  // namespace cajade
