// Columnar predicate kernels and the miner's predicate table.
//
// A PatternPredicate compiles against a concrete table into a typed
// per-column loop (raw data-array pointers, no Value boxing, no per-row
// virtual dispatch). EvalMask evaluates 64 rows per output word with
// branch-free compares; NULLs fold in by AND-NOT of the packed null bytes,
// skipped entirely on null-free columns.
//
// PredicateTable is the one place where a list of predicates becomes a row
// mask. A Mine call adds every predicate it matches to one table, once:
// the numeric refinement predicates, and each categorical (column, code)
// equality the first time a scored LCA candidate quotes it. A slot's
// full-row mask is evaluated per slice when the slot is added. Matching a
// predicate list is then the AND of its slots' masks with a base mask (the
// F-score view's rows, a refinement parent's rows, or every row) — seed
// scoring, refinement and exact supports all match this way, and nothing
// is compiled per candidate.
//
// The original row-id selection-vector path survives as the free functions
// ReferenceMatchInto / ReferenceMatchAll: the differential-testing oracle
// and bench baseline, mirroring ReferenceExecuteSpj / ReferenceMaterializeApt.
//
// Ownership and thread-safety: a compiled predicate and a PredicateTable
// borrow the tables they were built on — those must outlive them and must
// not be mutated (appended to, dictionary-extended) meanwhile. A table owns
// its slots and masks; Add/InternEq mutate it, while Match and the other
// const members may run from many threads concurrently. Output masks are
// caller-owned and must not be shared across concurrent Match calls.
//
// Kernels are exactly equivalent to the scalar Pattern::Matches loop except
// for one deliberate fix: INT64 comparisons run against an exact int64
// threshold (derived from the predicate's constant), where Pattern::Matches
// widens through double and silently equates int64s that differ only beyond
// 2^53. Null cells never match; string predicates require an in-dictionary
// code and the kEq operator; DOUBLE comparisons happen in the double domain.

#ifndef CAJADE_MINING_PATTERN_KERNEL_H_
#define CAJADE_MINING_PATTERN_KERNEL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/mining/coverage.h"
#include "src/mining/pattern.h"
#include "src/storage/table.h"

namespace cajade {

/// \brief One pattern predicate compiled against a concrete table.
///
/// Holds raw pointers into the table's column storage; the table must
/// outlive the compiled predicate and not be appended to while it is in use.
struct CompiledPredicate {
  enum class Kind : uint8_t {
    kIntEq,
    kIntLe,
    kIntGe,
    kDoubleEq,
    kDoubleLe,
    kDoubleGe,
    kCodeEq,
    kNever,  ///< predicate can match no row (e.g. constant not in dictionary)
  };

  Kind kind = Kind::kNever;
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  const int32_t* codes = nullptr;
  const uint8_t* nulls = nullptr;
  double num = 0.0;
  /// Exact INT64 threshold for kInt* kinds. Integral constants carry over
  /// exactly (no 2^53 collapse); fractional/oversized double constants
  /// become the equivalent int64 bound (floor for <=, ceil for >=) or kNever.
  int64_t inum = 0;
  int32_t code = -1;
  /// False when the column holds no NULLs: mask evaluation skips the null
  /// mask entirely (the null-free-chunk fast path).
  bool col_has_nulls = false;

  static CompiledPredicate Compile(const PatternPredicate& pred, const Table& table);

  /// Scalar test of one row (tests).
  bool Test(int32_t row) const;

  /// Evaluates rows [0, num_rows) into `out` (NumWords(num_rows) words,
  /// overwritten): bit i of word w = row w*64 + i matches. Tail bits beyond
  /// num_rows are zero. Returns the number of matching rows.
  uint64_t EvalMask(size_t num_rows, uint64_t* out) const;

  /// Reference scalar loop (oracle + bench baseline): appends the rows of
  /// `rows_in` that satisfy the predicate to `*rows_out` after clearing it.
  /// `rows_out` must not alias `rows_in`.
  void FilterInto(const std::vector<int32_t>& rows_in,
                  std::vector<int32_t>* rows_out) const;
};

/// \brief The predicates one Mine call matches, each with one full-row mask
/// per slice.
///
/// Slot ids are dense and stable. A table over no slices only stores
/// predicates (top-k ranking of caller-built patterns).
class PredicateTable {
 public:
  /// A predicate with its Pattern::Key() part, built once.
  struct Slot {
    PatternPredicate pred;
    std::string key_part;
  };

  /// A table over `slices`, one borrowed table per APT slice. The slices
  /// share their dictionaries (the AptSliceSet invariant).
  explicit PredicateTable(std::vector<const Table*> slices);

  /// Adds a slot for `pred`, evaluating its mask on every slice; returns
  /// its id. Equal predicates added twice get two slots.
  uint32_t Add(PatternPredicate pred);

  /// The slot of the string equality `col = <dictionary entry code>`,
  /// added the first time (col, code) is asked for. Needs a slice.
  uint32_t InternEq(int col, int32_t code);

  const Slot& slot(uint32_t id) const { return slots_[id]; }
  size_t num_slots() const { return slots_.size(); }
  /// Slot `id`'s mask over every row of `slice`: one bit per row of the
  /// slice's table, tail bits zero.
  const uint64_t* mask(uint32_t id, size_t slice) const {
    return masks_.data() + id * words_ + offsets_[slice];
  }

  /// out = base AND the masks of slots[0 .. num_slots) over `slice`, where
  /// a null `base` stands for every row; sized to the slice's row count. No
  /// slots leave the base. `out` may alias `base`. Returns popcount(out).
  size_t Match(const uint32_t* slots, size_t num_slots, size_t slice,
               const CoverageBitmap* base, CoverageBitmap* out) const;

 private:
  std::vector<const Table*> tables_;
  std::vector<size_t> rows_;      ///< rows per slice
  std::vector<size_t> offsets_;   ///< first word of each slice in a slot
  size_t words_ = 0;              ///< mask words per slot, all slices
  std::vector<Slot> slots_;
  std::vector<uint64_t> masks_;   ///< slot id * words_ + offsets_[slice]
  std::unordered_map<uint64_t, uint32_t> eq_slots_;  ///< (col, code) -> id
};

/// Scalar row-id reference (oracle + bench baseline): fills `*rows_out`
/// with the rows of `rows_in` matching every predicate of `pattern`
/// compiled against `table` (cleared first, in input order). An empty
/// pattern copies `rows_in`. `rows_out` must not alias `rows_in`.
void ReferenceMatchInto(const Pattern& pattern, const Table& table,
                        const std::vector<int32_t>& rows_in,
                        std::vector<int32_t>* rows_out);

/// The same over every row [0, table.num_rows()).
void ReferenceMatchAll(const Pattern& pattern, const Table& table,
                       std::vector<int32_t>* rows_out);

}  // namespace cajade

#endif  // CAJADE_MINING_PATTERN_KERNEL_H_
