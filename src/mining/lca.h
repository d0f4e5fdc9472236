// LCA pattern-candidate generation (paper Section 3.2, adapted from Gebaly
// et al.): meet every pair of tuples in a sample of the APT over the
// categorical attributes — attributes where the pair agrees keep an equality
// predicate, the rest become don't-cares. Frequently co-occurring constant
// combinations surface as high-count candidates.
//
// The meet is grouped: identical sampled rows (same code, or NULL, in every
// column) form one group with a count, so each pair of distinct rows is met
// once. Group pair (a, b) contributes cnt_a * cnt_b pairs under its
// equality mask, and group a's self-pairs contribute C(cnt_a, 2) under its
// non-null mask. Masks are built a column at a time over column-major codes
// and accumulated per owner group in a table keyed by mask, so no pair
// allocates or hashes a signature.
//
// A candidate is a signature, one dictionary code per categorical column
// (-1 where the column is free), not a Pattern: the miner interns each
// (column, code) as one predicate-table slot, and only the callers that
// need Pattern values build them (SignaturePattern).
//
// Candidate order: candidates are sorted by descending pair count with an
// unstable std::sort over the iteration order of an unordered_map keyed by
// signature (lca_internal.h). Among equal counts the order therefore comes
// from libstdc++'s map layout, which depends only on the order in which
// distinct signatures are first inserted. A per-pair loop inserts them in
// the order of their first sampled pair (i, j). The first sampled pair
// behind group pair (a, b) is (first_a, first_b), and behind a self-pair
// (first_a, second_a). Groups are numbered by first appearance, and each
// owner group's signatures are added to the map in ascending partner
// index, so new signatures arrive in ascending (i, j) order and the list is
// exactly the per-pair loop's. The top-500 cut and the recall-ranked seeds
// downstream see this order, so it reaches the ranked explanations.
//
// Ownership and thread-safety: stateless free functions; inputs are borrowed
// read-only and results are fresh caller-owned values, so concurrent calls
// are safe.

#ifndef CAJADE_MINING_LCA_H_
#define CAJADE_MINING_LCA_H_

#include <vector>

#include "src/common/rng.h"
#include "src/mining/apt.h"
#include "src/mining/pattern.h"

namespace cajade {

/// A candidate signature with its pair-frequency in the sample: codes[c]
/// is the dictionary code cat_cols[c] must equal, or -1 for a free column.
struct LcaCandidate {
  std::vector<int32_t> codes;
  int64_t pair_count = 0;
};

/// Generates distinct candidate patterns over `cat_cols` from a sample of
/// `sample_size` APT rows (pairs of identical rows yield the full-equality
/// meet; pairs agreeing nowhere are skipped). Candidates are returned in
/// descending pair_count order. Sampling is over global row ids and
/// dictionary codes are slice-independent, so results are bit-identical at
/// any shard size.
std::vector<LcaCandidate> GenerateLcaCandidates(const AptSliceSet& ss,
                                                const std::vector<int>& cat_cols,
                                                size_t sample_size, Rng* rng);

/// Unsharded convenience overload (single borrowed slice).
std::vector<LcaCandidate> GenerateLcaCandidates(const Apt& apt,
                                                const std::vector<int>& cat_cols,
                                                size_t sample_size, Rng* rng);

/// The Pattern of signature `codes` over `cat_cols`: one string equality
/// per bound column, in cat_cols order, built from the codes of
/// `apt_table`'s dictionaries.
Pattern SignaturePattern(const Table& apt_table, const std::vector<int>& cat_cols,
                         const std::vector<int32_t>& codes);

}  // namespace cajade

#endif  // CAJADE_MINING_LCA_H_
