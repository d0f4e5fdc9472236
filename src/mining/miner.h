// Pattern mining over one APT (paper Algorithm 1, MineAPT):
//   1. attribute relevance filtering (random forest) + correlation
//      clustering with representatives (Section 3.1),
//   2. LCA candidate generation over categorical attributes (Section 3.2),
//   3. recall filtering of candidates (Section 3.3),
//   4. numeric refinement over domain fragments with recall-monotonicity
//      pruning (Section 3.4, Proposition 3.1),
//   5. diversity-aware top-k selection (Section 3.5).
//
// Ownership and thread-safety: mining borrows the APT read-only, owns its
// scratch state, and returns fresh caller-owned patterns; deterministic in
// the supplied Rng. Distinct calls run safely on distinct threads (the
// explainer fans out one call per APT), each with its own Rng.

#ifndef CAJADE_MINING_MINER_H_
#define CAJADE_MINING_MINER_H_

#include <vector>

#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/core/config.h"
#include "src/mining/apt.h"
#include "src/mining/pattern.h"
#include "src/mining/quality.h"

namespace cajade {

/// A scored pattern produced by the miner.
struct MinedPattern {
  Pattern pattern;
  /// 0: t1 is the primary tuple, 1: t2.
  int primary = 0;
  /// Scores on the (possibly sampled) metrics view used during mining;
  /// these drive ranking inside the miner (the sampling experiments compare
  /// them against a no-sampling run).
  PatternScores scores;
  /// Exact scores on the full APT, computed for the returned top-k.
  PatternScores exact;
  /// Exact relative supports on the full APT (Definition 6): pattern covers
  /// support_primary of total_primary provenance rows of the primary tuple,
  /// and support_other of total_other rows of the other tuple.
  int64_t support_primary = 0;
  int64_t total_primary = 0;
  int64_t support_other = 0;
  int64_t total_other = 0;
};

/// Result of mining one APT.
struct MineResult {
  std::vector<MinedPattern> top_k;
  size_t apt_rows = 0;
  size_t num_attributes = 0;       ///< pattern-eligible attributes
  size_t selected_attributes = 0;  ///< after relevance filtering + clustering
  size_t lca_candidates = 0;
  size_t patterns_evaluated = 0;
  bool budget_exhausted = false;
};

/// \brief Mines top-k explanation patterns from an APT.
///
/// Step timings are charged to the profiler under the paper's breakdown-row
/// names: "Feature Selection", "Gen. Pat. Cand.", "Sampling for F1",
/// "F-score Calc.", "Refine Patterns", plus "Top-k Selection" (ranking the
/// refinement pool) and "Exact Supports" (full-APT supports of the
/// winners). Each stage is timed exclusively, so on a serial Mine the
/// stages sum to at most its wall time. The refinement phase is timed once;
/// its scoring time goes to "F-score Calc." and the rest to "Refine
/// Patterns".
///
/// Seeds, refinement and exact supports match through one per-Mine
/// PredicateTable (pattern_kernel.h): every (numeric attribute, op,
/// boundary) and every (categorical column, code) a scored LCA candidate
/// quotes is one slot with a precomputed mask per slice. Refinement works on
/// a compact tree: a node is {parent, slot}, and a child's match mask is the
/// parent's ANDed with the slot's mask. Patterns are built only for the
/// returned top-k.
///
/// Mine() is const and keeps all scratch state (the refinement tree,
/// predicate table, coverage bitmaps, selection arenas) on its own stack,
/// so distinct miners — or one miner with distinct profilers/RNGs — may
/// run concurrently on different APTs. The parallel explainer constructs one
/// PatternMiner + StepProfiler per join-graph task and relies on this.
class PatternMiner {
 public:
  PatternMiner(const CajadeConfig* config, StepProfiler* profiler)
      : config_(config), profiler_(profiler) {}

  Result<MineResult> Mine(const Apt& apt, const PtClasses& classes,
                          Rng* rng) const;

  /// Shard-native entry point: mines a sharded APT without ever
  /// concatenating its shard tables — predicate masks are evaluated per
  /// shard and coverage/F-score popcounts merged. Bit-identical to Mine()
  /// over the equivalent unsharded APT at any shard size (every stage
  /// consumes rows in global row order and every RNG draw is
  /// slicing-independent).
  Result<MineResult> Mine(const ShardedApt& apt, const PtClasses& classes,
                          Rng* rng) const;

 private:
  /// Shared implementation over the borrowed slice view (one slice for an
  /// unsharded APT, one per shard otherwise).
  Result<MineResult> MineSlices(const AptSliceSet& ss,
                                const PtClasses& classes, Rng* rng) const;

  /// filterAttrs (Algorithm 1): relevance filtering + clustering; returns
  /// selected pattern-eligible column indexes.
  std::vector<int> SelectAttributes(const AptSliceSet& ss,
                                    const PtClasses& classes, Rng* rng) const;

  const CajadeConfig* config_;
  StepProfiler* profiler_;
};

/// Diversity score D(phi, phi') from Section 3.5: per attribute of phi, +1
/// when phi' leaves it free, -0.3 when both bind it with different
/// constants, -2 with the same constant; averaged over |phi|.
double DiversityScore(const Pattern& a, const Pattern& b);

/// Greedy diversity-aware selection: repeatedly picks the candidate with the
/// highest wscore = F-score + min over selected D(phi, phi'). Returns indexes
/// into `pool`. With `use_diversity` false, returns the top-k by F-score.
///
/// Candidates are ranked in one total order: F-score descending, then
/// Pattern::Key() ascending (byte-wise string order), then pool index
/// ascending. The same pattern under primary 0 and 1 thus ranks in pool
/// order. With diversity, the greedy pass examines the first 2000 entries
/// of this order and, among equal wscores, keeps the earliest. Mine() ranks
/// its pool the same way, without building Patterns or key strings.
std::vector<size_t> SelectTopKDiverse(const std::vector<MinedPattern>& pool,
                                      size_t k, bool use_diversity);

}  // namespace cajade

#endif  // CAJADE_MINING_MINER_H_
