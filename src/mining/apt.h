// Augmented provenance tables (paper Definition 4): the provenance table
// joined with the context relations of a join graph. Rows keep a pointer to
// the provenance row they extend, which is what coverage (Definition 7a) is
// computed over.
//
// Materialization runs every tree-edge join through the typed kernel layer
// (JoinBuildIndex in src/exec/join.h) and shares work at two granularities,
// both instances of the one cache protocol (SharedLruCache in
// src/common/shared_lru_cache.h):
//  - AptIndexCache caches build-side join indexes per (relation, key
//    columns) across join graphs;
//  - AptPrefixCache caches intermediate join states per graph *prefix*, so
//    sibling graphs (PT-A-B vs PT-A-C) start from the shared PT-A state
//    instead of re-joining from the PT.
// The seed's scalar implementation survives as ReferenceMaterializeApt, the
// differential-testing oracle and bench baseline (mirroring
// ReferenceHashEquiJoin / ReferenceExecuteSpj).
//
// MaterializeAptSharded is the one materialization body: it builds an APT
// as a sequence of row-range shards (ShardedApt) that are never
// concatenated, and shard_rows = 0 means one full-range shard.
// MaterializeApt is that one-shard case moved into an Apt. At any shard
// size, concat(shards) is byte-identical to ReferenceMaterializeApt's
// output and errors (row-limit trips included) match. The miner consumes
// either representation through the borrowed AptSliceSet view.
//
// Ownership and thread-safety: APT values own their column storage and
// belong to the caller. The caches below own their entries, hand out
// shared_ptr snapshots and are safe for concurrent use; their locking is
// annotated once, in SharedLruCache, and checked by the thread-safety CI
// leg.

#ifndef CAJADE_MINING_APT_H_
#define CAJADE_MINING_APT_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/shared_lru_cache.h"
#include "src/common/status.h"
#include "src/exec/join.h"
#include "src/graph/join_graph.h"
#include "src/provenance/provenance.h"
#include "src/stats/table_stats.h"

namespace cajade {

class WorkerPool;

/// Approximate heap footprint of a join index; the byte unit of
/// AptIndexCache.
inline size_t ApproxIndexBytes(const JoinBuildIndex& index) {
  return index.ApproxBytes();
}

/// \brief Cross-join-graph cache of build-side join indexes on context
/// relations.
///
/// Enumerations revisit the same (relation, join-key) combinations across
/// hundreds of join graphs; caching the build side makes APT
/// materialization cost proportional to the APT, not the base tables.
/// Entries are typed kernel indexes (JoinBuildIndex) sized from the
/// StatsCatalog range tier when one is threaded through Get, so index
/// builds never rescan key ranges.
///
/// Designed to live process-wide under the serving layer: keys embed
/// Table::content_version(), so a mutated or replaced base table is never
/// served a stale index — old-version entries age out of the LRU. Build
/// once, failure propagation and the byte bound are SharedLruCache's.
class AptIndexCache : public SharedLruCache<JoinBuildIndex, &ApproxIndexBytes> {
 public:
  using SharedLruCache::SharedLruCache;
  using IndexPtr = ValuePtr;

  /// Index of `base` (at its current content version) on `cols`, built on
  /// first use. The base table must outlive the returned index and must not
  /// be mutated while it is probed — MarkMutated-style version bumps after
  /// this call are fine (they key future lookups), concurrent mutation is
  /// not. `stats` (the full `base` table's statistics; the range tier
  /// suffices) sizes the typed layout without a key-range rescan — it only
  /// needs to stay valid for the duration of the call, and does not affect
  /// probe results (only build cost).
  IndexPtr Get(const Table& base, const std::vector<int>& cols,
               const TableStats* stats = nullptr);

  /// Number of indexes actually built (not lookups); a concurrent stress
  /// test asserts this equals the number of distinct keys requested.
  size_t num_builds() const { return builds(); }
};

/// \brief One materialization state: the partial (or final) APT after some
/// prefix of a join graph's materialization steps.
///
/// Immutable once published to the prefix cache — every step reads its input
/// state and produces a fresh one, which is what lets states be shared
/// between concurrent materializations by shared_ptr.
struct AptJoinState {
  /// PT columns followed by the context columns joined so far.
  Table table;
  /// state row -> position in the materialization's pt_rows.
  std::vector<int32_t> pt_row;
};

/// Approximate heap footprint of a state (column buffers + dictionaries +
/// the pt-row map); the byte unit of AptPrefixCache.
size_t ApproxStateBytes(const AptJoinState& state);

/// \brief Cache of intermediate APT join states keyed by canonical graph
/// prefix.
///
/// Join graphs produced by the enumerator overwhelmingly share prefixes
/// (PT-A-B and PT-A-C differ only in their last step), and the initial
/// PT-subset state is shared by every graph of one user question. Keys are
/// the PT fingerprint plus the concatenated AptStepSignature prefix, so a
/// state built for one graph is picked up by any sibling whose leading
/// steps match. Cached states are deterministic, so explanations stay
/// bit-identical to the uncached path at every thread count. Under the
/// sharded pipeline entries are per-shard states, so peak_bytes() bounds
/// resident cache bytes at shard granularity, not final-APT size.
using AptPrefixCache = SharedLruCache<AptJoinState, &ApproxStateBytes>;

/// \brief A materialized APT.
struct Apt {
  /// PT columns (prov_ names) followed by context columns ("<label>.<attr>").
  Table table;
  /// APT row -> position in `pt_rows_used` (NOT the original PT row id).
  std::vector<int32_t> pt_row;
  /// The PT rows the APT was built over (typically PT(t1) u PT(t2)),
  /// as original PT row ids, in ascending order.
  std::vector<int64_t> pt_rows_used;
  /// Number of leading columns that came from PT.
  size_t num_pt_columns = 0;
  /// Columns eligible for patterns (group-by attributes excluded).
  std::vector<int> pattern_cols;

  size_t num_rows() const { return pt_row.size(); }

  /// True when every APT row extends a distinct PT position in order
  /// (pt_row is the identity map) — the case for 1:1 context joins. The
  /// mask-native miner then scores a row match mask directly as the
  /// coverage set, skipping the row→position projection.
  bool PtRowIsIdentity() const;
};

/// \brief One row-range shard of a sharded APT: the materialization of the
/// PT positions [pt_begin, pt_end) of the full selection. pt_row entries
/// are GLOBAL positions into ShardedApt::pt_rows_used (not shard-local), so
/// per-shard coverage sets OR straight into one global CoverageBitmap.
struct AptShard {
  Table table;
  std::vector<int32_t> pt_row;
  size_t pt_begin = 0;
  size_t pt_end = 0;
};

/// \brief A materialized APT as a sequence of row-range shards. The shard
/// tables are never concatenated: concat(shards[i].table for all i) would
/// be byte-identical to the unsharded Apt::table (same rows, same order,
/// same dictionaries — every shard column adopts the dictionary of the same
/// source column), and the miner exploits exactly that equivalence to mine
/// per-shard masks and merge counts. There is always at least one shard
/// (possibly empty) so schema_table() is well defined.
struct ShardedApt {
  std::vector<AptShard> shards;
  /// As Apt::pt_rows_used: the PT rows materialized, original ids, ascending.
  std::vector<int64_t> pt_rows_used;
  size_t num_pt_columns = 0;
  std::vector<int> pattern_cols;
  /// Sum of shard row counts == the unsharded APT's row count.
  size_t total_rows = 0;

  size_t num_rows() const { return total_rows; }
  /// Schema/dictionary carrier: every shard has the identical schema and
  /// shares its dictionaries, so shard 0 answers all schema questions.
  const Table& schema_table() const { return shards.front().table; }
};

/// \brief A borrowed view of one shard (or of a whole unsharded APT, which
/// is just the single-slice case).
struct AptSlice {
  const Table* table = nullptr;
  /// Slice row -> GLOBAL position in the owning set's pt_rows_used.
  const std::vector<int32_t>* pt_row = nullptr;
  size_t num_rows() const { return pt_row->size(); }
};

/// \brief The miner's uniform input: an APT as an ordered list of borrowed
/// slices. MakeSliceSet adapts both Apt (one slice) and ShardedApt (one
/// slice per shard), so every mining stage is written once against slices
/// and is trivially bit-identical across the two representations.
///
/// Dictionary invariant: all slices' columns adopt their dictionaries from
/// the same source columns, so dictionary codes are comparable across
/// slices and consistent with schema_table() — the LCA generator and the
/// pattern kernels rely on this.
struct AptSliceSet {
  std::vector<AptSlice> slices;
  const std::vector<int64_t>* pt_rows_used = nullptr;
  const std::vector<int>* pattern_cols = nullptr;
  size_t num_pt_columns = 0;
  size_t total_rows = 0;
  /// True when the set is a single slice whose pt_row is the identity map
  /// (Apt::PtRowIsIdentity): row masks double as coverage sets.
  bool pt_identity = false;
  /// offsets[si] = global id of slice si's first row; one entry per slice
  /// plus total_rows. Global row ids concatenate the slices in order, so a
  /// sample drawn over total_rows hits the same logical rows at any shard
  /// size.
  std::vector<size_t> offsets;

  const Table& schema_table() const { return *slices.front().table; }

  /// The (slice, slice-local row) of global row id `row` < total_rows.
  std::pair<size_t, size_t> Locate(size_t row) const;
};

/// Borrowing adapters; the source APT must outlive the returned set.
AptSliceSet MakeSliceSet(const Apt& apt);
AptSliceSet MakeSliceSet(const ShardedApt& apt);

/// \brief Observability counters for APT materialization, shared across the
/// per-graph (and per-shard) fan-out of one Explain call. Thread-safe.
struct AptMaterializeMetrics {
  /// High-water mark of the approximate bytes of any single resident join
  /// state (ApproxStateBytes of the base state and of every step output,
  /// built or cache-hit). Under sharding this is bounded by the largest
  /// shard's fan-out rather than the full APT — the memory headline.
  std::atomic<size_t> peak_state_bytes{0};
  /// Total shards materialized (MaterializeApt calls count 1).
  std::atomic<size_t> shards{0};

  void RecordStateBytes(size_t bytes) {
    size_t cur = peak_state_bytes.load(std::memory_order_relaxed);
    while (bytes > cur &&
           !peak_state_bytes.compare_exchange_weak(
               cur, bytes, std::memory_order_relaxed)) {
    }
  }
};

/// Caches and statistics threaded through MaterializeApt.
struct AptMaterializeOptions {
  /// Build-side index cache; nullptr uses a per-call local cache.
  AptIndexCache* index_cache = nullptr;
  /// Prefix-state cache; nullptr disables prefix sharing (states are built
  /// fresh; results are identical either way).
  AptPrefixCache* prefix_cache = nullptr;
  /// Statistics catalog whose thread-safe range tier (SharedRanges) sizes
  /// the kernel indexes; nullptr makes index builds scan key ranges.
  StatsCatalog* stats = nullptr;
  /// 0 = unlimited; otherwise materialization aborts with OutOfRange once a
  /// tree-edge join's output exceeds it — the backstop behind the cost
  /// estimate's inevitable misses.
  size_t row_limit = 0;
  /// Precomputed AptPtFingerprint(pt, pt_rows) (empty = compute per call).
  /// Callers materializing many graphs over one (pt, pt_rows) pair — the
  /// explainer's per-graph fan-out — compute it once instead of re-hashing
  /// the row selection per graph. Must match the pt/pt_rows actually
  /// passed; a stale fingerprint aliases prefix-cache states.
  std::string pt_fingerprint;
  /// Optional observability sink (peak resident state bytes, shard counts);
  /// nullptr disables recording. Shared across threads — it is atomic.
  AptMaterializeMetrics* metrics = nullptr;
  /// Worker pool that MaterializeAptSharded fans shards across; nullptr (or
  /// a single shard, as in MaterializeApt) runs them serially on the
  /// caller.
  WorkerPool* pool = nullptr;
};

/// Stable fingerprint of a (PT, selected rows) pair: the leading component
/// of every prefix-cache key (schema, relations, group-by shape, cached
/// cell-content hash, selected row ids). Exposed so callers can compute it
/// once per question via AptMaterializeOptions::pt_fingerprint.
std::string AptPtFingerprint(const ProvenanceTable& pt,
                             const std::vector<int64_t>& pt_rows);

/// Materializes APT(Q, D, Omega) restricted to the given PT rows, as
/// contiguous row ranges of at most `shard_rows` rows (0 or >= |pt_rows|
/// means a single full-range shard), fanning shards across `options.pool`
/// when one is provided.
///
/// Joins proceed breadth-first from the PT node (the deterministic step
/// order of PlanAptSteps); edges that close a cycle become post-join
/// filters. PT-adjacent join conditions resolve their PT-side attributes
/// through the query relation recorded on the edge. Null join keys never
/// match — including null vs null and middle columns of composite keys — on
/// tree edges and cycle-closing filters alike, matching the executor's
/// contract.
///
/// Equivalence contract (the differential tests' anchor):
///  - concat(shards) is byte-identical to ReferenceMaterializeApt's output
///    — same rows in the same order, same dictionaries, same pattern_cols —
///    at every shard size;
///  - errors are identical too: the per-step row totals summed across
///    shards hit `options.row_limit` exactly when the full-range step
///    output does, and the surfaced Status (message included) matches,
///    regardless of shard size, thread count, or scheduling;
///  - prefix-cache states for partial ranges are keyed with a `|shard:b-e`
///    suffix so they never alias full-range states; the full-range shard
///    uses the plain keys.
Result<ShardedApt> MaterializeAptSharded(const ProvenanceTable& pt,
                                         const std::vector<int64_t>& pt_rows,
                                         const JoinGraph& graph,
                                         const SchemaGraph& schema_graph,
                                         const Database& db,
                                         const AptMaterializeOptions& options,
                                         size_t shard_rows);

/// MaterializeAptSharded with one full-range shard, moved into an Apt.
Result<Apt> MaterializeApt(const ProvenanceTable& pt,
                           const std::vector<int64_t>& pt_rows,
                           const JoinGraph& graph, const SchemaGraph& schema_graph,
                           const Database& db,
                           const AptMaterializeOptions& options);

/// Convenience overload matching the historical signature; `cache` and
/// `row_limit` map onto AptMaterializeOptions (no prefix cache, no stats).
Result<Apt> MaterializeApt(const ProvenanceTable& pt,
                           const std::vector<int64_t>& pt_rows,
                           const JoinGraph& graph, const SchemaGraph& schema_graph,
                           const Database& db, AptIndexCache* cache = nullptr,
                           size_t row_limit = 0);

/// Differential-testing oracle and bench baseline: the scalar
/// implementation (per-row HashRowKey/RowKeysEqual probes against a local
/// flat index per tree edge), kept verbatim. Same results, same errors,
/// same row order as MaterializeAptSharded at any shard size.
Result<Apt> ReferenceMaterializeApt(const ProvenanceTable& pt,
                                    const std::vector<int64_t>& pt_rows,
                                    const JoinGraph& graph,
                                    const SchemaGraph& schema_graph,
                                    const Database& db, size_t row_limit = 0);

}  // namespace cajade

#endif  // CAJADE_MINING_APT_H_
