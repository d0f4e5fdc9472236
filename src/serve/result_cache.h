// Request-level result cache for the serving layer: complete ranked
// explanation lists keyed by (query, question) and tagged with the
// provenance content fingerprint.
//
// The cache deliberately does NOT trust its keys across data changes. A key
// only says "same request"; whether the cached answer is still right depends
// on the base tables, so every entry is tagged with the AptPtFingerprint of
// the provenance it was computed from, and every lookup presents the
// fingerprint the current request just computed (ExplainServer runs
// Explainer::Prepare — provenance + question resolution, the cheap front
// half — on every request). Equal fingerprints imply bit-identical
// explanations for the server's fixed config and seed, so a hit can skip
// enumeration, APT materialization, and mining; a mismatch means some
// base-table change altered the selected provenance, and the entry is
// invalidated on the spot (SharedLruCache's tag rule).
//
// Ownership and thread-safety: ResultCache is a SharedLruCache
// (src/common/shared_lru_cache.h): it owns its entries, hands results out
// as shared_ptr snapshots, and is safe for concurrent use — N clients
// asking the same question at once produce one mining run and N-1 waiters.

#ifndef CAJADE_SERVE_RESULT_CACHE_H_
#define CAJADE_SERVE_RESULT_CACHE_H_

#include <cstddef>

#include "src/common/shared_lru_cache.h"
#include "src/core/explainer.h"

namespace cajade {

/// Approximate heap footprint of a result (query-result column buffers +
/// explanation strings); the byte unit of ResultCache.
size_t ApproxResultBytes(const ExplainResult& result);

/// \brief Fingerprint-tagged LRU cache of ExplainResults.
using ResultCache = SharedLruCache<ExplainResult, &ApproxResultBytes>;

}  // namespace cajade

#endif  // CAJADE_SERVE_RESULT_CACHE_H_
