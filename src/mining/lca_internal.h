// Internal to the LCA generator: the signature map whose iteration order
// fixes the order of candidates with equal pair counts. Shared with the
// test-only per-pair oracle so both count into the same map type and hash;
// not part of the library API.
//
// Ownership and thread-safety: type definitions only, no state; a map
// instance is owned by the call that builds it.

#ifndef CAJADE_MINING_LCA_INTERNAL_H_
#define CAJADE_MINING_LCA_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace cajade {

/// Hash of a candidate signature: one dictionary code per categorical
/// column, -1 where the meet leaves the column free.
struct LcaSigHash {
  size_t operator()(const std::vector<int32_t>& v) const {
    size_t h = 0x3456;
    for (int32_t x : v) {
      h ^= static_cast<size_t>(x) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

/// Signature -> pair count. Its iteration order depends only on the order
/// in which distinct signatures are first inserted.
using LcaSigCounts = std::unordered_map<std::vector<int32_t>, int64_t, LcaSigHash>;

}  // namespace cajade

#endif  // CAJADE_MINING_LCA_INTERNAL_H_
