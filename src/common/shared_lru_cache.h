// The engine's one cache protocol: a single-flight, byte-bounded LRU map
// from string keys to immutable shared values.
//
// Every cache in the system is an instance of SharedLruCache:
//  - AptIndexCache (src/mining/apt.h): build-side join indexes per
//    (relation@content_version, key columns);
//  - AptPrefixCache (src/mining/apt.h): APT join states per graph prefix;
//  - ResultCache (src/serve/result_cache.h): whole ExplainResults per
//    (query, question), tagged with the provenance fingerprint.
//
// The protocol, stated once:
//  - Single flight. Each key is built at most once at a time: the first
//    caller runs `build` outside the lock, later callers for the same key
//    block on the entry's std::shared_future and share its value. Builds of
//    different keys run in parallel, and a build may itself call
//    GetOrBuild on another key (a prefix builds on its parent prefix).
//  - Failures are never cached. A non-OK Status or an exception from
//    `build` reaches the builder and every waiter of that flight — the
//    exception itself is rethrown, so each waiter's own handler formats it
//    exactly as if it had built, whichever caller won the race — and the
//    entry is dropped so a later call rebuilds.
//  - Tags. An entry remembers the tag it was built under. A caller
//    presenting a different tag invalidates the entry, even one still being
//    built, and builds its own. The detached flight still serves its own
//    waiters but is not retained and never displaces its replacement.
//  - Byte-bounded LRU. Each resident entry is charged
//    Bytes(value) + key.size() + tag.size(); above max_bytes the least
//    recently used entries are evicted, the one just inserted included.
//    Eviction and invalidation only drop the cache's reference: callers
//    hold values by shared_ptr and keep them alive.
//
// Ownership and thread-safety: the cache owns its entries and hands values
// out as shared_ptr<const V> snapshots. All methods are safe to call from
// any number of threads. The map, the LRU list and the byte accounting are
// GUARDED_BY(mu_); entry payloads are written once by the building thread
// before it fulfils the entry's promise and only read by waiters after the
// future is ready (see Entry). Checked by the thread-safety CI leg.

#ifndef CAJADE_COMMON_SHARED_LRU_CACHE_H_
#define CAJADE_COMMON_SHARED_LRU_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace cajade {

/// \brief Single-flight, byte-bounded LRU cache of immutable values (the
/// protocol is described in the file comment). `Bytes` is the approximate
/// heap footprint of one value, the unit of the byte bound.
template <typename V, size_t (*Bytes)(const V&)>
class SharedLruCache {
 public:
  using ValuePtr = std::shared_ptr<const V>;
  using Builder = std::function<Result<V>()>;

  static constexpr size_t kDefaultMaxBytes = size_t{256} << 20;  // 256 MiB

  explicit SharedLruCache(size_t max_bytes = kDefaultMaxBytes)
      : max_bytes_(max_bytes) {}

  /// Returns the value cached under `key` for `tag`, running `build` when
  /// there is none (or the entry carries another tag). Blocks while another
  /// caller builds the same key and tag, then shares its outcome.
  Result<ValuePtr> GetOrBuild(const std::string& key, const Builder& build,
                              const std::string& tag = "") EXCLUDES(mu_) {
    std::shared_ptr<Entry> entry;
    bool builder = false;
    {
      MutexLock lock(mu_);
      auto it = map_.find(key);
      if (it != map_.end() && it->second->tag != tag) {
        // The entry answers another version of this key: detach it, in
        // flight or not. A detached flight keeps running for the waiters
        // that joined it under the old tag. (Passed as a copy: the erase
        // inside destroys the map's reference.)
        DetachIfCurrentLocked(key, std::shared_ptr<Entry>(it->second));
        invalidations_.fetch_add(1, std::memory_order_relaxed);
        it = map_.end();
      }
      if (it != map_.end()) {
        entry = it->second;
      } else {
        entry = std::make_shared<Entry>();
        entry->tag = tag;
        map_.emplace(key, entry);
        builder = true;
      }
    }

    if (!builder) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      // The future's release/acquire pair orders the builder's writes to
      // the entry payload before these reads.
      entry->ready.wait();
      if (entry->exception != nullptr) {
        std::rethrow_exception(entry->exception);
      }
      if (!entry->status.ok()) return entry->status;
      MutexLock lock(mu_);
      if (entry->in_lru) lru_.splice(lru_.begin(), lru_, entry->lru_it);
      return entry->value;
    }

    misses_.fetch_add(1, std::memory_order_relaxed);
    std::exception_ptr thrown;
    Result<V> built = [&]() -> Result<V> {
      try {
        return build();
      } catch (...) {
        thrown = std::current_exception();
        return Status::Internal("cache build threw");
      }
    }();
    if (thrown != nullptr || !built.ok()) {
      // Not cached: a row-limit abort under one caller's cap must not
      // poison a caller with a larger one. Without fulfilling the promise
      // the waiters would block forever.
      {
        MutexLock lock(mu_);
        DetachIfCurrentLocked(key, entry);
      }
      entry->exception = thrown;
      entry->status = built.status();
      entry->ready_promise.set_value();
      if (thrown != nullptr) std::rethrow_exception(thrown);
      return built.status();
    }

    auto value = std::make_shared<const V>(std::move(built).MoveValue());
    entry->value = value;
    entry->bytes = Bytes(*value) + key.size() + tag.size();
    builds_.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(mu_);
      auto it = map_.find(key);
      if (it != map_.end() && it->second == entry) {
        lru_.push_front(key);
        entry->lru_it = lru_.begin();
        entry->in_lru = true;
        bytes_ += entry->bytes;
        peak_bytes_ = std::max(peak_bytes_, bytes_);
        EvictOverLimitLocked();
      }
      // else: invalidated while building — serve this flight, retain
      // nothing.
    }
    entry->ready_promise.set_value();
    return value;
  }

  /// Adjusts the memory bound, evicting LRU entries if now over it.
  void set_max_bytes(size_t max_bytes) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    max_bytes_ = max_bytes;
    EvictOverLimitLocked();
  }
  size_t max_bytes() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return max_bytes_;
  }
  /// Bytes charged to resident entries.
  size_t bytes_in_use() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return bytes_;
  }
  /// High-water mark of bytes_in_use() since construction, counted before
  /// eviction, so an entry larger than the bound still registers.
  size_t peak_bytes() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return peak_bytes_;
  }

  /// Calls that joined an existing entry, ready or in flight.
  size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// Calls that ran `build`; hits() + misses() = GetOrBuild calls.
  size_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Successful builds, retained or not.
  size_t builds() const { return builds_.load(std::memory_order_relaxed); }
  /// Entries dropped because a caller presented a different tag. Each one
  /// is also counted as that caller's miss.
  size_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }
  /// Entries dropped by the byte bound.
  size_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  /// Payload fields are protected by the shared_future protocol, not mu_:
  /// only the building thread writes value/status/exception/bytes, before
  /// fulfilling ready_promise, and waiters read them after ready.wait().
  /// `tag` is fixed before the entry is published. in_lru/lru_it are the
  /// exception: they are touched only inside mu_ critical sections,
  /// together with lru_.
  struct Entry {
    std::promise<void> ready_promise;
    std::shared_future<void> ready = ready_promise.get_future().share();
    std::string tag;
    /// Null when the build failed.
    ValuePtr value;
    Status status = Status::OK();
    std::exception_ptr exception;
    size_t bytes = 0;
    bool in_lru = false;
    std::list<std::string>::iterator lru_it;
  };

  void EvictOverLimitLocked() REQUIRES(mu_) {
    while (bytes_ > max_bytes_ && !lru_.empty()) {
      // Only resident entries are in the LRU list, so the lookup hits.
      auto it = map_.find(lru_.back());
      bytes_ -= it->second->bytes;
      it->second->in_lru = false;
      map_.erase(it);
      lru_.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Removes `entry` from the map, and from the LRU accounting if it is
  /// resident, iff it is still the entry held under `key`: a flight that a
  /// tag change detached must not displace its replacement.
  void DetachIfCurrentLocked(const std::string& key,
                             const std::shared_ptr<Entry>& entry)
      REQUIRES(mu_) {
    auto it = map_.find(key);
    if (it == map_.end() || it->second != entry) return;
    if (entry->in_lru) {
      bytes_ -= entry->bytes;
      lru_.erase(entry->lru_it);
      entry->in_lru = false;
    }
    map_.erase(it);
  }

  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> map_
      GUARDED_BY(mu_);
  /// Most-recently-used first; holds only resident (built) entries.
  std::list<std::string> lru_ GUARDED_BY(mu_);
  size_t max_bytes_ GUARDED_BY(mu_);
  size_t bytes_ GUARDED_BY(mu_) = 0;
  size_t peak_bytes_ GUARDED_BY(mu_) = 0;
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
  std::atomic<size_t> builds_{0};
  std::atomic<size_t> invalidations_{0};
  std::atomic<size_t> evictions_{0};
};

}  // namespace cajade

#endif  // CAJADE_COMMON_SHARED_LRU_CACHE_H_
