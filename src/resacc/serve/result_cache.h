#ifndef RESACC_SERVE_RESULT_CACHE_H_
#define RESACC_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "resacc/core/resacc_solver.h"
#include "resacc/core/rwr_config.h"
#include "resacc/core/topk.h"
#include "resacc/util/types.h"

namespace resacc {

// Cache key: the query source plus a hash of everything else that
// determines the answer (RwrConfig + ResAccOptions, including the seed —
// the solver is deterministic given those). Two services with different
// configurations can therefore share one cache without cross-talk.
//
// `epoch` pins the entry to a graph content version (dynamic graphs:
// MutableGraphView::epoch()). A lookup at the live epoch can never return
// a vector computed against different edges — after a mutation batch the
// serving layer either promotes entries to the new epoch (when their
// influence bound stays within budget, see InvalidateEpoch) or leaves
// them behind to age out. Static deployments leave it 0. Compaction
// changes the *generation* (physical base), not the epoch (content), so
// cached entries survive compaction swaps untouched.
struct CacheKey {
  std::uint64_t config_hash = 0;
  NodeId source = 0;
  std::uint64_t epoch = 0;

  bool operator==(const CacheKey& other) const {
    return config_hash == other.config_hash && source == other.source &&
           epoch == other.epoch;
  }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const {
    std::uint64_t h = key.config_hash ^
                      (static_cast<std::uint64_t>(key.source) + 1) *
                          0x9e3779b97f4a7c15ULL;
    h ^= (key.epoch + 1) * 0xc2b2ae3d27d4eb4fULL;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};

// FNV-1a over the numeric fields of the query configuration; the cache key
// half that makes cached vectors safe to reuse across service restarts.
std::uint64_t HashQueryConfig(const RwrConfig& config,
                              const ResAccOptions& options);

// Sharded LRU cache of RWR results under a global byte budget. An entry
// holds EITHER a full score vector OR a TopKResult (never both): Insert
// of a full vector upgrades a top-k entry in place, InsertTopK never
// downgrades a full one (see the k-superset rules on the methods).
//
// Values are shared immutable payloads: a hit hands out the same
// shared_ptr the computing worker inserted, so eviction never invalidates
// a response a client still holds. Sharding (key-hash modulo) keeps the
// LRU mutex off the serving hot path's critical section — each shard has
// its own lock and an equal slice of the byte budget.
//
// Thread-safe. Byte accounting counts the payload only (n * sizeof(Score)
// per full entry, entries * sizeof(TopKEntry) per top-k entry); an entry
// larger than a shard's budget is simply not cached.
class ResultCache {
 public:
  using Value = std::shared_ptr<const std::vector<Score>>;
  using TopKValue = std::shared_ptr<const TopKResult>;

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t bytes = 0;
    std::size_t entries = 0;
  };

  // max_bytes == 0 disables caching entirely (Lookup always misses).
  ResultCache(std::size_t max_bytes, std::size_t num_shards);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // Returns the cached vector (marking the entry most-recently-used) or
  // nullptr on miss. Top-k-only entries do NOT satisfy a full-vector
  // lookup (they will be upgraded by the recompute's Insert).
  Value Lookup(const CacheKey& key);

  // A top-k probe hit: exactly one of `scores` (the entry held a full
  // vector — a superset of any top-k) or `topk` (a stored top-k' result
  // whose k-prefix satisfies the probe, TopKPrefixSatisfies) is set.
  // Both are null on a miss.
  struct TopKHit {
    Value scores;
    TopKValue topk;
  };

  // Lookup for a top-k probe: hits a full entry outright, or a top-k'
  // entry with k' >= k whose prefix separates (certified) / any prefix
  // (approximate). A stored top-k' whose prefix cannot answer k counts as
  // a miss — the caller recomputes and InsertTopK refreshes.
  TopKHit LookupTopK(const CacheKey& key, std::size_t k);

  // Inserts or refreshes `value`, evicting LRU entries as needed to stay
  // within the shard's byte budget. Replaces a top-k entry under the same
  // key (a full vector answers strictly more probes).
  void Insert(const CacheKey& key, Value value);

  // Inserts a top-k result. Skipped when the key already holds a full
  // vector (never downgrade) or a top-k' with k' > value->k (the stored
  // entry answers a superset of probes); otherwise inserts/refreshes.
  void InsertTopK(const CacheKey& key, TopKValue value);

  // Epoch transition for one configuration (dynamic graphs). Visits every
  // entry with {config_hash, epoch == old_epoch} and either
  //   * promotes it — rekeys to new_epoch in place — when the batch's
  //     influence on this entry (influence(scores), see
  //     dynamic/invalidation.h) keeps its cumulative drift within
  //     `drift_budget`, or
  //   * drops it (flush_all set, budget exceeded, or influence infinite).
  // Promotion accumulates: an entry's drift is the sum of the influence
  // bounds of every batch it survived, so the slackened guarantee holds
  // against the entry's *original* computation, not just the last epoch.
  // Entries are rekeyed within their shard (shard choice ignores the
  // epoch), so no cross-shard locking happens.
  struct InvalidationStats {
    std::size_t promoted = 0;
    std::size_t dropped = 0;
  };
  using InfluenceFn = std::function<double(const std::vector<Score>&)>;
  InvalidationStats InvalidateEpoch(std::uint64_t config_hash,
                                    std::uint64_t old_epoch,
                                    std::uint64_t new_epoch,
                                    double drift_budget,
                                    const InfluenceFn& influence,
                                    bool flush_all = false);

  void Clear();

  Counters counters() const;

  std::size_t max_bytes() const { return max_bytes_; }
  std::size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    CacheKey key;
    Value value;      // full entries: the score vector (else nullptr)
    TopKValue topk;   // top-k entries: the certified/approximate result
    std::size_t bytes = 0;
    // Cumulative L1 perturbation bound accrued across the epoch
    // promotions this entry survived (InvalidateEpoch).
    double drift = 0.0;
  };
  struct Shard {
    std::mutex mutex;
    // Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        index;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  // Evicts from the LRU tail until the shard is back under budget (plus
  // the chaos eviction site). Caller holds the shard mutex.
  void EvictOverBudget(Shard& shard);

  // Shard choice deliberately ignores the epoch so InvalidateEpoch can
  // rekey an entry to a new epoch without moving it across shards.
  Shard& ShardFor(const CacheKey& key) {
    const CacheKey epochless{key.config_hash, key.source, 0};
    return *shards_[CacheKeyHash()(epochless) % shards_.size()];
  }

  std::size_t max_bytes_;
  std::size_t shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace resacc

#endif  // RESACC_SERVE_RESULT_CACHE_H_
