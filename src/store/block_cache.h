#pragma once

// Sharded LRU cache of decoded SSTable blocks.
//
// Keys are (table id, block index); values are shared immutable
// `DecodedBlock`s, so a cached block can be handed to any number of
// concurrent readers while an eviction merely drops one reference. The
// cache is split into shards, each with its own mutex and LRU list, so the
// read storm the engine is built for does not serialize on one lock; block
// decoding always happens *outside* the shard lock (the caller decodes on
// miss and calls Insert).
//
// Shard locks rank last in the store hierarchy (lockrank::kStoreBlockCache):
// both the lock-free read path and the compaction write path touch them
// while holding nothing, or anything, above.
//
// Hit/miss/eviction totals are tracked in lock-free counters and read
// through GetStats().

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "store/sstable.h"
#include "util/lock_ranks.h"
#include "util/sync.h"

namespace metro::store {

class BlockCache {
 public:
  struct Config {
    std::size_t capacity_bytes = 8u << 20;
    std::size_t shards = 8;  ///< rounded up to a power of two
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t charge_bytes = 0;
    std::size_t entries = 0;
  };

  BlockCache() : BlockCache(Config{}) {}
  explicit BlockCache(Config config);

  /// Cached block, or null on miss. Promotes the entry to most-recent.
  std::shared_ptr<const DecodedBlock> Lookup(std::uint64_t table_id,
                                             std::uint32_t block_index);

  /// Inserts (or replaces) a decoded block, evicting least-recently-used
  /// entries from the shard until it fits its capacity slice.
  void Insert(std::uint64_t table_id, std::uint32_t block_index,
              std::shared_ptr<const DecodedBlock> block);

  Stats GetStats() const;

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::shared_ptr<const DecodedBlock> block;
  };
  struct Shard {
    // Tree-unique field name: metrolint resolves lock identities by field.
    mutable Mutex cache_mu{lockrank::kStoreBlockCache, "store.block_cache"};
    std::list<Entry> lru METRO_GUARDED_BY(cache_mu);  ///< front = most recent
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> map
        METRO_GUARDED_BY(cache_mu);
    std::size_t charge METRO_GUARDED_BY(cache_mu) = 0;
  };

  static std::uint64_t Key(std::uint64_t table_id, std::uint32_t block_index) {
    return (table_id << 20) | (block_index & 0xfffffu);
  }
  Shard& ShardFor(std::uint64_t key) {
    return shards_[(key * 0x9e3779b97f4a7c15ull >> 32) % shards_.size()];
  }

  std::size_t shard_capacity_;
  std::vector<Shard> shards_;
  // Every Lookup bumps a counter and reads shards_; a line of their own
  // keeps the readers' increments from invalidating shards_.
  alignas(64) std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0}, insertions_{0}, evictions_{0};
};

}  // namespace metro::store
