// Process-wide sharded LRU cache of decoded stripe columns (LLAP-style):
// decoded data is shared across every reader, session, scan and projection in
// the process, so a column is decoded once whichever query asks for it, and
// a hot working set is served from memory thereafter.
//
// Key design: file IDs are unique within one MetadataTable but CAN collide
// across independent DualTable universes in one process (tests open many
// SimFileSystems), and a COMPACT may produce a new file under a recycled
// path. The key is therefore (owner, file_id, generation, stripe, column):
// `owner` is a process-unique token per MasterTable, and `generation` is the
// master generation number that first registered the file — a post-COMPACT
// replacement file gets a fresh file_id AND a fresh generation, so a stale
// pre-swap column can never be served for it.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "orc/reader.h"

namespace dtl::orc {

/// Snapshot of one cache's counters (relaxed reads).
struct StripeCacheStats {
  uint64_t hits = 0;       // stripe reads served without decoding anything
  uint64_t misses = 0;     // stripe reads that decoded at least one column
  uint64_t bytes = 0;      // real memory of the resident decoded columns
  uint64_t entries = 0;    // decoded columns currently resident
  uint64_t evictions = 0;  // entries dropped to stay under capacity

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Identity of one stripe of one file of one table (see file comment).
struct StripeKey {
  uint64_t owner = 0;
  uint64_t file_id = 0;
  uint64_t generation = 0;
  size_t stripe_index = 0;
};

/// Sharded LRU over decoded columns, keyed by
/// (owner, file_id, generation, stripe_index, column). Thread-safe. Every
/// column of one stripe lives in the same shard, so a projection is looked up
/// (and its missing columns inserted) under one shard mutex. Capacity is
/// measured in real bytes — the typed arrays, validity bitmap and string
/// arena of each column — evicting least-recently-used entries shard-locally.
class StripeCache {
 public:
  explicit StripeCache(size_t capacity_bytes = 64ull << 20, size_t shards = 8);

  /// The process-wide instance every MasterTable uses unless its options
  /// inject a private one (tests size theirs small to force eviction).
  static StripeCache* Default();

  /// Allocates a process-unique owner token (one per MasterTable).
  static uint64_t NewOwnerToken();

  /// One stripe read: sets `(*out)[i]` to the cached column `columns[i]` of
  /// `stripe`, or nullptr when it is not resident, and promotes every entry
  /// found. Counts a hit when every column was found, else a miss. Returns
  /// the number of columns not found.
  size_t Lookup(const StripeKey& stripe, const std::vector<size_t>& columns,
                std::vector<DecodedColumnPtr>* out);

  /// Inserts (or refreshes) decoded column `columns[i]` = `decoded[i]` of
  /// `stripe`, evicting LRU entries if needed.
  void Insert(const StripeKey& stripe, const std::vector<size_t>& columns,
              const std::vector<DecodedColumnPtr>& decoded);

  /// Drops every entry belonging to `owner` (table drop / destruction).
  void EraseOwner(uint64_t owner);

  /// Drops every entry of one file of `owner`, whatever its generation or
  /// stripe (the file was deleted, so its keys can never be hit again).
  void EraseFile(uint64_t owner, uint64_t file_id);

  StripeCacheStats Stats() const;

  size_t capacity_bytes() const { return capacity_bytes_; }

  /// Real memory one decoded column occupies: the capacity of its typed
  /// array (8 bytes per int64, date, double or string cell, 1 per bool), its
  /// validity bitmap and its string arena.
  static size_t Footprint(const DecodedColumn& column);

 private:
  struct Key {
    uint64_t owner = 0;
    uint64_t file_id = 0;
    uint64_t generation = 0;
    size_t stripe_index = 0;
    size_t column = 0;

    bool operator<(const Key& rhs) const {
      if (owner != rhs.owner) return owner < rhs.owner;
      if (file_id != rhs.file_id) return file_id < rhs.file_id;
      if (generation != rhs.generation) return generation < rhs.generation;
      if (stripe_index != rhs.stripe_index) return stripe_index < rhs.stripe_index;
      return column < rhs.column;
    }
  };

  struct Entry {
    Key key;
    DecodedColumnPtr column;
    size_t charge = 0;  // bytes this entry counts against capacity
  };

  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::map<Key, std::list<Entry>::iterator> index;
    size_t bytes = 0;
  };

  Shard& ShardFor(const StripeKey& stripe);
  /// Drops the entries of `shard` from key `from` onward while `same` holds
  /// for their keys; caller holds the shard mutex.
  template <typename Same>
  void EraseRangeLocked(Shard& shard, const Key& from, Same same);

  const size_t capacity_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> entries_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace dtl::orc
