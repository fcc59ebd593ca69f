#include "orc/stripe_cache.h"

#include <string>

namespace dtl::orc {

StripeCache::StripeCache(size_t capacity_bytes, size_t shards)
    : capacity_bytes_(capacity_bytes == 0 ? 1 : capacity_bytes) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
}

StripeCache* StripeCache::Default() {
  static StripeCache cache;
  return &cache;
}

uint64_t StripeCache::NewOwnerToken() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

StripeCache::Shard& StripeCache::ShardFor(const StripeKey& stripe) {
  // owner/file/stripe mix; the column is left out so one stripe's columns
  // share a shard, and the generation so one file's generations do too.
  const uint64_t h = stripe.owner * 0x9E3779B97F4A7C15ull +
                     stripe.file_id * 1315423911ull + stripe.stripe_index;
  return *shards_[h % shards_.size()];
}

size_t StripeCache::Footprint(const DecodedColumn& column) {
  return column.cells.MemoryBytes();
}

size_t StripeCache::Lookup(const StripeKey& stripe, const std::vector<size_t>& columns,
                           std::vector<DecodedColumnPtr>* out) {
  out->assign(columns.size(), nullptr);
  size_t missing = 0;
  Key key{stripe.owner, stripe.file_id, stripe.generation, stripe.stripe_index, 0};
  Shard& shard = ShardFor(stripe);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t i = 0; i < columns.size(); ++i) {
      key.column = columns[i];
      auto it = shard.index.find(key);
      if (it == shard.index.end()) {
        ++missing;
        continue;
      }
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      (*out)[i] = it->second->column;
    }
  }
  (missing == 0 ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return missing;
}

void StripeCache::Insert(const StripeKey& stripe, const std::vector<size_t>& columns,
                         const std::vector<DecodedColumnPtr>& decoded) {
  std::vector<size_t> charges(columns.size(), 0);
  for (size_t i = 0; i < columns.size(); ++i) {
    if (decoded[i] != nullptr) charges[i] = Footprint(*decoded[i]);
  }
  Shard& shard = ShardFor(stripe);
  std::lock_guard<std::mutex> lock(shard.mu);
  for (size_t i = 0; i < columns.size(); ++i) {
    if (decoded[i] == nullptr) continue;
    Key key{stripe.owner, stripe.file_id, stripe.generation, stripe.stripe_index,
            columns[i]};
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Refresh in place (a concurrent reader decoded the same column).
      shard.bytes -= it->second->charge;
      bytes_.fetch_sub(it->second->charge, std::memory_order_relaxed);
      it->second->charge = charges[i];
      it->second->column = decoded[i];
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      entries_.fetch_add(1, std::memory_order_relaxed);
      shard.lru.push_front(Entry{key, decoded[i], charges[i]});
      shard.index.emplace(key, shard.lru.begin());
    }
    shard.bytes += charges[i];
    bytes_.fetch_add(charges[i], std::memory_order_relaxed);
  }
  // Per-shard capacity slice keeps eviction shard-local (no global lock).
  const size_t shard_capacity = capacity_bytes_ / shards_.size() + 1;
  while (shard.bytes > shard_capacity && shard.lru.size() > 1) {
    Entry& victim = shard.lru.back();
    shard.bytes -= victim.charge;
    bytes_.fetch_sub(victim.charge, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    shard.index.erase(victim.key);
    shard.lru.pop_back();
  }
}

template <typename Same>
void StripeCache::EraseRangeLocked(Shard& shard, const Key& from, Same same) {
  auto it = shard.index.lower_bound(from);
  while (it != shard.index.end() && same(it->first)) {
    const Entry& entry = *it->second;
    shard.bytes -= entry.charge;
    bytes_.fetch_sub(entry.charge, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    shard.lru.erase(it->second);
    it = shard.index.erase(it);
  }
}

void StripeCache::EraseOwner(uint64_t owner) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    EraseRangeLocked(*shard, Key{owner, 0, 0, 0, 0},
                     [owner](const Key& k) { return k.owner == owner; });
  }
}

void StripeCache::EraseFile(uint64_t owner, uint64_t file_id) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    EraseRangeLocked(*shard, Key{owner, file_id, 0, 0, 0},
                     [owner, file_id](const Key& k) {
                       return k.owner == owner && k.file_id == file_id;
                     });
  }
}

StripeCacheStats StripeCache::Stats() const {
  StripeCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace dtl::orc
