// In-memory write buffer of the KV store: a skip list of cells in CellKey
// order, flushed to an SSTable when it exceeds the configured size.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/skiplist.h"
#include "kv/cell.h"

namespace dtl::kv {

/// Sorted in-memory cell buffer. Single writer (the store serializes Add
/// under its mutex); concurrent readers may iterate without locking — the
/// underlying skip list publishes nodes with release/acquire links.
class MemTable {
 public:
  MemTable() : list_(CellKeyCompare()) {}

  void Add(const Cell& cell) {
    approximate_bytes_.fetch_add(cell.ByteSize(), std::memory_order_relaxed);
    list_.Insert(cell.key, cell.value);
  }

  size_t approximate_bytes() const {
    return approximate_bytes_.load(std::memory_order_relaxed);
  }
  size_t cell_count() const { return list_.size(); }
  bool empty() const { return list_.empty(); }

  using List = SkipList<CellKey, CellValue, CellKeyCompare>;

  /// Iterator over cells in key order.
  class Iterator {
   public:
    explicit Iterator(const MemTable* mem) : it_(&mem->list_) {}
    bool Valid() const { return it_.Valid(); }
    void SeekToFirst() { it_.SeekToFirst(); }
    void Seek(const CellKey& target) { it_.Seek(target); }
    void Next() { it_.Next(); }
    const CellKey& key() const { return it_.key(); }
    const CellValue& value() const { return it_.value(); }
    Cell cell() const { return Cell{key(), value()}; }

   private:
    List::Iterator it_;
  };

 private:
  friend class Iterator;
  List list_;
  std::atomic<size_t> approximate_bytes_{0};
};

}  // namespace dtl::kv
