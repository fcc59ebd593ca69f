// The Attached Table (paper §III-B, §V-B): an HBase-backed store of record
// modifications, keyed by record ID. UPDATE information is stored as
// (record-ID row, updated column's ordinal as qualifier, encoded new value);
// DELETE information is a special marker cell in the deleted record's row.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "fs/filesystem.h"
#include "kv/store.h"

namespace dtl::dual {

/// Qualifier of the paper's "special HBase cell" delete marker; sorts after
/// every real column ordinal but before the KV-level row tombstone.
inline constexpr uint32_t kDeleteMarkerQualifier = 0xFFFFFFFEu;

/// Visible modification state of one record. Its updates are a flat run in
/// ascending column order: update `i` sets column(i) to the value whose
/// Value::EncodeTo bytes are value_bytes(i). Nothing is decoded until a
/// reader asks, so a reader decodes only the columns it needs, straight into
/// its own storage. A scanner reuses one RecordModification for every
/// record, so filling it allocates nothing once its buffers have grown.
class RecordModification {
 public:
  uint64_t record_id = 0;
  bool deleted = false;

  size_t num_updates() const { return updates_.size(); }
  uint32_t column(size_t i) const { return updates_[i].column; }
  Slice value_bytes(size_t i) const {
    const uint32_t begin = i == 0 ? 0 : updates_[i - 1].end;
    return Slice(bytes_.data() + begin, updates_[i].end - begin);
  }
  /// Decodes update `i` into `*out`.
  Status DecodeValue(size_t i, Value* out) const {
    Slice in = value_bytes(i);
    return Value::DecodeFrom(&in, out);
  }

  /// Empties the run for `id`, keeping the buffers' capacity.
  void Reset(uint64_t id) {
    record_id = id;
    deleted = false;
    updates_.clear();
    bytes_.clear();
  }
  /// Appends an update; columns must arrive in ascending order.
  void AddUpdate(uint32_t column, Slice encoded) {
    bytes_.append(encoded.data(), encoded.size());
    updates_.push_back({column, static_cast<uint32_t>(bytes_.size())});
  }

 private:
  struct Update {
    uint32_t column;
    uint32_t end;  // end offset of the encoded value in bytes_
  };
  std::vector<Update> updates_;
  std::string bytes_;
};

/// Sorted stream of record modifications (ascending record ID), bounded to
/// [start_id, end_id).
class ModificationScanner {
 public:
  bool Next();
  /// The current record's modification, valid until the next Next().
  const RecordModification& modification() const { return mod_; }
  const Status& status() const { return status_; }

 private:
  friend class AttachedTable;
  ModificationScanner(std::unique_ptr<kv::RowScanner> rows, uint64_t end_id)
      : rows_(std::move(rows)), end_id_(end_id) {}

  std::unique_ptr<kv::RowScanner> rows_;
  uint64_t end_id_;
  RecordModification mod_;
  Status status_;
};

/// One DualTable's attached store.
class AttachedTable {
 public:
  static Result<std::unique_ptr<AttachedTable>> Open(fs::SimFileSystem* fs,
                                                     const std::string& table_name,
                                                     kv::KvStoreOptions base_options = {});

  /// EDIT-plan UPDATE: stores the new value of `column` for the record.
  Status PutUpdate(uint64_t record_id, uint32_t column, const Value& value);

  /// EDIT-plan DELETE: stores the delete marker for the record.
  Status PutDeleteMarker(uint64_t record_id);

  /// Random read of one record's visible modification state in the pinned
  /// KV state; nullopt when the record has no attached data. This is the
  /// random-read capability the paper credits for making UNION READ
  /// efficient. Index point lookups patch candidate rows through this, so
  /// the patched values match what a UNION READ scan under the same
  /// snapshot would produce.
  Result<std::optional<RecordModification>> GetModificationAt(
      const kv::KvSnapshot& snapshot, uint64_t record_id) const;

  /// Sorted scan over [start_id, end_id) of exactly the pinned KV state,
  /// resolved at snapshot.read_ts. Concurrent EDITs, flushes, compactions,
  /// and Clear()s are invisible. A time-travel read pins a snapshot whose
  /// read_ts is clamped to the past timestamp (history written before the
  /// last Clear()/Compact() is not reconstructible).
  std::unique_ptr<ModificationScanner> NewScannerAt(const kv::KvSnapshot& snapshot,
                                                    uint64_t start_id = 0,
                                                    uint64_t end_id = UINT64_MAX) const;

  /// Store timestamp of the most recent modification; a snapshot clamped to
  /// it reads the state "now".
  uint64_t LastTimestamp() const { return store_->LastTimestamp(); }

  /// Change history of one cell via HBase multi-versioning (paper §V-C):
  /// (timestamp, value) pairs, newest first.
  Status GetUpdateHistory(uint64_t record_id, uint32_t column, int max_versions,
                          std::vector<std::pair<uint64_t, Value>>* out);

  /// Number of modification cells currently stored.
  uint64_t ApproximateCellCount() const { return store_->ApproximateCellCount(); }
  uint64_t ApproximateBytes() const { return store_->ApproximateBytes(); }
  bool Empty() const { return store_->ApproximateCellCount() == 0; }

  /// Forces the backing WAL to durable storage. DualTable calls this before
  /// acknowledging an EDIT-plan statement so acknowledged modifications
  /// survive a crash.
  Status Sync() { return store_->SyncWal(); }

  /// Drops all modifications (after COMPACT or an OVERWRITE plan).
  Status Clear() { return store_->Clear(); }

  /// Removes backing storage entirely.
  Status Drop();

  kv::KvStore* store() { return store_.get(); }

 private:
  AttachedTable(fs::SimFileSystem* fs, std::string dir,
                std::unique_ptr<kv::KvStore> store)
      : fs_(fs), dir_(std::move(dir)), store_(std::move(store)) {}

  fs::SimFileSystem* fs_;
  std::string dir_;
  std::unique_ptr<kv::KvStore> store_;
};

}  // namespace dtl::dual
