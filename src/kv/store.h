// KvStore: the HBase-analog LSM store. Writes go to the WAL, then the
// memtable; flushes produce SSTables; size-tiered compaction folds SSTables
// together. Reads merge the memtable with all SSTables, newest first, and
// resolve multi-version cells and tombstones with HBase visibility rules.
//
// One KvStore corresponds to one HBase table (a single region — the paper's
// attached tables are keyed by dense numeric record IDs, so range splitting
// adds nothing to the reproduced behaviour and is left out).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/background_scheduler.h"
#include "common/status.h"
#include "fs/filesystem.h"
#include "kv/cell.h"
#include "kv/memtable.h"
#include "kv/sstable.h"
#include "kv/wal.h"

namespace dtl::kv {

/// Qualifier reserved for whole-row delete tombstones; sorts after every
/// application qualifier within a row.
inline constexpr uint32_t kRowTombstoneQualifier = 0xFFFFFFFFu;

struct KvStoreOptions {
  std::string dir;  // e.g. "/hbase/<table>"; must be under the HBase prefix
  size_t memtable_flush_bytes = 8ull << 20;
  int l0_compaction_trigger = 8;
  /// Versions retained per (row, qualifier) through compaction; HBase's
  /// multi-version feature, used to track data change history (paper §V-C).
  int max_versions = 3;
  size_t wal_sync_interval_bytes = 256 * 1024;
  /// Simulated client-side per-put latency (RPC + group-commit share) in
  /// microseconds. An in-process store has no network, so this knob restores
  /// the per-record write cost that real HBase clients pay; benches enable
  /// it, tests leave it at 0. Applied in coarse batches to keep sleeps
  /// accurate.
  double put_latency_micros = 0.0;
  /// When set, size-tiered compaction moves off the write path: WriteCell
  /// still flushes inline (the memtable must not grow unbounded) but leaves
  /// SSTable merging to a scheduler poll job, mirroring HBase's background
  /// compactor threads. nullptr = compact inline on the write path.
  std::shared_ptr<BackgroundScheduler> scheduler;
};

/// Raw merged view over memtable + SSTables: every stored cell (including
/// tombstones and shadowed versions) in CellKey order. The scanner holds its
/// memtable and SSTables alive (shared ownership), so it stays valid across
/// a concurrent flush, compaction, or Clear(); it observes the store as of
/// its creation plus whatever memtable inserts land in the key range ahead
/// of its cursor (the skip list supports lock-free readers).
///
/// The merge compares keys in place and copies nothing: the current cell
/// stays in the source that holds it until Next(). A key held by several
/// sources (a WAL replay can leave a memtable copy of a flushed cell) is
/// emitted once, from the newest source. No single source holds a key twice
/// (the memtable overwrites in place; SSTables are written from one such
/// sorted stream).
class CellScanner {
 public:
  ~CellScanner();  // out-of-line: Source is incomplete here

  bool Valid() const { return valid_; }
  void Next();
  /// The current key, by reference; valid until Next().
  const CellKey& key() const;
  /// Copies the current cell into `*out`, reusing its string capacity.
  void CopyTo(Cell* out) const;
  const Status& status() const { return status_; }

 private:
  friend class KvStore;
  struct Source;
  CellScanner(std::shared_ptr<const MemTable> mem,
              std::vector<std::shared_ptr<SstReader>> tables, const CellKey* start);

  void FindNext();

  std::vector<std::unique_ptr<Source>> sources_;  // newest first
  std::shared_ptr<const MemTable> mem_keepalive_;
  std::vector<std::shared_ptr<SstReader>> keepalive_;
  Source* current_ = nullptr;  // the source holding the current cell
  bool valid_ = false;
  Status status_;
};

/// One row's visible state after multi-version and tombstone resolution: a
/// view of the scanner's reused buffer, valid until its next Next().
struct RowView {
  /// Latest visible put per qualifier, ascending by qualifier; never empty.
  std::span<const Cell> cells;

  const std::string& row() const { return cells.front().key.row; }
};

/// Groups a CellScanner's output by row and applies visibility rules as of
/// a timestamp (cells newer than `as_of` are invisible — a pinned snapshot's
/// read_ts, or HBase's timestamp-range reads). Each row's cells are copied
/// once, into slots the scanner reuses, and resolved there in place, so a
/// scan allocates nothing per row or per cell once its buffer has grown.
class RowScanner {
 public:
  /// Advances to the next row that has at least one visible cell.
  bool Next();
  const RowView& view() const { return view_; }
  const Status& status() const { return status_; }

 private:
  friend class KvStore;
  /// Keeps `max_versions` visible puts per qualifier: 1 for reads, the
  /// store's retention for compaction.
  RowScanner(std::unique_ptr<CellScanner> cells, uint64_t as_of, int max_versions)
      : cells_(std::move(cells)), as_of_(as_of), max_versions_(max_versions) {}

  std::unique_ptr<CellScanner> cells_;
  uint64_t as_of_;
  int max_versions_;
  /// The current row's cells; slots past it keep their string capacity.
  std::vector<Cell> raw_;
  RowView view_;
  Status status_;
};

/// A pinned, immutable view of one KvStore: the memtable and SSTable set as
/// of acquisition, plus the write-clock value at that instant. Scanners built
/// from a snapshot see exactly the cells with timestamp <= read_ts, no matter
/// how many writes, flushes, compactions, or Clear()s land afterwards — the
/// shared_ptrs keep retired structures (and, via fs::RandomAccessFile,
/// deleted SSTable content) alive for the life of the snapshot. Copyable;
/// copies pin the same state.
struct KvSnapshot {
  /// Highest committed timestamp visible to this snapshot.
  uint64_t read_ts = 0;
  std::shared_ptr<const MemTable> mem;
  std::vector<std::shared_ptr<SstReader>> tables;
};

/// Aggregate store statistics, used for cost estimation and tests. Fields
/// are relaxed atomics so concurrent writers can bump them without holding
/// the store mutex; read them individually (the struct itself is not
/// copyable and a multi-field read is not a consistent snapshot).
struct KvStoreStats {
  std::atomic<uint64_t> puts{0};
  std::atomic<uint64_t> deletes{0};
  std::atomic<uint64_t> gets{0};
  std::atomic<uint64_t> flushes{0};
  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> wal_syncs{0};
};

class KvStore {
 public:
  /// Opens (and recovers) a store in `options.dir`. Replays the WAL into the
  /// memtable and registers every existing SSTable.
  static Result<std::unique_ptr<KvStore>> Open(fs::SimFileSystem* fs,
                                               KvStoreOptions options);

  ~KvStore();

  /// Stores a new version of (row, qualifier) with an auto-assigned
  /// timestamp. May trigger a flush and a compaction.
  Status Put(const Slice& row, uint32_t qualifier, const Slice& value);

  /// Stores a cell verbatim (caller-controlled timestamp/type).
  Status PutCell(Cell cell);

  /// Writes a whole-row tombstone.
  Status DeleteRow(const Slice& row);

  /// Writes a single-column tombstone.
  Status DeleteColumn(const Slice& row, uint32_t qualifier);

  /// Latest visible value of (row, qualifier), or nullopt when absent or
  /// masked by a tombstone.
  Result<std::optional<std::string>> Get(const Slice& row, uint32_t qualifier);

  /// Up to max_versions visible (timestamp, value) pairs, newest first.
  Status GetVersions(const Slice& row, uint32_t qualifier, int max_versions,
                     std::vector<std::pair<uint64_t, std::string>>* out);

  /// Raw merged scan from the beginning (or from `start_row`).
  std::unique_ptr<CellScanner> NewCellScanner(const std::string* start_row = nullptr);

  /// Visibility-resolved scan of the latest state grouped by row, optionally
  /// from `start_row`.
  std::unique_ptr<RowScanner> NewRowScanner(const std::string* start_row = nullptr);

  /// Pins the store's current state: the memtable, the SSTable set, and the
  /// write clock, captured atomically under the store mutex. Readers built
  /// from the snapshot observe exactly the writes with timestamp <= read_ts.
  KvSnapshot GetSnapshot() const;

  /// Raw merged scan over a pinned snapshot. Note the raw cell stream still
  /// includes cells newer than snapshot.read_ts that were already in the
  /// pinned memtable (the skip list admits concurrent inserts); callers that
  /// need timestamp-exact visibility go through NewRowScannerAt, whose
  /// resolution drops them.
  std::unique_ptr<CellScanner> NewCellScannerAt(
      const KvSnapshot& snapshot, const std::string* start_row = nullptr) const;

  /// Visibility-resolved scan pinned to a snapshot: rows resolve as of
  /// snapshot.read_ts, so later writes — including ones racing into the
  /// still-shared memtable — are invisible. A historical read (HBase's
  /// timestamp-range read) lowers read_ts on a copy of the snapshot.
  std::unique_ptr<RowScanner> NewRowScannerAt(
      const KvSnapshot& snapshot, const std::string* start_row = nullptr) const;

  /// The timestamp assigned to the most recent write (0 when empty). Reads
  /// "as of" this value see the current state. Safe to call concurrently
  /// with writers (relaxed load; writers publish under the store mutex).
  uint64_t LastTimestamp() const { return last_ts_.load(std::memory_order_relaxed); }

  /// Forces the memtable into an SSTable.
  Status Flush();

  /// Forces the live WAL segment to durable storage. An acknowledged write
  /// is only crash-durable once the WAL covering it has synced; DML layers
  /// call this before acknowledging a statement.
  Status SyncWal();

  /// Merges every SSTable (after flushing), keeping at most
  /// options.max_versions live versions per cell and dropping tombstones and
  /// the versions they mask.
  Status Compact();

  /// Drops all data and resets the store to empty.
  Status Clear();

  uint64_t ApproximateCellCount() const;
  uint64_t ApproximateBytes() const;
  size_t NumSstables() const {
    // Locked: the background compactor swaps sstables_ from its own thread.
    std::lock_guard<std::mutex> lock(mu_);
    return sstables_.size();
  }
  const KvStoreStats& stats() const { return stats_; }
  const KvStoreOptions& options() const { return options_; }

 private:
  KvStore(fs::SimFileSystem* fs, KvStoreOptions options)
      : fs_(fs), options_(std::move(options)) {}

  /// Appends `cell` to the WAL and memtable under the store mutex. When
  /// `assign_ts` is set the cell receives the next timestamp (allocated
  /// inside the lock, so concurrent writers get distinct, ordered stamps);
  /// otherwise last_ts_ is advanced to cover the caller-provided stamp.
  Status WriteCell(Cell cell, bool assign_ts);
  Status FlushLocked();
  Status CompactLocked();
  /// Retires every WAL segment up to and including `through_seq` (their
  /// cells are covered by SSTables). A segment that was never synced has no
  /// file; that is not an error.
  Status RetireWalSegmentsLocked(uint64_t through_seq);
  std::string SstPath(uint64_t seq, uint64_t max_ts) const;
  std::string WalSegmentPath(uint64_t seq) const;

  fs::SimFileSystem* fs_;
  KvStoreOptions options_;
  mutable std::mutex mu_;
  /// shared_ptr: live CellScanners keep the memtable a flush or Clear()
  /// replaces, the same way they keep retired SstReaders (concurrent-reader
  /// audit — a raw pointer here was a use-after-free under scan-vs-write
  /// races).
  std::shared_ptr<MemTable> memtable_;
  std::unique_ptr<WalWriter> wal_;
  std::vector<std::shared_ptr<SstReader>> sstables_;  // oldest first
  uint64_t next_sst_seq_ = 1;
  /// WAL segments are numbered; a flush opens segment N+1 before retiring
  /// segment N, so a failed flush never leaves the store without a log.
  uint64_t wal_seq_ = 1;
  /// Highest segment sequence whose file is known deleted; retirement
  /// resumes after it (a crashed retire is retried by the next flush).
  uint64_t retired_wal_seq_ = 0;
  /// Monotonic write clock. Written only under mu_; atomic so LastTimestamp
  /// can read it without taking the lock.
  std::atomic<uint64_t> last_ts_{0};
  double latency_debt_micros_ = 0.0;
  KvStoreStats stats_;
  uint64_t scheduler_job_ = 0;  // background-compaction handle; 0 = none
};

/// Resolves one row's raw cells (all versions, tombstones included, in
/// CellKey order) in place: the visible cells, the latest `max_versions` puts
/// per qualifier not masked by a tombstone and not newer than `as_of`, move
/// to the front of `cells` in order. Returns their count; the cells past it
/// are left in an unspecified order.
size_t ResolveRowCells(Cell* cells, size_t n, int max_versions,
                       uint64_t as_of = UINT64_MAX);

}  // namespace dtl::kv
