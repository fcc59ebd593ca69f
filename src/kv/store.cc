#include "kv/store.h"

#include <algorithm>
#include <charconv>
#include <map>

namespace dtl::kv {

// --- CellScanner --------------------------------------------------------------

/// One input of the k-way merge: the memtable or an SSTable.
struct CellScanner::Source {
  std::unique_ptr<MemTable::Iterator> mem_it;
  std::unique_ptr<SstReader::Iterator> sst_it;

  bool Valid() const { return mem_it ? mem_it->Valid() : sst_it->Valid(); }
  const CellKey& key() const { return mem_it ? mem_it->key() : sst_it->cell().key; }
  void Next() {
    if (mem_it) {
      mem_it->Next();
    } else {
      sst_it->Next();
    }
  }
  bool ok() const { return mem_it || sst_it->status().ok(); }
};

CellScanner::~CellScanner() = default;

CellScanner::CellScanner(std::shared_ptr<const MemTable> mem,
                         std::vector<std::shared_ptr<SstReader>> tables,
                         const CellKey* start) {
  if (mem != nullptr) {
    auto src = std::make_unique<Source>();
    src->mem_it = std::make_unique<MemTable::Iterator>(mem.get());
    if (start != nullptr) {
      src->mem_it->Seek(*start);
    } else {
      src->mem_it->SeekToFirst();
    }
    sources_.push_back(std::move(src));
  }
  // Newest SSTable first.
  for (auto it = tables.rbegin(); it != tables.rend(); ++it) {
    auto src = std::make_unique<Source>();
    src->sst_it = std::make_unique<SstReader::Iterator>(it->get());
    if (start != nullptr) {
      src->sst_it->Seek(*start);
    } else {
      src->sst_it->SeekToFirst();
    }
    sources_.push_back(std::move(src));
  }
  // Keep the memtable and SstReaders alive for the life of the scan: a
  // concurrent flush/compaction/Clear may retire either from the store.
  mem_keepalive_ = std::move(mem);
  keepalive_ = std::move(tables);
  FindNext();
}

void CellScanner::FindNext() {
  current_ = nullptr;
  valid_ = false;
  for (auto& src : sources_) {
    if (!src->ok()) {
      status_ = src->sst_it->status();
      return;
    }
    if (!src->Valid()) continue;
    // Strictly smaller only: on a tie the newer (earlier) source stays.
    if (current_ == nullptr || src->key().Compare(current_->key()) < 0) {
      current_ = src.get();
    }
  }
  if (current_ == nullptr) return;
  // Step the older sources past their shadowed copies of this key; the
  // current source moves on at Next().
  for (auto& src : sources_) {
    if (src.get() == current_ || !src->Valid()) continue;
    if (src->key().Compare(current_->key()) == 0) src->Next();
  }
  valid_ = true;
}

void CellScanner::Next() {
  if (!valid_) return;
  current_->Next();
  FindNext();
}

const CellKey& CellScanner::key() const { return current_->key(); }

void CellScanner::CopyTo(Cell* out) const {
  if (current_->mem_it) {
    out->key = current_->mem_it->key();
    out->value = current_->mem_it->value();
  } else {
    *out = current_->sst_it->cell();
  }
}

// --- visibility resolution -----------------------------------------------------

size_t ResolveRowCells(Cell* cells, size_t n, int max_versions, uint64_t as_of) {
  // Most attached rows hold one cell, which nothing else can mask.
  if (n == 1) {
    return cells[0].value.type == CellType::kPut && cells[0].key.timestamp <= as_of;
  }
  // Row tombstone timestamp (the reserved qualifier sorts last, so scan for
  // it first).
  uint64_t row_tomb_ts = 0;
  for (size_t k = 0; k < n; ++k) {
    const Cell& c = cells[k];
    if (c.value.type == CellType::kDeleteRow && c.key.timestamp <= as_of &&
        c.key.timestamp > row_tomb_ts) {
      row_tomb_ts = c.key.timestamp;
    }
  }
  // Cells arrive qualifier-ascending, timestamp-descending. Visible cells
  // are swapped down to `out`, which never passes the cell being read, so a
  // group's cells are all read before any of them moves.
  size_t out = 0;
  size_t i = 0;
  while (i < n) {
    const uint32_t qual = cells[i].key.qualifier;
    uint64_t col_tomb_ts = 0;
    // First pass over this qualifier group: find the column tombstone.
    size_t j = i;
    for (; j < n && cells[j].key.qualifier == qual; ++j) {
      if (cells[j].value.type == CellType::kDeleteColumn &&
          cells[j].key.timestamp <= as_of && cells[j].key.timestamp > col_tomb_ts) {
        col_tomb_ts = cells[j].key.timestamp;
      }
    }
    const uint64_t mask_ts = std::max(row_tomb_ts, col_tomb_ts);
    int taken = 0;
    for (size_t k = i; k < j && taken < max_versions; ++k) {
      Cell& c = cells[k];
      if (c.value.type != CellType::kPut) continue;
      if (c.key.timestamp > as_of) continue;
      if (c.key.timestamp <= mask_ts) continue;
      if (out != k) std::swap(cells[out], c);
      ++out;
      ++taken;
    }
    i = j;
  }
  return out;
}

// --- RowScanner ----------------------------------------------------------------

bool RowScanner::Next() {
  if (!status_.ok()) return false;
  while (cells_->Valid()) {
    // Copy the row's cells into the reused slots of raw_; the row ends where
    // the merged stream's key leaves raw_[0]'s row.
    size_t n = 0;
    do {
      if (n == raw_.size()) raw_.emplace_back();
      cells_->CopyTo(&raw_[n++]);
      cells_->Next();
    } while (cells_->Valid() && cells_->key().row == raw_[0].key.row);
    if (!cells_->status().ok()) break;
    const size_t visible = ResolveRowCells(raw_.data(), n, max_versions_, as_of_);
    if (visible == 0) continue;  // fully deleted (or not-yet-written) row
    view_.cells = std::span<const Cell>(raw_.data(), visible);
    return true;
  }
  status_ = cells_->status();
  return false;
}

// --- KvStore --------------------------------------------------------------------

Result<std::unique_ptr<KvStore>> KvStore::Open(fs::SimFileSystem* fs,
                                               KvStoreOptions options) {
  if (options.dir.empty() || options.dir.back() == '/') {
    return Status::InvalidArgument("KvStore dir must be a non-slash-terminated path");
  }
  auto store = std::unique_ptr<KvStore>(new KvStore(fs, std::move(options)));
  DTL_RETURN_NOT_OK(fs->CreateDir(store->options_.dir));
  store->memtable_ = std::make_shared<MemTable>();

  // Inventory the directory: published SSTables ("sst_<seq>_<maxts>.sst"),
  // WAL segments ("wal_<seq>.log"), and unpublished ".tmp" leftovers from a
  // flush or compaction that crashed before its rename commit.
  DTL_ASSIGN_OR_RETURN(auto names, fs->ListDir(store->options_.dir));
  std::vector<std::pair<uint64_t, std::string>> found;         // (seq, name)
  std::vector<std::pair<uint64_t, std::string>> wal_segments;  // (seq, name)
  uint64_t max_wal_seq = 0;
  uint64_t min_wal_seq = UINT64_MAX;
  for (const std::string& name : names) {
    const char* end = name.data() + name.size();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      // Never published: its writer crashed before the rename commit, so no
      // acknowledged data can live here. Discard.
      DTL_RETURN_NOT_OK(fs->Delete(fs::JoinPath(store->options_.dir, name)));
      continue;
    }
    if (name.rfind("wal_", 0) == 0) {
      uint64_t seq = 0;
      auto r = std::from_chars(name.data() + 4, end, seq);
      if (r.ec != std::errc() || std::string(r.ptr, end - r.ptr) != ".log") continue;
      wal_segments.emplace_back(seq, name);
      max_wal_seq = std::max(max_wal_seq, seq);
      min_wal_seq = std::min(min_wal_seq, seq);
      continue;
    }
    if (name.rfind("sst_", 0) != 0 || name.size() < 9) continue;
    uint64_t seq = 0, max_ts = 0;
    auto r1 = std::from_chars(name.data() + 4, end, seq);
    if (r1.ec != std::errc() || r1.ptr >= end || *r1.ptr != '_') continue;
    auto r2 = std::from_chars(r1.ptr + 1, end, max_ts);
    if (r2.ec != std::errc() || std::string(r2.ptr, end - r2.ptr) != ".sst") continue;
    found.emplace_back(seq, name);
    store->next_sst_seq_ = std::max(store->next_sst_seq_, seq + 1);
    if (max_ts > store->last_ts_.load(std::memory_order_relaxed)) {
      store->last_ts_.store(max_ts, std::memory_order_relaxed);
    }
  }
  std::sort(found.begin(), found.end());
  for (const auto& [seq, name] : found) {
    DTL_ASSIGN_OR_RETURN(auto reader,
                         SstReader::Open(fs, fs::JoinPath(store->options_.dir, name)));
    store->sstables_.push_back(std::move(reader));
  }

  // Replay surviving WAL segments, oldest first, into the memtable. A
  // segment whose flush committed but whose retirement was interrupted
  // replays cells that already live in an SSTable; identical (row,
  // qualifier, timestamp) cells deduplicate at read time, so the replay is
  // idempotent.
  std::sort(wal_segments.begin(), wal_segments.end());
  std::vector<Cell> recovered;
  for (const auto& [seq, name] : wal_segments) {
    DTL_RETURN_NOT_OK(
        ReplayWal(fs, fs::JoinPath(store->options_.dir, name), &recovered));
  }
  for (Cell& cell : recovered) {
    if (cell.key.timestamp > store->last_ts_.load(std::memory_order_relaxed)) {
      store->last_ts_.store(cell.key.timestamp, std::memory_order_relaxed);
    }
    store->memtable_->Add(cell);
  }

  store->wal_seq_ = max_wal_seq + 1;
  store->retired_wal_seq_ =
      wal_segments.empty() ? max_wal_seq : min_wal_seq - 1;
  DTL_ASSIGN_OR_RETURN(store->wal_,
                       WalWriter::Create(fs, store->WalSegmentPath(store->wal_seq_),
                                         store->options_.wal_sync_interval_bytes));
  if (store->options_.scheduler != nullptr) {
    // Deferred size-tiered compaction: the write path only flushes; the
    // scheduler merges SSTables once the tier trigger is exceeded. Raw
    // pointer is safe — ~KvStore unregisters (blocking) first.
    KvStore* raw = store.get();
    store->scheduler_job_ = store->options_.scheduler->Register(
        "kv-compact:" + store->options_.dir, [raw] {
          bool over_trigger = false;
          {
            std::lock_guard<std::mutex> lock(raw->mu_);
            over_trigger = static_cast<int>(raw->sstables_.size()) >
                           raw->options_.l0_compaction_trigger;
          }
          if (!over_trigger) return;
          DTL_IGNORE_STATUS(raw->Compact(),
                            "background compaction failure is retried next round");
        });
  }
  return store;
}

KvStore::~KvStore() {
  if (scheduler_job_ != 0) options_.scheduler->Unregister(scheduler_job_);
  if (wal_ != nullptr) {
    DTL_IGNORE_STATUS(wal_->Close(),
                      "destructor cannot propagate; every record is already synced or lost "
                      "with the process");
  }
}

std::string KvStore::SstPath(uint64_t seq, uint64_t max_ts) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "sst_%06llu_%llu.sst",
                static_cast<unsigned long long>(seq),
                static_cast<unsigned long long>(max_ts));
  return fs::JoinPath(options_.dir, buf);
}

std::string KvStore::WalSegmentPath(uint64_t seq) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal_%06llu.log", static_cast<unsigned long long>(seq));
  return fs::JoinPath(options_.dir, buf);
}

Status KvStore::RetireWalSegmentsLocked(uint64_t through_seq) {
  for (uint64_t seq = retired_wal_seq_ + 1; seq <= through_seq; ++seq) {
    Status st = fs_->Delete(WalSegmentPath(seq));
    // A segment that never synced has no file; nothing to retire.
    if (!st.ok() && !st.IsNotFound()) return st;
    retired_wal_seq_ = seq;
  }
  return Status::OK();
}

Status KvStore::WriteCell(Cell cell, bool assign_ts) {
  int64_t sleep_micros = 0;
  Status st;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The write clock is advanced inside the lock so concurrent writers get
    // distinct, ordered timestamps (plain stores suffice: mu_ serializes all
    // writers; the atomic exists for lock-free LastTimestamp readers).
    if (assign_ts) {
      cell.key.timestamp = last_ts_.load(std::memory_order_relaxed) + 1;
      last_ts_.store(cell.key.timestamp, std::memory_order_relaxed);
    } else if (cell.key.timestamp > last_ts_.load(std::memory_order_relaxed)) {
      last_ts_.store(cell.key.timestamp, std::memory_order_relaxed);
    }
    if (options_.put_latency_micros > 0) {
      latency_debt_micros_ += options_.put_latency_micros;
      if (latency_debt_micros_ >= 2000.0) {  // pay the debt in >=2ms slices
        sleep_micros = static_cast<int64_t>(latency_debt_micros_);
        latency_debt_micros_ = 0;
      }
    }
    st = wal_->Append(cell);
    if (st.ok()) {
      memtable_->Add(cell);
      if (memtable_->approximate_bytes() >= options_.memtable_flush_bytes) {
        st = FlushLocked();
        if (st.ok() &&
            static_cast<int>(sstables_.size()) > options_.l0_compaction_trigger) {
          if (options_.scheduler != nullptr) {
            // Compaction is the scheduler's job; just nudge it so the tier
            // debt is paid promptly rather than at the next poll tick.
            options_.scheduler->Wake();
          } else {
            st = CompactLocked();
          }
        }
      }
    }
  }
  // Simulated client-side RPC latency is paid with the store mutex released:
  // the writing client waits, but the store stays available to other clients
  // (the scripts/lint.py no-sleep-under-lock invariant depends on this).
  if (sleep_micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_micros));
  }
  return st;
}

Status KvStore::Put(const Slice& row, uint32_t qualifier, const Slice& value) {
  if (qualifier == kRowTombstoneQualifier) {
    return Status::InvalidArgument("qualifier is reserved for row tombstones");
  }
  stats_.puts.fetch_add(1, std::memory_order_relaxed);
  Cell cell;
  cell.key = CellKey{row.ToString(), qualifier, 0};
  cell.value = CellValue{CellType::kPut, value.ToString()};
  return WriteCell(std::move(cell), /*assign_ts=*/true);
}

Status KvStore::PutCell(Cell cell) {
  stats_.puts.fetch_add(1, std::memory_order_relaxed);
  return WriteCell(std::move(cell), /*assign_ts=*/false);
}

Status KvStore::DeleteRow(const Slice& row) {
  stats_.deletes.fetch_add(1, std::memory_order_relaxed);
  Cell cell;
  cell.key = CellKey{row.ToString(), kRowTombstoneQualifier, 0};
  cell.value = CellValue{CellType::kDeleteRow, ""};
  return WriteCell(std::move(cell), /*assign_ts=*/true);
}

Status KvStore::DeleteColumn(const Slice& row, uint32_t qualifier) {
  if (qualifier == kRowTombstoneQualifier) {
    return Status::InvalidArgument("qualifier is reserved for row tombstones");
  }
  stats_.deletes.fetch_add(1, std::memory_order_relaxed);
  Cell cell;
  cell.key = CellKey{row.ToString(), qualifier, 0};
  cell.value = CellValue{CellType::kDeleteColumn, ""};
  return WriteCell(std::move(cell), /*assign_ts=*/true);
}

Status KvStore::GetVersions(const Slice& row, uint32_t qualifier, int max_versions,
                            std::vector<std::pair<uint64_t, std::string>>* out) {
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  out->clear();
  // Collect every version of (row, qualifier) plus the row tombstone, then
  // resolve. Row groups are tiny, so materializing them is cheap.
  std::vector<Cell> raw;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto collect = [&raw, &row](auto& it, uint32_t qual) {
      CellKey start{row.ToString(), qual, UINT64_MAX};
      it.Seek(start);
      while (it.Valid()) {
        Cell c = it.cell();
        if (c.key.row != row.ToView() || c.key.qualifier != qual) break;
        raw.push_back(std::move(c));
        it.Next();
      }
    };
    for (uint32_t qual : {qualifier, kRowTombstoneQualifier}) {
      MemTable::Iterator mem_it(memtable_.get());
      collect(mem_it, qual);
      for (auto& sst : sstables_) {
        if (!sst->MayContainRow(row)) continue;
        SstReader::Iterator sst_it(sst.get());
        collect(sst_it, qual);
        DTL_RETURN_NOT_OK(sst_it.status());
      }
    }
  }
  std::sort(raw.begin(), raw.end(),
            [](const Cell& a, const Cell& b) { return a.key.Compare(b.key) < 0; });
  raw.erase(std::unique(raw.begin(), raw.end(),
                        [](const Cell& a, const Cell& b) {
                          return a.key.Compare(b.key) == 0;
                        }),
            raw.end());
  const size_t visible = ResolveRowCells(raw.data(), raw.size(), max_versions);
  for (size_t i = 0; i < visible; ++i) {
    const Cell& c = raw[i];
    if (c.key.qualifier == qualifier) out->emplace_back(c.key.timestamp, c.value.value);
  }
  return Status::OK();
}

Result<std::optional<std::string>> KvStore::Get(const Slice& row, uint32_t qualifier) {
  std::vector<std::pair<uint64_t, std::string>> versions;
  DTL_RETURN_NOT_OK(GetVersions(row, qualifier, 1, &versions));
  if (versions.empty()) return std::optional<std::string>();
  return std::optional<std::string>(std::move(versions[0].second));
}

std::unique_ptr<CellScanner> KvStore::NewCellScanner(const std::string* start_row) {
  std::lock_guard<std::mutex> lock(mu_);
  std::optional<CellKey> start;
  if (start_row != nullptr) start = CellKey{*start_row, 0, UINT64_MAX};
  return std::unique_ptr<CellScanner>(new CellScanner(
      memtable_, sstables_, start.has_value() ? &*start : nullptr));
}

std::unique_ptr<RowScanner> KvStore::NewRowScanner(const std::string* start_row) {
  return std::unique_ptr<RowScanner>(
      new RowScanner(NewCellScanner(start_row), UINT64_MAX, 1));
}

KvSnapshot KvStore::GetSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  KvSnapshot snapshot;
  snapshot.read_ts = last_ts_.load(std::memory_order_relaxed);
  snapshot.mem = memtable_;
  snapshot.tables = sstables_;
  return snapshot;
}

std::unique_ptr<CellScanner> KvStore::NewCellScannerAt(const KvSnapshot& snapshot,
                                                       const std::string* start_row) const {
  // No lock: the snapshot already owns its sources; the store's current
  // memtable_/sstables_ are irrelevant here.
  std::optional<CellKey> start;
  if (start_row != nullptr) start = CellKey{*start_row, 0, UINT64_MAX};
  return std::unique_ptr<CellScanner>(new CellScanner(
      snapshot.mem, snapshot.tables, start.has_value() ? &*start : nullptr));
}

std::unique_ptr<RowScanner> KvStore::NewRowScannerAt(
    const KvSnapshot& snapshot, const std::string* start_row) const {
  // Clamp visibility to the snapshot's clock: cells racing into the pinned
  // memtable after acquisition carry larger timestamps and resolve away.
  return std::unique_ptr<RowScanner>(
      new RowScanner(NewCellScannerAt(snapshot, start_row), snapshot.read_ts, 1));
}

Status KvStore::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

Status KvStore::FlushLocked() {
  if (memtable_->empty()) return Status::OK();
  stats_.flushes.fetch_add(1, std::memory_order_relaxed);
  // Open the next WAL segment before anything else: until the SSTable's
  // rename commit lands, the old segment still covers every cell, so a
  // failure at any point below loses nothing and leaves the store writable.
  const uint64_t new_wal_seq = wal_seq_ + 1;
  DTL_ASSIGN_OR_RETURN(auto new_wal,
                       WalWriter::Create(fs_, WalSegmentPath(new_wal_seq),
                                         options_.wal_sync_interval_bytes));
  // Stage the SSTable under a ".tmp" name and publish it with an atomic
  // rename; a crash mid-write leaves only an unpublished temp file.
  const std::string path = SstPath(next_sst_seq_++, last_ts_.load(std::memory_order_relaxed));
  const std::string tmp_path = path + ".tmp";
  DTL_ASSIGN_OR_RETURN(auto writer, SstWriter::Create(fs_, tmp_path, memtable_->cell_count()));
  MemTable::Iterator it(memtable_.get());
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    DTL_RETURN_NOT_OK(writer->Add(it.cell()));
  }
  DTL_RETURN_NOT_OK(writer->Finish());
  DTL_RETURN_NOT_OK(fs_->Rename(tmp_path, path));
  DTL_ASSIGN_OR_RETURN(auto reader, SstReader::Open(fs_, path));
  sstables_.push_back(std::move(reader));
  // Replace, don't clear: live CellScanners still share the old memtable.
  memtable_ = std::make_shared<MemTable>();
  // Switch to the fresh segment; the old writer is dropped (its cells are
  // all in the SSTable now) and its file retired.
  const uint64_t old_wal_seq = wal_seq_;
  wal_ = std::move(new_wal);
  wal_seq_ = new_wal_seq;
  return RetireWalSegmentsLocked(old_wal_seq);
}

Status KvStore::Compact() {
  std::lock_guard<std::mutex> lock(mu_);
  DTL_RETURN_NOT_OK(FlushLocked());
  return CompactLocked();
}

Status KvStore::CompactLocked() {
  if (sstables_.size() <= 1) return Status::OK();
  stats_.compactions.fetch_add(1, std::memory_order_relaxed);
  // Full merge with visibility resolution per row; tombstones and shadowed
  // versions are dropped (nothing below survives a full compaction).
  RowScanner rows(
      std::unique_ptr<CellScanner>(new CellScanner(nullptr, sstables_, nullptr)),
      UINT64_MAX, options_.max_versions);
  const std::string path = SstPath(next_sst_seq_++, last_ts_.load(std::memory_order_relaxed));
  const std::string tmp_path = path + ".tmp";
  uint64_t expected = 0;
  for (const auto& sst : sstables_) expected += sst->cell_count();
  DTL_ASSIGN_OR_RETURN(auto writer, SstWriter::Create(fs_, tmp_path, expected));
  while (rows.Next()) {
    for (const Cell& c : rows.view().cells) DTL_RETURN_NOT_OK(writer->Add(c));
  }
  DTL_RETURN_NOT_OK(rows.status());
  DTL_RETURN_NOT_OK(writer->Finish());
  // Atomic commit: the merged table becomes visible in one rename. A crash
  // before this point leaves only the temp file; a crash after it leaves the
  // merged table plus not-yet-deleted inputs, whose surviving cells are
  // shadowed copies of what the merged table already serves.
  DTL_RETURN_NOT_OK(fs_->Rename(tmp_path, path));

  std::vector<std::string> old_paths;
  old_paths.reserve(sstables_.size());
  for (const auto& sst : sstables_) old_paths.push_back(sst->path());
  sstables_.clear();
  DTL_ASSIGN_OR_RETURN(auto reader, SstReader::Open(fs_, path));
  sstables_.push_back(std::move(reader));
  for (const std::string& p : old_paths) DTL_RETURN_NOT_OK(fs_->Delete(p));
  return Status::OK();
}

Status KvStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // Same segment discipline as FlushLocked: open the replacement log first
  // so a failure below never leaves the store without a writable WAL.
  const uint64_t new_wal_seq = wal_seq_ + 1;
  DTL_ASSIGN_OR_RETURN(auto new_wal,
                       WalWriter::Create(fs_, WalSegmentPath(new_wal_seq),
                                         options_.wal_sync_interval_bytes));
  for (const auto& sst : sstables_) DTL_RETURN_NOT_OK(fs_->Delete(sst->path()));
  sstables_.clear();
  memtable_ = std::make_shared<MemTable>();
  const uint64_t old_wal_seq = wal_seq_;
  wal_ = std::move(new_wal);
  wal_seq_ = new_wal_seq;
  return RetireWalSegmentsLocked(old_wal_seq);
}

Status KvStore::SyncWal() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.wal_syncs.fetch_add(1, std::memory_order_relaxed);
  return wal_->Sync();
}

uint64_t KvStore::ApproximateCellCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = memtable_->cell_count();
  for (const auto& sst : sstables_) total += sst->cell_count();
  return total;
}

uint64_t KvStore::ApproximateBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = memtable_->approximate_bytes();
  for (const auto& sst : sstables_) {
    auto size = fs_->FileSize(sst->path());
    if (size.ok()) total += *size;
  }
  return total;
}

}  // namespace dtl::kv
