// The Master Table (paper §III-A): the main, batch-read-optimized data
// store — a set of ORC files in an HDFS directory. Every file carries a
// unique incremental file ID from the metadata table; record IDs are
// (file ID, row number) pairs.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "dualtable/metadata.h"
#include "fs/filesystem.h"
#include "orc/reader.h"
#include "orc/writer.h"
#include "table/spec.h"
#include "table/storage_table.h"

namespace dtl::dual {

/// Directory entry for one master ORC file.
struct MasterFileInfo {
  uint64_t file_id = 0;
  std::string path;
  uint64_t num_rows = 0;
  uint64_t bytes = 0;
  /// Master generation number that first registered this file; part of the
  /// shared StripeCache key so a file produced by a later COMPACT can never
  /// be served another file's cached stripes. Not persisted: recovery stamps
  /// every file with the recovered generation, which is safe because a fresh
  /// MasterTable also gets a fresh cache owner token.
  uint64_t born_generation = 0;
};

class MasterTable;

/// One committed, immutable master file set — the unit MVCC snapshots pin.
/// Every manifest commit (RegisterFile, ReplaceAllFiles, Drop) publishes a
/// new generation; readers that captured the old one keep scanning it
/// untouched. A generation owns its ORC reader cache (so scans against a
/// retired generation never mix stripes across file sets) and, when it was
/// replaced wholesale (COMPACT / OVERWRITE), the list of files it doomed:
/// those are deleted by the destructor, i.e. only after the last snapshot
/// pin drops, and their decoded columns leave the stripe cache with them.
/// A crash before that point leaves orphans the next Open()
/// garbage-collects, so deferral never loses the GC.
class MasterGeneration {
 public:
  ~MasterGeneration();

  /// Monotonic generation number; persisted in the manifest.
  uint64_t number() const { return number_; }
  const std::vector<MasterFileInfo>& files() const { return files_; }
  uint64_t TotalRows() const;
  uint64_t TotalBytes() const;

 private:
  friend class MasterTable;
  MasterGeneration() = default;

  /// Opens (and caches) the ORC reader for one of this generation's files.
  Result<std::shared_ptr<orc::OrcReader>> OpenReader(const MasterFileInfo& info) const;

  fs::SimFileSystem* fs_ = nullptr;
  uint64_t number_ = 0;
  /// Shared decoded-column cache (null = uncached reads) and the owning
  /// table's process-unique cache token; stamped onto every reader opened.
  orc::StripeCache* stripe_cache_ = nullptr;
  uint64_t cache_owner_ = 0;
  std::vector<MasterFileInfo> files_;  // ascending file_id
  /// Files this generation replaced; deleted (and erased from the stripe
  /// cache) when the generation dies.
  std::vector<MasterFileInfo> doomed_files_;
  /// Shared live-generation counter (snapshot.pinned_generations view);
  /// decremented by the destructor.
  std::shared_ptr<std::atomic<int64_t>> live_counter_;
  mutable std::mutex reader_cache_mu_;
  mutable std::map<uint64_t, std::shared_ptr<orc::OrcReader>> reader_cache_;
};

/// Snapshots hold generations const: a pinned file set never mutates.
using MasterGenerationPtr = std::shared_ptr<const MasterGeneration>;

/// One stripe-aligned unit of parallel scan work: a contiguous stripe range
/// of one master file. Morsel boundaries never split a stripe, so every
/// batch a morsel emits keeps the contiguous-record-ID invariant UNION READ
/// relies on, and each surviving stripe is decoded by exactly one worker
/// (merged ScanMeter byte counts match a serial scan).
struct ScanMorsel {
  uint64_t file_id = 0;
  size_t stripe_begin = 0;
  size_t stripe_end = 0;  // exclusive
  /// Record-ID window [first_record_id, end_record_id) covered by the
  /// morsel's stripes; bounds the attached-table scan per worker.
  uint64_t first_record_id = 0;
  uint64_t end_record_id = 0;
  uint64_t num_rows = 0;  // physical rows in surviving stripes
};

/// Writer for one new master file. The file is NOT registered with the
/// table until Close() returns its info to the caller, which lets OVERWRITE
/// plans stage a whole new generation before swapping it in.
class MasterFileWriter {
 public:
  Status Append(const Row& row);
  /// Byte-copies one already-encoded stripe (CRC-verified by the reader that
  /// produced it) into this file; incremental COMPACT uses it to carry clean
  /// stripes across a rewrite without decoding them.
  Status AppendRawStripe(const orc::StripeInfo& info, const std::string& stripe_bytes);
  /// Seals the ORC file and returns its directory entry.
  Result<MasterFileInfo> Close();

  uint64_t file_id() const { return info_.file_id; }
  const std::string& path() const { return info_.path; }
  uint64_t rows_written() const { return writer_->rows_written(); }

 private:
  friend class MasterTable;
  MasterFileWriter(std::unique_ptr<orc::OrcWriter> writer, MasterFileInfo info,
                   fs::SimFileSystem* fs)
      : writer_(std::move(writer)), info_(std::move(info)), fs_(fs) {}

  std::unique_ptr<orc::OrcWriter> writer_;
  MasterFileInfo info_;
  fs::SimFileSystem* fs_;
};

/// Stages the files of one master rewrite: OVERWRITE, COMPACT's per-file
/// fold, and the baselines' rewrites. Files open lazily, so a rewrite that
/// keeps no row stages nothing, and a file rolls to the next once it holds
/// `roll_rows` rows. Nothing is registered: Finish() closes the open file
/// and returns every staged file's info for the caller to publish. Dropped
/// unfinished (any failure before Finish returns), the writer deletes what
/// it staged — the closed files and the open file's `.tmp` — so a failed
/// rewrite leaves the directory listing only the committed files.
class StagedFileWriter {
 public:
  StagedFileWriter(MasterTable* master, uint64_t roll_rows);
  ~StagedFileWriter();

  StagedFileWriter(const StagedFileWriter&) = delete;
  StagedFileWriter& operator=(const StagedFileWriter&) = delete;

  Status Append(const Row& row);
  /// See MasterFileWriter::AppendRawStripe; counts toward the roll limit.
  Status AppendRawStripe(const orc::StripeInfo& info, const std::string& stripe_bytes);
  /// Closes the open file, if any, before the roll limit; the next row
  /// starts a new one. COMPACT ends each replacement this way. The file
  /// stays staged, and is discarded if the writer is dropped unfinished.
  Status CloseFile();
  /// Closes the open file and returns the staged files in write order. Call
  /// at most once; the caller owns the files from here on.
  Result<std::vector<MasterFileInfo>> Finish();

 private:
  Status OpenFile();

  MasterTable* master_;
  uint64_t roll_rows_;
  std::unique_ptr<MasterFileWriter> open_;  // kept after a failed Close
  std::vector<MasterFileInfo> staged_;
  bool finished_ = false;
};

/// Vectorized master scan: streams RowBatches sliced zero-copy out of
/// decoded stripes, in record-ID order, honoring projection and stripe
/// pruning. Each batch is a contiguous slice of one stripe of one file, so
/// its record IDs ascend contiguously — the invariant UNION READ's batch
/// merge exploits. With `apply_predicate`, the residual filter runs here as
/// a selection-vector filter; otherwise it is deferred to the caller.
class MasterScanBatchIterator : public table::BatchIterator {
 public:
  bool Next(table::RowBatch* batch) override;
  const Status& status() const override { return status_; }

 private:
  friend class MasterTable;
  MasterScanBatchIterator(std::vector<std::shared_ptr<orc::OrcReader>> readers,
                          std::vector<uint64_t> file_ids, table::ScanSpec spec,
                          size_t num_fields, bool apply_predicate, size_t batch_rows,
                          orc::CacheFill fill, size_t stripe_begin = 0,
                          size_t stripe_end = SIZE_MAX, bool count_skips = true);

  /// Decodes the next surviving stripe; false at end or error.
  bool LoadNextStripe();

  std::vector<std::shared_ptr<orc::OrcReader>> readers_;
  std::vector<uint64_t> file_ids_;
  table::ScanSpec spec_;
  std::vector<size_t> required_;
  size_t num_fields_;
  bool apply_predicate_;
  size_t batch_rows_;
  orc::CacheFill fill_;

  /// Stripe window for morsel scans; only meaningful for single-file
  /// iterators (multi-file scans always cover every stripe).
  size_t stripe_end_limit_;
  /// False for morsel-window iterators: PlanMorsels already charged every
  /// pruned stripe/file to the meter, so recounting here would make the
  /// merged parallel meters disagree with a serial scan.
  bool count_skips_;

  size_t file_index_ = 0;
  size_t stripe_index_ = 0;
  /// Stripes of the current file that passed StripeMayMatch; a file that
  /// ends with zero survivors is charged to the meter as a skipped file.
  size_t survivors_in_file_ = 0;
  std::shared_ptr<const orc::StripeBatch> stripe_;
  size_t offset_in_stripe_ = 0;
  Row scratch_;
  Status status_;
};

/// One DualTable's master store.
class MasterTable {
 public:
  /// Opens (or creates) the master directory. The committed file set lives
  /// in a CRC'd `manifest` (swapped atomically via tmp + rename); staged
  /// files and generations that never reached their manifest commit are
  /// garbage-collected here. Directories that predate the manifest are
  /// indexed by scanning and committed on the spot.
  /// `stripe_cache` null routes decoded stripes through the process-wide
  /// StripeCache::Default(); pass a dedicated cache to isolate (tests).
  static Result<std::unique_ptr<MasterTable>> Open(
      fs::SimFileSystem* fs, MetadataTable* metadata, const std::string& table_name,
      Schema schema, const std::string& warehouse_dir = "/warehouse",
      orc::WriterOptions writer_options = orc::WriterOptions(),
      orc::StripeCache* stripe_cache = nullptr);

  ~MasterTable();

  /// Process-unique cache-owner token (stable for this MasterTable's life).
  uint64_t cache_owner() const { return cache_owner_; }
  /// The shared stripe cache this table's readers publish into.
  orc::StripeCache* stripe_cache() const { return stripe_cache_; }

  const Schema& schema() const { return schema_; }
  /// Latest-visible file set (a copy of the current generation's list).
  std::vector<MasterFileInfo> files() const { return CurrentGeneration()->files(); }
  uint64_t TotalRows() const { return CurrentGeneration()->TotalRows(); }
  uint64_t TotalBytes() const { return CurrentGeneration()->TotalBytes(); }

  /// Pins the current committed generation. The returned pointer stays valid
  /// (and its files stay on disk) for as long as the caller holds it, no
  /// matter how many COMPACT/OVERWRITE commits land afterwards.
  MasterGenerationPtr CurrentGeneration() const;

  /// Number of generation objects currently alive: the current one plus
  /// every retired one still pinned by a snapshot.
  int64_t LiveGenerations() const {
    return live_generations_->load(std::memory_order_relaxed);
  }

  /// Starts a new master file with a fresh metadata-assigned file ID.
  Result<std::unique_ptr<MasterFileWriter>> NewFileWriter();

  /// Deletes staged files (and their `.tmp`) that no generation lists.
  /// Best effort: whatever survives is garbage-collected by the next Open().
  void DiscardStaged(const std::vector<std::string>& paths);

  /// Registers a closed file produced by NewFileWriter and commits the new
  /// file set to the manifest. The file only becomes part of the table once
  /// the manifest rename lands; a crash before that leaves an orphan that
  /// the next Open() garbage-collects.
  Status RegisterFile(MasterFileInfo info);

  /// Swaps the live file set: registers `new_files`, commits the manifest,
  /// then deletes current ones. The manifest rename is the commit point — a
  /// crash before it keeps the old generation, after it the new one. A
  /// commit that fails discards the staged files it was handed (those no
  /// generation lists yet), so a failed rewrite leaves nothing staged.
  Status ReplaceAllFiles(std::vector<MasterFileInfo> new_files);

  /// Opens (via the generation's cache) the ORC reader for one pinned file.
  /// Incremental COMPACT uses it to walk stripe row windows and raw-copy
  /// clean stripes without decoding them.
  Result<std::shared_ptr<orc::OrcReader>> OpenReader(const MasterGenerationPtr& gen,
                                                     uint64_t file_id) const;

  /// Test hook: when set, RegisterFile/ReplaceAllFiles delete the manifest
  /// instead of writing it, reverting Open() to the unsafe scan-everything
  /// recovery. Exists so the crash sweep can demonstrate that the manifest
  /// commit is load-bearing.
  void SetUnsafeGenerationCommitForTests(bool unsafe) { unsafe_commit_for_tests_ = unsafe; }

  // --- generation-pinned read paths (the MVCC snapshot API) ---
  // Every iterator reads exactly the pinned generation's file set; commits
  // racing past it are invisible. The generation-less overloads below pin
  // CurrentGeneration() per call and exist for the non-MVCC baselines.

  /// Vectorized sequential scan in record-ID order (see
  /// MasterScanBatchIterator for predicate/pruning semantics). Stripes are
  /// read through the shared stripe cache; `fill` says whether the columns
  /// it decodes are admitted.
  Result<std::unique_ptr<MasterScanBatchIterator>> NewBatchScanIterator(
      const MasterGenerationPtr& gen, const table::ScanSpec& spec, bool apply_predicate,
      size_t batch_rows = table::kDefaultBatchRows,
      orc::CacheFill fill = orc::CacheFill::kAdmit) const;

  /// Splits the scan into stripe-aligned morsels of at most
  /// `stripes_per_morsel` surviving stripes each, in record-ID order.
  /// Pruning uses the same StripeMayMatch test the scan iterators apply, so
  /// a morsel never covers work a serial scan would skip (and vice versa).
  Result<std::vector<ScanMorsel>> PlanMorsels(const MasterGenerationPtr& gen,
                                              const table::ScanSpec& spec,
                                              size_t stripes_per_morsel) const;

  /// Vectorized scan over one morsel (stripe range of one file).
  Result<std::unique_ptr<MasterScanBatchIterator>> NewMorselBatchScanIterator(
      const MasterGenerationPtr& gen, const ScanMorsel& morsel,
      const table::ScanSpec& spec, bool apply_predicate,
      size_t batch_rows = table::kDefaultBatchRows,
      orc::CacheFill fill = orc::CacheFill::kAdmit) const;

  // --- latest-visible convenience (baselines and tests; see lint rule 8) ---

  Result<std::unique_ptr<MasterScanBatchIterator>> NewBatchScanIterator(
      const table::ScanSpec& spec, bool apply_predicate,
      size_t batch_rows = table::kDefaultBatchRows,
      orc::CacheFill fill = orc::CacheFill::kAdmit) const;

  /// Removes every master file and the directory.
  Status Drop();

 private:
  MasterTable(fs::SimFileSystem* fs, MetadataTable* metadata, std::string table_name,
              Schema schema, std::string dir, orc::WriterOptions writer_options)
      : fs_(fs),
        metadata_(metadata),
        table_name_(std::move(table_name)),
        schema_(std::move(schema)),
        dir_(std::move(dir)),
        writer_options_(writer_options) {}

  /// Writes `gen`'s file-ID set (and generation number) to `dir/manifest`
  /// via tmp + rename — the atomic commit point of every generation swap.
  Status WriteManifest(const MasterGeneration& gen);
  /// Allocates the current generation's successor (number + 1, empty file
  /// set). Caller must hold gen_mu_.
  std::shared_ptr<MasterGeneration> NewGenerationLocked() const;

  fs::SimFileSystem* fs_;
  MetadataTable* metadata_;
  std::string table_name_;
  Schema schema_;
  std::string dir_;
  orc::WriterOptions writer_options_;
  /// Shared decoded-column cache + this table's owner token (see
  /// MasterFileInfo::born_generation for the full cache-key story).
  orc::StripeCache* stripe_cache_ = nullptr;
  uint64_t cache_owner_ = 0;
  bool unsafe_commit_for_tests_ = false;
  /// Guards generation publication. Held only for pointer swaps and manifest
  /// writes, never across scans.
  mutable std::mutex gen_mu_;
  /// Non-const internally: the publisher stamps doomed_files_ on the
  /// outgoing generation at replace time; readers only ever see it const.
  std::shared_ptr<MasterGeneration> current_;
  /// shared with generations so their destructors can decrement it even if
  /// they outlive the table.
  std::shared_ptr<std::atomic<int64_t>> live_generations_ =
      std::make_shared<std::atomic<int64_t>>(0);
};

/// True when the stripe's statistics cannot rule out rows satisfying every
/// bound. Equality bounds additionally probe the stripe's bloom filter;
/// `bloom_pruned` (optional) is set when min/max alone would have admitted
/// the stripe but the bloom refuted it. Exposed for tests.
bool StripeMayMatch(const orc::StripeInfo& stripe,
                    const std::vector<table::ColumnBound>& bounds,
                    bool* bloom_pruned = nullptr);

}  // namespace dtl::dual
