#include "dualtable/master_table.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

#include "common/coding.h"
#include "dualtable/record_id.h"
#include "orc/stripe_cache.h"
#include "table/scan_stats.h"

namespace dtl::dual {

namespace {

std::string MasterFilePath(const std::string& dir, uint64_t file_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "f_%08llu.orc", static_cast<unsigned long long>(file_id));
  return fs::JoinPath(dir, buf);
}

std::string ManifestPath(const std::string& dir) { return fs::JoinPath(dir, "manifest"); }

bool HasSuffix(const std::string& name, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
}

/// Bloom keys are Value::EncodeTo bytes, so a probe is only meaningful when
/// the literal's kind matches the column's stored kind; cross-kind numeric
/// equality (int64 column vs double literal) must fall back to min/max.
bool SameValueKind(const Value& a, const Value& b) {
  return (a.is_int64() && b.is_int64()) || (a.is_double() && b.is_double()) ||
         (a.is_string() && b.is_string()) || (a.is_bool() && b.is_bool());
}

}  // namespace

// --- MasterGeneration -----------------------------------------------------------

MasterGeneration::~MasterGeneration() {
  // Deferred orphan GC: these files were replaced while this generation was
  // still pinned by a snapshot; the last pin dropping is the earliest moment
  // they can go. The manifest no longer lists them, so a failed delete here
  // (or a crash before this runs) is re-collected by the next Open().
  for (const std::string& path : doomed_paths_) {
    DTL_IGNORE_STATUS(fs_->Delete(path),
                      "deferred generation GC: next Open() re-collects unlisted files");
  }
  if (live_counter_ != nullptr) {
    live_counter_->fetch_sub(1, std::memory_order_relaxed);
  }
}

uint64_t MasterGeneration::TotalRows() const {
  uint64_t total = 0;
  for (const auto& f : files_) total += f.num_rows;
  return total;
}

uint64_t MasterGeneration::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& f : files_) total += f.bytes;
  return total;
}

Result<std::shared_ptr<orc::OrcReader>> MasterGeneration::OpenReader(
    const MasterFileInfo& info) const {
  std::lock_guard<std::mutex> lock(reader_cache_mu_);
  auto it = reader_cache_.find(info.file_id);
  if (it != reader_cache_.end()) return it->second;
  DTL_ASSIGN_OR_RETURN(auto reader, orc::OrcReader::Open(fs_, info.path));
  std::shared_ptr<orc::OrcReader> shared = std::move(reader);
  if (stripe_cache_ != nullptr) {
    // Keyed by the file's birth generation, not this generation: a file kept
    // across COMPACT swaps stays warm, while a replacement file (new id, new
    // birth) can never be served the replaced file's stripes.
    shared->SetSharedCache(stripe_cache_, cache_owner_, info.born_generation);
  }
  reader_cache_[info.file_id] = shared;
  return shared;
}

bool StripeMayMatch(const orc::StripeInfo& stripe,
                    const std::vector<table::ColumnBound>& bounds,
                    bool* bloom_pruned) {
  if (bloom_pruned != nullptr) *bloom_pruned = false;
  for (const table::ColumnBound& bound : bounds) {
    if (bound.column >= stripe.stats.size()) continue;
    const orc::ColumnStats& stats = stripe.stats[bound.column];
    if (!stats.has_min_max) continue;  // all-null stripe: cannot prune safely
    if (bound.lower.has_value() && stats.max.Compare(*bound.lower) < 0) return false;
    if (bound.upper.has_value() && stats.min.Compare(*bound.upper) > 0) return false;
    // Equality bounds get a second chance to prune: min/max admit any value
    // inside the range, the bloom filter rules out values never written.
    if (bound.lower.has_value() && bound.upper.has_value() &&
        bound.lower->Compare(*bound.upper) == 0 && !stats.bloom.empty() &&
        SameValueKind(*bound.lower, stats.min) && !stats.BloomMayContain(*bound.lower)) {
      if (bloom_pruned != nullptr) *bloom_pruned = true;
      return false;
    }
  }
  return true;
}

// --- MasterFileWriter -----------------------------------------------------------

Status MasterFileWriter::Append(const Row& row) { return writer_->Append(row); }

Status MasterFileWriter::AppendRawStripe(const orc::StripeInfo& info,
                                         const std::string& stripe_bytes) {
  return writer_->AppendRawStripe(info, stripe_bytes);
}

Result<MasterFileInfo> MasterFileWriter::Close() {
  DTL_RETURN_NOT_OK(writer_->Close());
  // The writer staged the file at <path>.tmp; publish it with an atomic
  // rename so a crash mid-write leaves only a .tmp orphan that the next
  // Open() garbage-collects, never a torn .orc file.
  DTL_RETURN_NOT_OK(fs_->Rename(info_.path + ".tmp", info_.path));
  info_.num_rows = writer_->rows_written();
  DTL_ASSIGN_OR_RETURN(info_.bytes, fs_->FileSize(info_.path));
  return info_;
}

// --- MasterScanIterator -----------------------------------------------------------

MasterScanIterator::MasterScanIterator(std::vector<std::shared_ptr<orc::OrcReader>> readers,
                                       std::vector<uint64_t> file_ids,
                                       table::ScanSpec spec, size_t num_fields,
                                       bool apply_predicate)
    : readers_(std::move(readers)),
      file_ids_(std::move(file_ids)),
      spec_(std::move(spec)),
      num_fields_(num_fields),
      apply_predicate_(apply_predicate) {
  required_ = spec_.RequiredColumns(num_fields_);
}

bool MasterScanIterator::LoadNextBatch() {
  while (file_index_ < readers_.size()) {
    const orc::OrcReader* reader = readers_[file_index_].get();
    if (stripe_index_ >= reader->num_stripes()) {
      if (reader->num_stripes() > 0 && survivors_in_file_ == 0) {
        (spec_.meter != nullptr ? *spec_.meter : table::GlobalScanMeter()).AddSkippedFile();
      }
      ++file_index_;
      stripe_index_ = 0;
      survivors_in_file_ = 0;
      continue;
    }
    const orc::StripeInfo& info = reader->stripe(stripe_index_);
    bool bloom_pruned = false;
    if (!StripeMayMatch(info, spec_.bounds, &bloom_pruned)) {
      (spec_.meter != nullptr ? *spec_.meter : table::GlobalScanMeter())
          .AddSkippedStripe(bloom_pruned);
      ++stripe_index_;
      continue;
    }
    ++survivors_in_file_;
    auto batch = reader->ReadStripe(stripe_index_, required_);
    if (!batch.ok()) {
      status_ = batch.status();
      return false;
    }
    batch_ = std::move(batch).value();
    batch_loaded_ = true;
    index_in_batch_ = 0;
    ++stripe_index_;
    return true;
  }
  return false;
}

bool MasterScanIterator::Next() {
  if (!status_.ok()) return false;
  while (true) {
    if (!batch_loaded_ || index_in_batch_ >= batch_.num_rows) {
      batch_loaded_ = false;
      if (!LoadNextBatch()) return false;
    }
    const size_t i = index_in_batch_++;
    row_.assign(num_fields_, Value::Null());
    for (size_t p = 0; p < batch_.projection.size(); ++p) {
      row_[batch_.projection[p]] = batch_.columns[p][i];
    }
    if (apply_predicate_ && spec_.predicate && !spec_.predicate(row_)) continue;
    record_id_ = MakeRecordId(file_ids_[file_index_], batch_.first_row + i);
    return true;
  }
}

// --- MasterScanBatchIterator -------------------------------------------------------

MasterScanBatchIterator::MasterScanBatchIterator(
    std::vector<std::shared_ptr<orc::OrcReader>> readers, std::vector<uint64_t> file_ids,
    table::ScanSpec spec, size_t num_fields, bool apply_predicate, size_t batch_rows,
    size_t stripe_begin, size_t stripe_end, bool count_skips)
    : readers_(std::move(readers)),
      file_ids_(std::move(file_ids)),
      spec_(std::move(spec)),
      num_fields_(num_fields),
      apply_predicate_(apply_predicate),
      batch_rows_(std::max<size_t>(1, batch_rows)),
      stripe_end_limit_(stripe_end),
      count_skips_(count_skips) {
  required_ = spec_.RequiredColumns(num_fields_);
  stripe_index_ = stripe_begin;
  DTL_DCHECK(stripe_begin == 0 || readers_.size() <= 1);
}

bool MasterScanBatchIterator::LoadNextStripe() {
  while (file_index_ < readers_.size()) {
    const orc::OrcReader* reader = readers_[file_index_].get();
    if (stripe_index_ >= std::min(stripe_end_limit_, reader->num_stripes())) {
      if (count_skips_ && reader->num_stripes() > 0 && survivors_in_file_ == 0) {
        (spec_.meter != nullptr ? *spec_.meter : table::GlobalScanMeter()).AddSkippedFile();
      }
      ++file_index_;
      stripe_index_ = 0;
      survivors_in_file_ = 0;
      continue;
    }
    const orc::StripeInfo& info = reader->stripe(stripe_index_);
    bool bloom_pruned = false;
    if (!StripeMayMatch(info, spec_.bounds, &bloom_pruned)) {
      if (count_skips_) {
        (spec_.meter != nullptr ? *spec_.meter : table::GlobalScanMeter())
            .AddSkippedStripe(bloom_pruned);
      }
      ++stripe_index_;
      continue;
    }
    ++survivors_in_file_;
    auto read = reader->ReadStripeShared(stripe_index_, required_);
    if (!read.ok()) {
      status_ = read.status();
      return false;
    }
    ++stripe_index_;
    if ((*read)->num_rows == 0) continue;
    stripe_ = std::move(read).value();
    offset_in_stripe_ = 0;
    return true;
  }
  return false;
}

bool MasterScanBatchIterator::Next(table::RowBatch* batch) {
  if (!status_.ok()) return false;
  while (true) {
    if (stripe_ == nullptr || offset_in_stripe_ >= stripe_->num_rows) {
      if (!LoadNextStripe()) return false;
    }
    const size_t count =
        std::min(batch_rows_, static_cast<size_t>(stripe_->num_rows) - offset_in_stripe_);
    stripe_->SliceInto(offset_in_stripe_, count, num_fields_, batch);
    batch->SetContiguousRecordIds(
        MakeRecordId(file_ids_[file_index_], stripe_->first_row + offset_in_stripe_));
    batch->SetAnchor(stripe_);
    (spec_.meter != nullptr ? *spec_.meter : table::GlobalScanMeter())
        .AddBatch(count, offset_in_stripe_ == 0 ? stripe_->encoded_bytes : 0);
    offset_in_stripe_ += count;
    if (apply_predicate_ && spec_.predicate) {
      batch->FilterSelected(spec_.predicate, &scratch_, spec_.meter);
      if (batch->empty()) continue;  // never emit an all-filtered batch
    }
    return true;
  }
}

// --- MasterTable -------------------------------------------------------------------

Result<std::unique_ptr<MasterTable>> MasterTable::Open(fs::SimFileSystem* fs,
                                                       MetadataTable* metadata,
                                                       const std::string& table_name,
                                                       Schema schema,
                                                       const std::string& warehouse_dir,
                                                       orc::WriterOptions writer_options,
                                                       orc::StripeCache* stripe_cache) {
  std::string dir = fs::JoinPath(warehouse_dir, table_name);
  DTL_RETURN_NOT_OK(fs->CreateDir(dir));
  auto master = std::unique_ptr<MasterTable>(new MasterTable(
      fs, metadata, table_name, std::move(schema), dir, writer_options));
  master->stripe_cache_ =
      stripe_cache != nullptr ? stripe_cache : orc::StripeCache::Default();
  master->cache_owner_ = orc::StripeCache::NewOwnerToken();

  // Staged-but-uncommitted leftovers (torn file writes, half-written
  // manifest updates) are garbage from a crash; discard them first.
  DTL_ASSIGN_OR_RETURN(auto names, fs->ListDir(dir));
  for (const std::string& name : names) {
    if (HasSuffix(name, ".tmp")) DTL_RETURN_NOT_OK(fs->Delete(fs::JoinPath(dir, name)));
  }

  const std::string manifest_path = ManifestPath(dir);
  std::vector<MasterFileInfo> files;
  uint64_t gen_number = 1;
  if (fs->Exists(manifest_path)) {
    // The manifest is the committed file set: open exactly what it lists and
    // garbage-collect any f_ file that was written but never committed
    // (e.g. a crash between staging an OVERWRITE generation and the
    // manifest rename, or a doomed file whose deferred GC never ran).
    DTL_ASSIGN_OR_RETURN(auto file, fs->NewRandomAccessFile(manifest_path));
    const uint64_t size = file->size();
    if (size < 4) return Status::Corruption("master manifest too small: " + manifest_path);
    std::string raw;
    DTL_RETURN_NOT_OK(file->ReadAt(0, size, &raw));
    const uint32_t crc = DecodeFixed32(raw.data() + raw.size() - 4);
    Slice payload(raw.data(), raw.size() - 4);
    if (Crc32(payload) != crc) {
      return Status::Corruption("master manifest checksum mismatch: " + manifest_path);
    }
    DTL_RETURN_NOT_OK(GetVarint64(&payload, &gen_number));
    uint64_t count = 0;
    DTL_RETURN_NOT_OK(GetVarint64(&payload, &count));
    std::set<uint64_t> listed;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t file_id = 0;
      DTL_RETURN_NOT_OK(GetVarint64(&payload, &file_id));
      listed.insert(file_id);
    }
    for (uint64_t file_id : listed) {
      std::string path = MasterFilePath(dir, file_id);
      auto reader = orc::OrcReader::Open(fs, path);
      if (!reader.ok()) {
        if (reader.status().IsNotFound()) {
          return Status::Corruption("manifest lists missing master file: " + path);
        }
        return reader.status();
      }
      MasterFileInfo info;
      info.file_id = (*reader)->file_id();
      info.path = path;
      info.num_rows = (*reader)->num_rows();
      DTL_ASSIGN_OR_RETURN(info.bytes, fs->FileSize(path));
      files.push_back(std::move(info));
    }
    for (const std::string& name : names) {
      if (name.rfind("f_", 0) != 0 || !HasSuffix(name, ".orc")) continue;
      std::string path = fs::JoinPath(dir, name);
      bool is_listed = false;
      for (const auto& f : files) is_listed |= (f.path == path);
      if (!is_listed) DTL_RETURN_NOT_OK(fs->Delete(path));
    }
  } else {
    // Legacy directory (pre-manifest): index every ORC file present, then
    // commit that set so subsequent opens take the manifest path.
    for (const std::string& name : names) {
      if (name.rfind("f_", 0) != 0 || !HasSuffix(name, ".orc")) continue;
      std::string path = fs::JoinPath(dir, name);
      DTL_ASSIGN_OR_RETURN(auto reader, orc::OrcReader::Open(fs, path));
      MasterFileInfo info;
      info.file_id = reader->file_id();
      info.path = path;
      info.num_rows = reader->num_rows();
      DTL_ASSIGN_OR_RETURN(info.bytes, fs->FileSize(path));
      files.push_back(std::move(info));
    }
  }
  std::sort(files.begin(), files.end(),
            [](const MasterFileInfo& a, const MasterFileInfo& b) {
              return a.file_id < b.file_id;
            });
  // Recovery stamps every file with the recovered generation number; cache
  // keys stay sound because this MasterTable holds a fresh owner token.
  for (MasterFileInfo& f : files) f.born_generation = gen_number;
  auto gen = std::shared_ptr<MasterGeneration>(new MasterGeneration());
  gen->fs_ = fs;
  gen->number_ = gen_number;
  gen->stripe_cache_ = master->stripe_cache_;
  gen->cache_owner_ = master->cache_owner_;
  gen->files_ = std::move(files);
  gen->live_counter_ = master->live_generations_;
  gen->live_counter_->fetch_add(1, std::memory_order_relaxed);
  master->current_ = std::move(gen);
  if (!fs->Exists(manifest_path)) {
    DTL_RETURN_NOT_OK(master->WriteManifest(*master->current_));
  }
  return master;
}

Status MasterTable::WriteManifest(const MasterGeneration& gen) {
  const std::string manifest_path = ManifestPath(dir_);
  if (unsafe_commit_for_tests_) {
    Status st = fs_->Delete(manifest_path);
    if (!st.ok() && !st.IsNotFound()) return st;
    return Status::OK();
  }
  std::string payload;
  PutVarint64(&payload, gen.number_);
  PutVarint64(&payload, gen.files_.size());
  for (const auto& f : gen.files_) PutVarint64(&payload, f.file_id);
  std::string bytes = payload;
  PutFixed32(&bytes, Crc32(payload.data(), payload.size()));
  // tmp + rename: the manifest swap is atomic, so a reader never sees a
  // half-written file set.
  const std::string tmp = manifest_path + ".tmp";
  DTL_ASSIGN_OR_RETURN(auto file, fs_->NewWritableFile(tmp));
  DTL_RETURN_NOT_OK(file->Append(bytes));
  DTL_RETURN_NOT_OK(file->Close());
  return fs_->Rename(tmp, manifest_path);
}

MasterGenerationPtr MasterTable::CurrentGeneration() const {
  std::lock_guard<std::mutex> lock(gen_mu_);
  return current_;
}

std::shared_ptr<MasterGeneration> MasterTable::NewGenerationLocked() const {
  auto next = std::shared_ptr<MasterGeneration>(new MasterGeneration());
  next->fs_ = fs_;
  next->number_ = current_->number_ + 1;
  next->stripe_cache_ = stripe_cache_;
  next->cache_owner_ = cache_owner_;
  next->live_counter_ = live_generations_;
  next->live_counter_->fetch_add(1, std::memory_order_relaxed);
  return next;
}

Result<std::unique_ptr<MasterFileWriter>> MasterTable::NewFileWriter() {
  DTL_ASSIGN_OR_RETURN(uint64_t file_id, metadata_->NextFileId(table_name_));
  if (file_id > kMaxFileId) return Status::OutOfRange("master file ID space exhausted");
  MasterFileInfo info;
  info.file_id = file_id;
  info.path = MasterFilePath(dir_, file_id);
  // Stage at <path>.tmp; MasterFileWriter::Close renames into place.
  DTL_ASSIGN_OR_RETURN(auto writer, orc::OrcWriter::Create(fs_, info.path + ".tmp",
                                                           schema_, file_id,
                                                           writer_options_));
  return std::unique_ptr<MasterFileWriter>(
      new MasterFileWriter(std::move(writer), std::move(info), fs_));
}

Status MasterTable::RegisterFile(MasterFileInfo info) {
  std::lock_guard<std::mutex> lock(gen_mu_);
  auto next = NewGenerationLocked();
  info.born_generation = next->number_;
  next->files_ = current_->files_;
  next->files_.push_back(std::move(info));
  std::sort(next->files_.begin(), next->files_.end(),
            [](const MasterFileInfo& a, const MasterFileInfo& b) {
              return a.file_id < b.file_id;
            });
  {
    // Every old file survives into the new generation; carry its warmed
    // readers forward so appends don't cold-start the stripe caches.
    std::lock_guard<std::mutex> cache_lock(current_->reader_cache_mu_);
    next->reader_cache_ = current_->reader_cache_;
  }
  // Manifest rename is the commit point: a failure here leaves the old
  // generation current and the new file an orphan for the next Open().
  DTL_RETURN_NOT_OK(WriteManifest(*next));
  current_ = std::move(next);
  return Status::OK();
}

Status MasterTable::ReplaceAllFiles(std::vector<MasterFileInfo> new_files) {
  std::lock_guard<std::mutex> lock(gen_mu_);
  auto next = NewGenerationLocked();
  next->files_ = std::move(new_files);
  // Newly written files (born_generation still the 0 sentinel — real
  // generation numbers start at 1) are born here; files carried over from
  // the pinned generation keep their birth so their cached stripes stay
  // valid across the swap.
  for (MasterFileInfo& f : next->files_) {
    if (f.born_generation == 0) f.born_generation = next->number_;
  }
  std::sort(next->files_.begin(), next->files_.end(),
            [](const MasterFileInfo& a, const MasterFileInfo& b) {
              return a.file_id < b.file_id;
            });
  {
    // Files surviving into the new generation (incremental COMPACT keeps the
    // ones it did not rewrite) carry their warmed readers forward so the swap
    // does not cold-start their stripe caches.
    std::lock_guard<std::mutex> cache_lock(current_->reader_cache_mu_);
    for (const auto& f : next->files_) {
      auto it = current_->reader_cache_.find(f.file_id);
      if (it != current_->reader_cache_.end()) next->reader_cache_[f.file_id] = it->second;
    }
  }
  // Commit the new generation before dooming the old one: after a crash,
  // Open() serves whichever generation the manifest names and
  // garbage-collects the other.
  DTL_RETURN_NOT_OK(WriteManifest(*next));
  // Replaced files stay on disk until the outgoing generation's last
  // snapshot pin drops (its destructor deletes them). Scans pinned to it
  // keep reading byte-identical data; nothing tears. Files carried into the
  // new generation untouched (incremental COMPACT) must NOT be doomed: the
  // new generation still reads them.
  std::vector<std::string> doomed;
  doomed.reserve(current_->files_.size());
  for (const auto& f : current_->files_) {
    bool kept = false;
    for (const auto& nf : next->files_) kept |= (nf.path == f.path);
    if (!kept) doomed.push_back(f.path);
  }
  current_->doomed_paths_ = std::move(doomed);
  current_ = std::move(next);
  return Status::OK();
}

Result<std::shared_ptr<orc::OrcReader>> MasterTable::OpenReader(
    const MasterGenerationPtr& gen, uint64_t file_id) const {
  for (const MasterFileInfo& info : gen->files()) {
    if (info.file_id == file_id) return gen->OpenReader(info);
  }
  return Status::NotFound("no master file with ID " + std::to_string(file_id));
}

Result<std::unique_ptr<MasterScanIterator>> MasterTable::NewScanIterator(
    const MasterGenerationPtr& gen, const table::ScanSpec& spec,
    bool apply_predicate) const {
  std::vector<std::shared_ptr<orc::OrcReader>> readers;
  std::vector<uint64_t> file_ids;
  readers.reserve(gen->files().size());
  for (const MasterFileInfo& info : gen->files()) {
    DTL_ASSIGN_OR_RETURN(auto reader, gen->OpenReader(info));
    readers.push_back(std::move(reader));
    file_ids.push_back(info.file_id);
  }
  return std::unique_ptr<MasterScanIterator>(
      new MasterScanIterator(std::move(readers), std::move(file_ids), spec,
                             schema_.num_fields(), apply_predicate));
}

Result<std::unique_ptr<MasterScanIterator>> MasterTable::NewFileScanIterator(
    const MasterGenerationPtr& gen, uint64_t file_id, const table::ScanSpec& spec,
    bool apply_predicate) const {
  for (const MasterFileInfo& info : gen->files()) {
    if (info.file_id != file_id) continue;
    DTL_ASSIGN_OR_RETURN(auto reader, gen->OpenReader(info));
    return std::unique_ptr<MasterScanIterator>(new MasterScanIterator(
        {std::move(reader)}, {file_id}, spec, schema_.num_fields(), apply_predicate));
  }
  return Status::NotFound("no master file with ID " + std::to_string(file_id));
}

Result<std::unique_ptr<MasterScanBatchIterator>> MasterTable::NewBatchScanIterator(
    const MasterGenerationPtr& gen, const table::ScanSpec& spec, bool apply_predicate,
    size_t batch_rows) const {
  std::vector<std::shared_ptr<orc::OrcReader>> readers;
  std::vector<uint64_t> file_ids;
  readers.reserve(gen->files().size());
  for (const MasterFileInfo& info : gen->files()) {
    DTL_ASSIGN_OR_RETURN(auto reader, gen->OpenReader(info));
    readers.push_back(std::move(reader));
    file_ids.push_back(info.file_id);
  }
  return std::unique_ptr<MasterScanBatchIterator>(
      new MasterScanBatchIterator(std::move(readers), std::move(file_ids), spec,
                                  schema_.num_fields(), apply_predicate, batch_rows));
}

Result<std::unique_ptr<MasterScanIterator>> MasterTable::NewScanIterator(
    const table::ScanSpec& spec, bool apply_predicate) const {
  return NewScanIterator(CurrentGeneration(), spec, apply_predicate);
}

Result<std::unique_ptr<MasterScanBatchIterator>> MasterTable::NewBatchScanIterator(
    const table::ScanSpec& spec, bool apply_predicate, size_t batch_rows) const {
  return NewBatchScanIterator(CurrentGeneration(), spec, apply_predicate, batch_rows);
}

Result<std::vector<ScanMorsel>> MasterTable::PlanMorsels(
    const MasterGenerationPtr& gen, const table::ScanSpec& spec,
    size_t stripes_per_morsel) const {
  stripes_per_morsel = std::max<size_t>(1, stripes_per_morsel);
  std::vector<ScanMorsel> morsels;
  // Pruning is metered HERE, once per plan, and the morsel iterators are
  // built with count_skips=false: the merged worker meters must equal a
  // serial scan's no matter how stripes land in morsel windows.
  table::ScanMeter& meter = spec.meter != nullptr ? *spec.meter : table::GlobalScanMeter();
  for (const MasterFileInfo& info : gen->files()) {
    DTL_ASSIGN_OR_RETURN(auto reader, gen->OpenReader(info));
    ScanMorsel cur;
    size_t surviving = 0;
    size_t bounds_survivors = 0;
    for (size_t s = 0; s < reader->num_stripes(); ++s) {
      const orc::StripeInfo& stripe = reader->stripe(s);
      bool bloom_pruned = false;
      if (!StripeMayMatch(stripe, spec.bounds, &bloom_pruned)) {
        meter.AddSkippedStripe(bloom_pruned);
        continue;
      }
      ++bounds_survivors;
      if (stripe.num_rows == 0) continue;
      if (surviving == 0) {
        cur = ScanMorsel();
        cur.file_id = info.file_id;
        cur.stripe_begin = s;
        cur.first_record_id = MakeRecordId(info.file_id, stripe.first_row);
      }
      cur.stripe_end = s + 1;
      cur.end_record_id = MakeRecordId(info.file_id, stripe.first_row + stripe.num_rows);
      cur.num_rows += stripe.num_rows;
      if (++surviving == stripes_per_morsel) {
        morsels.push_back(cur);
        surviving = 0;
      }
    }
    if (surviving > 0) morsels.push_back(cur);
    if (reader->num_stripes() > 0 && bounds_survivors == 0) meter.AddSkippedFile();
  }
  return morsels;
}

Result<std::unique_ptr<MasterScanBatchIterator>> MasterTable::NewMorselBatchScanIterator(
    const MasterGenerationPtr& gen, const ScanMorsel& morsel, const table::ScanSpec& spec,
    bool apply_predicate, size_t batch_rows) const {
  for (const MasterFileInfo& info : gen->files()) {
    if (info.file_id != morsel.file_id) continue;
    DTL_ASSIGN_OR_RETURN(auto reader, gen->OpenReader(info));
    return std::unique_ptr<MasterScanBatchIterator>(new MasterScanBatchIterator(
        {std::move(reader)}, {morsel.file_id}, spec, schema_.num_fields(),
        apply_predicate, batch_rows, morsel.stripe_begin, morsel.stripe_end,
        /*count_skips=*/false));
  }
  return Status::NotFound("no master file with ID " + std::to_string(morsel.file_id));
}

MasterTable::~MasterTable() {
  if (stripe_cache_ != nullptr) stripe_cache_->EraseOwner(cache_owner_);
}

Status MasterTable::Drop() {
  {
    // Publish an empty generation; the directory (old files included) goes
    // away wholesale below, so the outgoing generation dooms nothing.
    std::lock_guard<std::mutex> lock(gen_mu_);
    current_ = NewGenerationLocked();
  }
  if (stripe_cache_ != nullptr) stripe_cache_->EraseOwner(cache_owner_);
  return fs_->DeleteRecursively(dir_);
}

}  // namespace dtl::dual
