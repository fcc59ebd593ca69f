#include "fs/filesystem.h"

#include <algorithm>

namespace dtl::fs {

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  if (dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

// --- fault injection ---------------------------------------------------------

const char* FaultOpName(FaultOp op) {
  switch (op) {
    case FaultOp::kCreate: return "create";
    case FaultOp::kAppend: return "append";
    case FaultOp::kSync: return "sync";
    case FaultOp::kRename: return "rename";
    case FaultOp::kDelete: return "delete";
  }
  return "unknown";
}

bool FaultPolicy::Matches(FaultOp op, const std::string& path) const {
  if (!ops.empty() && std::find(ops.begin(), ops.end(), op) == ops.end()) return false;
  if (!path_substring.empty() && path.find(path_substring) == std::string::npos) {
    return false;
  }
  return true;
}

void SimFileSystem::SetFaultPolicy(FaultPolicy policy) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  fault_policy_ = std::move(policy);
  fault_matching_ops_ = 0;
  fault_fired_ = false;
  crashed_ = false;
}

void SimFileSystem::ClearFaultPolicy() {
  std::lock_guard<std::mutex> lock(fault_mu_);
  fault_policy_.reset();
  fault_matching_ops_ = 0;
  fault_fired_ = false;
  crashed_ = false;
}

bool SimFileSystem::HasCrashed() const {
  std::lock_guard<std::mutex> lock(fault_mu_);
  return crashed_;
}

uint64_t SimFileSystem::FaultMatchingOpCount() const {
  std::lock_guard<std::mutex> lock(fault_mu_);
  return fault_matching_ops_;
}

uint64_t SimFileSystem::MutatingOpCount() const {
  std::lock_guard<std::mutex> lock(fault_mu_);
  return mutating_ops_;
}

Status SimFileSystem::CheckFault(FaultOp op, const std::string& path,
                                 double* torn_fraction) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  ++mutating_ops_;
  if (crashed_) {
    return Status::IoError("simulated crash: file system is down (" +
                           std::string(FaultOpName(op)) + " " + path + ")");
  }
  if (!fault_policy_.has_value() || fault_fired_) return Status::OK();
  if (!fault_policy_->Matches(op, path)) return Status::OK();
  if (++fault_matching_ops_ < fault_policy_->trigger_after_ops) return Status::OK();
  fault_fired_ = true;
  if (fault_policy_->mode == FaultMode::kCrash) {
    crashed_ = true;
    if (op == FaultOp::kSync && torn_fraction != nullptr) {
      *torn_fraction = fault_policy_->tear_fraction;
    }
    return Status::IoError("simulated crash during " + std::string(FaultOpName(op)) +
                           " of " + path);
  }
  return Status::IoError("injected IO error during " + std::string(FaultOpName(op)) +
                         " of " + path);
}

Status SimFileSystem::CorruptFile(const std::string& path, uint64_t offset,
                                  uint8_t xor_mask) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  const FileContents& contents = *it->second.contents;
  if (offset >= contents.size()) {
    return Status::OutOfRange("corruption offset past end of " + path);
  }
  std::string mutated;
  contents.CopyOut(0, contents.size(), &mutated);
  mutated[offset] = static_cast<char>(mutated[offset] ^ xor_mask);
  auto replaced = std::make_shared<FileContents>();
  replaced->Extend(mutated);
  it->second.contents = std::move(replaced);
  return Status::OK();
}

// --- FileContents -------------------------------------------------------------

void FileContents::CopyOut(uint64_t offset, size_t n, std::string* out) const {
  out->clear();
  const uint64_t end = offset + std::min<uint64_t>(n, size_ - offset);
  if (offset >= end) return;
  out->reserve(end - offset);
  // First chunk that ends past `offset`.
  size_t i = static_cast<size_t>(
      std::upper_bound(ends_.begin(), ends_.end(), offset) - ends_.begin());
  uint64_t pos = offset;
  while (pos < end) {
    const uint64_t chunk_start = i == 0 ? 0 : ends_[i - 1];
    const uint64_t take = std::min(end, ends_[i]) - pos;
    out->append(chunks_[i]->data() + (pos - chunk_start), take);
    pos += take;
    ++i;
  }
}

void FileContents::Extend(const std::string& bytes) {
  if (bytes.empty()) return;
  size_ += bytes.size();
  if (!chunks_.empty() && chunks_.back()->size() + bytes.size() <= kCoalesceBytes) {
    auto merged = std::make_shared<std::string>();
    merged->reserve(chunks_.back()->size() + bytes.size());
    merged->append(*chunks_.back());
    merged->append(bytes);
    chunks_.back() = std::move(merged);
    ends_.back() = size_;
    return;
  }
  chunks_.push_back(std::make_shared<const std::string>(bytes));
  ends_.push_back(size_);
}

// --- WritableFile -----------------------------------------------------------

WritableFile::~WritableFile() {
  // Dropping an unclosed writer discards the data, like an HDFS lease abort.
}

Status WritableFile::Append(const Slice& data) {
  if (closed_) return Status::IoError("append to closed file " + path_);
  DTL_RETURN_NOT_OK(fs_->CheckFault(FaultOp::kAppend, path_));
  pending_.append(data.data(), data.size());
  total_appended_ += data.size();
  return Status::OK();
}

Status WritableFile::Sync() {
  if (closed_) return Status::IoError("sync on closed file " + path_);
  return fs_->CommitFileDelta(this);
}

Status WritableFile::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  Status st = fs_->CommitFileDelta(this);
  std::string().swap(pending_);
  return st;
}

// --- SequentialFile ----------------------------------------------------------

Status SequentialFile::Read(size_t n, std::string* out) {
  out->clear();
  if (offset_ >= data_.size()) return Status::OK();
  data_.CopyOut(offset_, n, out);
  offset_ += out->size();
  meter_->ChargeRead(channel_, out->size());
  return Status::OK();
}

Status SequentialFile::Skip(uint64_t n) {
  if (offset_ + n > data_.size()) return Status::OutOfRange("skip past end of file");
  offset_ += n;
  return Status::OK();
}

bool SequentialFile::AtEnd() const { return offset_ >= data_.size(); }

// --- RandomAccessFile --------------------------------------------------------

Status RandomAccessFile::ReadAt(uint64_t offset, size_t n, std::string* out) const {
  out->clear();
  if (offset > data_.size()) return Status::OutOfRange("read past end of file");
  data_.CopyOut(offset, n, out);
  meter_->ChargeSeek();
  meter_->ChargeRead(channel_, out->size());
  return Status::OK();
}

// --- SimFileSystem -----------------------------------------------------------

SimFileSystem::SimFileSystem(FileSystemOptions options) : options_(std::move(options)) {
  dirs_["/"] = true;
}

Channel SimFileSystem::ChannelFor(const std::string& path) const {
  if (!options_.hbase_prefix.empty() &&
      path.compare(0, options_.hbase_prefix.size(), options_.hbase_prefix) == 0) {
    return Channel::kHBase;
  }
  return Channel::kHdfs;
}

Status SimFileSystem::CreateDir(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  dirs_[path] = true;
  return Status::OK();
}

Result<std::vector<std::string>> SimFileSystem::ListDir(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string prefix = path;
  if (prefix.empty() || prefix.back() != '/') prefix += '/';
  std::vector<std::string> names;
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    const std::string& p = it->first;
    if (p.compare(0, prefix.size(), prefix) != 0) break;
    // Only direct children.
    if (p.find('/', prefix.size()) == std::string::npos) {
      names.push_back(p.substr(prefix.size()));
    }
  }
  return names;
}

bool SimFileSystem::Exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0 || dirs_.count(path) > 0;
}

Result<uint64_t> SimFileSystem::FileSize(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  return it->second.contents->size();
}

Status SimFileSystem::Delete(const std::string& path) {
  DTL_RETURN_NOT_OK(CheckFault(FaultOp::kDelete, path));
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.erase(path) == 0 && dirs_.erase(path) == 0) {
    return Status::NotFound("no such file: " + path);
  }
  return Status::OK();
}

Status SimFileSystem::DeleteRecursively(const std::string& path) {
  DTL_RETURN_NOT_OK(CheckFault(FaultOp::kDelete, path));
  std::lock_guard<std::mutex> lock(mu_);
  std::string prefix = path;
  if (prefix.empty() || prefix.back() != '/') prefix += '/';
  for (auto it = files_.lower_bound(prefix); it != files_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    it = files_.erase(it);
  }
  for (auto it = dirs_.lower_bound(prefix); it != dirs_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    it = dirs_.erase(it);
  }
  dirs_.erase(path);
  files_.erase(path);
  return Status::OK();
}

Status SimFileSystem::Rename(const std::string& from, const std::string& to) {
  DTL_RETURN_NOT_OK(CheckFault(FaultOp::kRename, from));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound("no such file: " + from);
  files_[to] = std::move(it->second);
  files_.erase(it);
  return Status::OK();
}

Result<std::unique_ptr<WritableFile>> SimFileSystem::NewWritableFile(
    const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return Status::InvalidArgument("path must be absolute: " + path);
  }
  DTL_RETURN_NOT_OK(CheckFault(FaultOp::kCreate, path));
  return std::unique_ptr<WritableFile>(new WritableFile(this, path));
}

Status SimFileSystem::CommitFileDelta(WritableFile* writer) {
  const std::string& path = writer->path_;
  const std::string& pending = writer->pending_;
  std::shared_ptr<FileContents>& published = writer->published_;
  double torn_fraction = -1.0;
  Status fault = CheckFault(FaultOp::kSync, path, &torn_fraction);
  if (!fault.ok()) {
    // A crash that lands on the commit itself may still get a prefix of the
    // un-synced delta to "disk" (a torn write). The writer's state is left
    // untouched: it never learns the data landed. The torn node is a copy,
    // so a later sync by this writer republishes rather than extends it.
    if (torn_fraction > 0.0) {
      const uint64_t keep =
          static_cast<uint64_t>(static_cast<double>(pending.size()) * torn_fraction);
      std::lock_guard<std::mutex> lock(mu_);
      auto torn = published != nullptr ? std::make_shared<FileContents>(*published)
                                       : std::make_shared<FileContents>();
      torn->Extend(pending.substr(0, keep));
      if (torn->size() > 0) {
        if (files_.find(path) == files_.end()) meter_.ChargeFileCreate();
        files_[path] = FileNode{std::move(torn)};
      }
    }
    return fault;
  }
  meter_.ChargeWrite(ChannelFor(path), pending.size());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) meter_.ChargeFileCreate();
  if (it == files_.end() || it->second.contents != published) {
    published = published != nullptr ? std::make_shared<FileContents>(*published)
                                      : std::make_shared<FileContents>();
    files_[path] = FileNode{published};
  }
  published->Extend(pending);
  writer->pending_.clear();
  return Status::OK();
}

Result<std::unique_ptr<SequentialFile>> SimFileSystem::NewSequentialFile(
    const std::string& path) const {
  FileContents data;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound("no such file: " + path);
    data = *it->second.contents;
  }
  return std::unique_ptr<SequentialFile>(
      new SequentialFile(std::move(data), &meter_, ChannelFor(path)));
}

Result<std::unique_ptr<RandomAccessFile>> SimFileSystem::NewRandomAccessFile(
    const std::string& path) const {
  FileContents data;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound("no such file: " + path);
    data = *it->second.contents;
  }
  return std::unique_ptr<RandomAccessFile>(
      new RandomAccessFile(std::move(data), &meter_, ChannelFor(path)));
}

Result<int> SimFileSystem::NumChunks(const std::string& path) const {
  DTL_ASSIGN_OR_RETURN(uint64_t size, FileSize(path));
  if (size == 0) return 1;
  return static_cast<int>((size + options_.chunk_size_bytes - 1) / options_.chunk_size_bytes);
}

uint64_t SimFileSystem::TotalBytesStored() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [path, node] : files_) total += node.contents->size();
  return total;
}

}  // namespace dtl::fs
