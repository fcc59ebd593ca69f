// SimFileSystem: an in-memory simulation of HDFS semantics.
//
// The properties that matter for DualTable are enforced faithfully:
//   * files are append-only — there is no API for in-place mutation, so any
//     "update" of HDFS-resident data must rewrite whole files (the root cause
//     of Hive's INSERT OVERWRITE cost that the paper attacks);
//   * files are divided into fixed-size chunks used for MapReduce splits;
//   * streaming (sequential) reads are the fast path; positioned reads are
//     supported (HDFS allows seek-on-read) and metered as seeks;
//   * a namespace (the namenode) maps paths to file metadata;
//   * every byte moved is charged to an IoMeter channel so the ClusterModel
//     can convert runs into modelled cluster seconds.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "fs/fault_injection.h"
#include "fs/io_stats.h"

namespace dtl::fs {

class SimFileSystem;

/// The published bytes of one file version: immutable chunks in file order.
/// A chunk is never modified once created, so copying the chunk list (which
/// shares the chunks) yields a snapshot that later syncs cannot change.
class FileContents {
 public:
  uint64_t size() const { return size_; }
  /// Copies bytes [offset, offset + n) clipped to size() into *out (cleared
  /// first). offset must be <= size().
  void CopyOut(uint64_t offset, size_t n, std::string* out) const;
  /// Adds `bytes` at the end as a fresh chunk. A tail chunk small enough to
  /// absorb them is replaced by a merged copy instead, so a log synced a few
  /// records at a time does not fragment into one chunk per sync; either way
  /// the cost is bounded by the appended bytes plus kCoalesceBytes.
  void Extend(const std::string& bytes);

  /// Largest tail chunk Extend merges into rather than starting a new one.
  static constexpr size_t kCoalesceBytes = 4096;

 private:
  std::vector<std::shared_ptr<const std::string>> chunks_;
  std::vector<uint64_t> ends_;  // ends_[i]: file offset one past chunks_[i]
  uint64_t size_ = 0;
};

/// Append-only writer handle; the file becomes visible to readers on Close
/// (HDFS visibility-on-close semantics).
///
/// The mutating surface is exactly {Append, Sync, Close} — the paper's core
/// storage constraint (no in-place update on HDFS). scripts/lint.py rule
/// `append-only-fs` rejects any additional mutator declared here and any
/// positional-write primitive (WriteAt/Truncate/pwrite) named in the tree.
class WritableFile {
 public:
  ~WritableFile();

  Status Append(const Slice& data);
  /// Publishes everything appended so far to readers while keeping the file
  /// open for further appends (hflush semantics; used by the KV store's WAL).
  /// Costs O(bytes appended since the last sync), not O(file size).
  Status Sync();
  /// Finalizes the file; further Appends fail. Idempotent.
  Status Close();

  uint64_t bytes_written() const { return total_appended_; }

 private:
  friend class SimFileSystem;
  WritableFile(SimFileSystem* fs, std::string path) : fs_(fs), path_(std::move(path)) {}

  SimFileSystem* fs_;
  std::string path_;
  /// Bytes appended since the last successful sync.
  std::string pending_;
  /// The contents this writer last published at path_ (null before its first
  /// sync): everything it has synced. Guarded by the file system's mutex.
  std::shared_ptr<FileContents> published_;
  uint64_t total_appended_ = 0;
  bool closed_ = false;
};

/// Streaming reader over a closed file.
class SequentialFile {
 public:
  /// Reads up to n bytes into *out (cleared first); short read at EOF.
  Status Read(size_t n, std::string* out);
  /// Skips forward without charging read bytes.
  Status Skip(uint64_t n);
  bool AtEnd() const;
  uint64_t offset() const { return offset_; }

 private:
  friend class SimFileSystem;
  SequentialFile(FileContents data, IoMeter* meter, Channel channel)
      : data_(std::move(data)), meter_(meter), channel_(channel) {}

  FileContents data_;
  IoMeter* meter_;
  Channel channel_;
  uint64_t offset_ = 0;
};

/// Positioned reader over a closed file. Each ReadAt is metered as one seek
/// plus the bytes read.
class RandomAccessFile {
 public:
  Status ReadAt(uint64_t offset, size_t n, std::string* out) const;
  uint64_t size() const { return data_.size(); }

 private:
  friend class SimFileSystem;
  RandomAccessFile(FileContents data, IoMeter* meter, Channel channel)
      : data_(std::move(data)), meter_(meter), channel_(channel) {}

  FileContents data_;
  IoMeter* meter_;
  Channel channel_;
};

/// Options controlling the simulated cluster file system.
struct FileSystemOptions {
  uint64_t chunk_size_bytes = 8ull << 20;  // laptop-scale default; 64 MB on paper scale
  /// Paths under this prefix are charged to the HBase channel (the KV store
  /// hosts its WAL and SSTables here, mirroring HBase-on-HDFS).
  std::string hbase_prefix = "/hbase/";
};

/// The simulated namenode + datanodes. Thread-safe.
class SimFileSystem {
 public:
  explicit SimFileSystem(FileSystemOptions options = FileSystemOptions());

  // -- namespace operations (namenode) --
  Status CreateDir(const std::string& path);
  Result<std::vector<std::string>> ListDir(const std::string& path) const;
  bool Exists(const std::string& path) const;
  Result<uint64_t> FileSize(const std::string& path) const;
  Status Delete(const std::string& path);
  /// Removes a directory and every file under it.
  Status DeleteRecursively(const std::string& path);
  Status Rename(const std::string& from, const std::string& to);

  // -- data operations (datanodes) --
  Result<std::unique_ptr<WritableFile>> NewWritableFile(const std::string& path);
  Result<std::unique_ptr<SequentialFile>> NewSequentialFile(const std::string& path) const;
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) const;

  /// Number of chunk-aligned splits a file would produce in a MapReduce job.
  Result<int> NumChunks(const std::string& path) const;

  IoMeter* meter() { return &meter_; }
  const FileSystemOptions& options() const { return options_; }

  /// Total bytes stored across all files (unreplicated logical size).
  uint64_t TotalBytesStored() const;

  // -- fault injection (crash-consistency test harness) --

  /// Installs a fault policy; replaces any previous policy and resets the
  /// matching-op counter and crash state.
  void SetFaultPolicy(FaultPolicy policy);
  /// Removes the policy and clears the crashed state — the harness's
  /// "process restart". Synced data survives; nothing else changes.
  void ClearFaultPolicy();
  /// True once a kCrash policy has fired (until ClearFaultPolicy).
  bool HasCrashed() const;
  /// Operations the installed policy has matched so far, the firing one
  /// included. With a trigger past the workload it counts them all without
  /// firing, which is how an error sweep sizes its range.
  uint64_t FaultMatchingOpCount() const;
  /// Total mutating operations observed since construction, counted whether
  /// or not a policy is installed. Sweeps size their crash-point range by
  /// running the workload once fault-free and reading this.
  uint64_t MutatingOpCount() const;
  /// Flips bits in a stored file: byte at `offset` is XORed with `xor_mask`.
  /// Models silent media corruption; test-only.
  Status CorruptFile(const std::string& path, uint64_t offset, uint8_t xor_mask);

 private:
  friend class WritableFile;

  Channel ChannelFor(const std::string& path) const;
  /// Counts one mutating op against the installed policy; returns the
  /// injected error when the policy fires (or has already crashed the file
  /// system). For kSync crash triggers, *torn_fraction is set to the
  /// policy's tear_fraction so CommitFileDelta can publish a partial delta.
  Status CheckFault(FaultOp op, const std::string& path,
                    double* torn_fraction = nullptr);
  /// Publishes the writer's pending bytes, charging exactly their size. The
  /// writer's published contents are extended in place while they are still
  /// the node at its path; otherwise (first sync, or the path was replaced,
  /// renamed away or deleted since) a new node with everything the writer
  /// has synced takes the path. Readers copy the chunk list at open, so no
  /// reader ever holds the contents a sync extends.
  Status CommitFileDelta(WritableFile* writer);

  struct FileNode {
    std::shared_ptr<FileContents> contents;
  };

  FileSystemOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, FileNode> files_;
  std::map<std::string, bool> dirs_;
  mutable IoMeter meter_;

  /// Fault state lives under its own mutex: CheckFault runs at operation
  /// entry, before mu_ is taken, so the two never nest.
  mutable std::mutex fault_mu_;
  std::optional<FaultPolicy> fault_policy_;
  uint64_t fault_matching_ops_ = 0;
  uint64_t mutating_ops_ = 0;
  bool fault_fired_ = false;
  bool crashed_ = false;
};

/// Joins two path segments with exactly one '/'.
std::string JoinPath(const std::string& dir, const std::string& name);

}  // namespace dtl::fs
