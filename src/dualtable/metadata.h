// The system-wide metadata table (paper §V-B): an HBase-backed counter map
// that hands out incremental file IDs per DualTable, plus bookkeeping used
// by the cost evaluator (update-ratio history).
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/status.h"
#include "fs/filesystem.h"
#include "kv/store.h"

namespace dtl::dual {

/// Cluster-wide metadata service. One instance per simulated deployment.
class MetadataTable {
 public:
  static Result<std::unique_ptr<MetadataTable>> Open(fs::SimFileSystem* fs,
                                                     const std::string& dir = "/hbase/_meta");

  /// Returns the next unique master-file ID for `table_name` (1-based) and
  /// persists the increment.
  Result<uint64_t> NextFileId(const std::string& table_name);

  /// Records the observed modification ratio of a DML statement so later
  /// statements can be costed from history (paper: "estimated using
  /// historical analysis of the execution log").
  Status RecordModificationRatio(const std::string& table_name, double ratio);

  /// Exponentially-weighted historical modification ratio, or nullopt when
  /// no history exists.
  Result<std::optional<double>> HistoricalModificationRatio(
      const std::string& table_name);

 private:
  explicit MetadataTable(std::unique_ptr<kv::KvStore> store) : store_(std::move(store)) {}

  std::mutex mu_;
  std::unique_ptr<kv::KvStore> store_;
};

}  // namespace dtl::dual
