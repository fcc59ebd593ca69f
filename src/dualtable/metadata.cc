#include "dualtable/metadata.h"

#include <cstdio>
#include <cstdlib>

namespace dtl::dual {

namespace {
constexpr uint32_t kFileIdQualifier = 1;
constexpr uint32_t kRatioQualifier = 2;
constexpr double kHistoryDecay = 0.5;  // weight of the newest observation
}  // namespace

Result<std::unique_ptr<MetadataTable>> MetadataTable::Open(fs::SimFileSystem* fs,
                                                           const std::string& dir) {
  kv::KvStoreOptions options;
  options.dir = dir;
  // Metadata (file-ID counters) must never be lost: sync the WAL per write.
  options.wal_sync_interval_bytes = 1;
  DTL_ASSIGN_OR_RETURN(auto store, kv::KvStore::Open(fs, std::move(options)));
  return std::unique_ptr<MetadataTable>(new MetadataTable(std::move(store)));
}

Result<uint64_t> MetadataTable::NextFileId(const std::string& table_name) {
  std::lock_guard<std::mutex> lock(mu_);
  DTL_ASSIGN_OR_RETURN(auto current, store_->Get(table_name, kFileIdQualifier));
  uint64_t next = 1;
  if (current.has_value()) next = std::strtoull(current->c_str(), nullptr, 10) + 1;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(next));
  DTL_RETURN_NOT_OK(store_->Put(table_name, kFileIdQualifier, buf));
  return next;
}

Status MetadataTable::RecordModificationRatio(const std::string& table_name,
                                              double ratio) {
  std::lock_guard<std::mutex> lock(mu_);
  DTL_ASSIGN_OR_RETURN(auto current, store_->Get(table_name, kRatioQualifier));
  double blended = ratio;
  if (current.has_value()) {
    double prev = std::strtod(current->c_str(), nullptr);
    blended = kHistoryDecay * ratio + (1.0 - kHistoryDecay) * prev;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9f", blended);
  return store_->Put(table_name, kRatioQualifier, buf);
}

Result<std::optional<double>> MetadataTable::HistoricalModificationRatio(
    const std::string& table_name) {
  std::lock_guard<std::mutex> lock(mu_);
  DTL_ASSIGN_OR_RETURN(auto current, store_->Get(table_name, kRatioQualifier));
  if (!current.has_value()) return std::optional<double>();
  return std::optional<double>(std::strtod(current->c_str(), nullptr));
}

}  // namespace dtl::dual
