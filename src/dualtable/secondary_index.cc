#include "dualtable/secondary_index.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"
#include "dualtable/record_id.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace dtl::dual {

namespace {

constexpr char kTagInt64 = 0x01;
constexpr char kTagString = 0x02;

// Sorts after every entry key: real column ordinals are bounded well below
// 0xFFFFFFFF by the attached table's reserved qualifiers.
const char kMetaPrefix[4] = {'\xFF', '\xFF', '\xFF', '\xFF'};

std::string MetaKey() { return std::string(kMetaPrefix, 4) + "meta"; }

void PutBigEndian32(std::string* dst, uint32_t v) {
  dst->push_back(static_cast<char>(v >> 24));
  dst->push_back(static_cast<char>(v >> 16));
  dst->push_back(static_cast<char>(v >> 8));
  dst->push_back(static_cast<char>(v));
}

// XOR-ing the sign bit maps int64 numeric order onto unsigned big-endian
// memcmp order (negatives sort below positives).
void PutOrderedInt64(std::string* dst, int64_t v) {
  PutBigEndian64(dst, static_cast<uint64_t>(v) ^ (1ull << 63));
}

// 0x00 bytes escape to 0x00 0xFF; the 0x00 0x00 terminator then sorts below
// every continuation, so no encoded string is a prefix of another and
// lexicographic order is preserved.
void PutOrderedString(std::string* dst, const std::string& s) {
  for (char c : s) {
    dst->push_back(c);
    if (c == '\x00') dst->push_back('\xFF');
  }
  dst->push_back('\x00');
  dst->push_back('\x00');
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         memcmp(s.data(), prefix.data(), prefix.size()) == 0;
}

}  // namespace

bool SecondaryIndex::EncodePrefix(size_t column, const Value& value,
                                  std::string* dst) {
  dst->clear();
  PutBigEndian32(dst, static_cast<uint32_t>(column));
  if (value.is_int64()) {
    dst->push_back(kTagInt64);
    PutOrderedInt64(dst, value.AsInt64());
    return true;
  }
  if (value.is_string()) {
    dst->push_back(kTagString);
    PutOrderedString(dst, value.AsString());
    return true;
  }
  return false;
}

Result<std::unique_ptr<SecondaryIndex>> SecondaryIndex::Open(
    fs::SimFileSystem* fs, const std::string& table_name,
    std::vector<size_t> columns, const Schema& schema,
    kv::KvStoreOptions base_options) {
  for (size_t c : columns) {
    if (c >= schema.num_fields()) {
      return Status::InvalidArgument("indexed column ordinal out of range");
    }
    if (!IndexableType(schema.field(c).type)) {
      return Status::InvalidArgument("column '" + schema.field(c).name +
                                     "' has no order-preserving index encoding");
    }
  }
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  base_options.dir = "/hbase/" + table_name + "_index";
  std::string dir = base_options.dir;
  DTL_ASSIGN_OR_RETURN(auto store, kv::KvStore::Open(fs, std::move(base_options)));
  return std::unique_ptr<SecondaryIndex>(
      new SecondaryIndex(fs, std::move(dir), std::move(store), std::move(columns)));
}

Status SecondaryIndex::Add(size_t column, const Value& value, uint64_t record_id) {
  std::string key;
  if (!EncodePrefix(column, value, &key)) return Status::OK();
  PutBigEndian64(&key, record_id);
  DTL_RETURN_NOT_OK(store_->Put(key, 0, ""));
  stats_.entries_added.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status SecondaryIndex::AddRow(const Row& row, uint64_t record_id) {
  for (size_t c : columns_) {
    if (c >= row.size()) continue;
    DTL_RETURN_NOT_OK(Add(c, row[c], record_id));
  }
  return Status::OK();
}

void SecondaryIndex::BindMetrics(obs::MetricsRegistry* metrics,
                                 const std::string& label) {
  if (metrics == nullptr) return;
  lookups_ctr_ = metrics->counter(obs::names::kIndexCounterLookups, label);
  stale_skipped_ctr_ = metrics->counter(obs::names::kIndexCounterStaleSkipped, label);
  rebuilds_ctr_ = metrics->counter(obs::names::kIndexCounterRebuilds, label);
}

void SecondaryIndex::CountLookup() const {
  stats_.lookups.fetch_add(1, std::memory_order_relaxed);
  if (lookups_ctr_ != nullptr) lookups_ctr_->Inc();
}

void SecondaryIndex::CountStaleSkipped() const {
  stats_.stale_dropped.fetch_add(1, std::memory_order_relaxed);
  if (stale_skipped_ctr_ != nullptr) stale_skipped_ctr_->Inc();
}

void SecondaryIndex::CountRebuild() const {
  stats_.rebuilds.fetch_add(1, std::memory_order_relaxed);
  if (rebuilds_ctr_ != nullptr) rebuilds_ctr_->Inc();
}

Result<std::vector<uint64_t>> SecondaryIndex::LookupAt(
    const kv::KvSnapshot& snapshot, size_t column, const Value& value) const {
  CountLookup();
  std::vector<uint64_t> out;
  std::string prefix;
  if (!EncodePrefix(column, value, &prefix)) return out;
  auto rows = store_->NewRowScannerAt(snapshot, &prefix);
  while (rows->Next()) {
    const std::string& key = rows->view().row();
    if (!StartsWith(key, prefix)) break;
    if (key.size() != prefix.size() + 8) continue;
    out.push_back(DecodeBigEndian64(key.data() + prefix.size()));
  }
  DTL_RETURN_NOT_OK(rows->status());
  stats_.candidate_rows.fetch_add(out.size(), std::memory_order_relaxed);
  return out;
}

Status SecondaryIndex::FoldDeadFiles(
    const std::unordered_set<uint64_t>& dead_file_ids) {
  if (dead_file_ids.empty()) return Status::OK();
  std::vector<std::string> dead_keys;
  const std::string meta_key = MetaKey();
  auto rows = store_->NewRowScannerAt(store_->GetSnapshot(), nullptr);
  while (rows->Next()) {
    const std::string& key = rows->view().row();
    if (key == meta_key || key.size() < 4 + 1 + 8) continue;
    const uint64_t rid = DecodeBigEndian64(key.data() + key.size() - 8);
    if (dead_file_ids.count(RecordFileId(rid)) > 0) dead_keys.push_back(key);
  }
  DTL_RETURN_NOT_OK(rows->status());
  for (const std::string& key : dead_keys) {
    DTL_RETURN_NOT_OK(store_->DeleteRow(key));
  }
  stats_.entries_folded.fetch_add(dead_keys.size(), std::memory_order_relaxed);
  // Physically reclaim the tombstoned entries; pinned snapshots stay valid
  // because they hold the pre-compaction SSTables alive.
  return store_->Compact();
}

Result<std::optional<SecondaryIndex::Meta>> SecondaryIndex::ReadMeta() {
  DTL_ASSIGN_OR_RETURN(auto raw, store_->Get(MetaKey(), 0));
  if (!raw.has_value()) return std::optional<Meta>();
  Slice in(*raw);
  Meta meta;
  DTL_RETURN_NOT_OK(GetVarint64(&in, &meta.master_generation));
  DTL_RETURN_NOT_OK(GetVarint64(&in, &meta.attached_ts));
  uint64_t count = 0;
  DTL_RETURN_NOT_OK(GetVarint64(&in, &count));
  meta.columns.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t ordinal = 0;
    DTL_RETURN_NOT_OK(GetVarint64(&in, &ordinal));
    meta.columns.push_back(static_cast<size_t>(ordinal));
  }
  return std::optional<Meta>(std::move(meta));
}

Status SecondaryIndex::WriteMeta(uint64_t master_generation, uint64_t attached_ts) {
  std::string encoded;
  PutVarint64(&encoded, master_generation);
  PutVarint64(&encoded, attached_ts);
  PutVarint64(&encoded, columns_.size());
  for (size_t c : columns_) PutVarint64(&encoded, c);
  DTL_RETURN_NOT_OK(store_->Put(MetaKey(), 0, encoded));
  return store_->SyncWal();
}

Status SecondaryIndex::Drop() {
  DTL_RETURN_NOT_OK(store_->Clear());
  return fs_->DeleteRecursively(dir_);
}

}  // namespace dtl::dual
