#include "orc/orc_types.h"

#include "common/coding.h"

namespace dtl::orc {

BloomHash BloomKeyHashInt64(int64_t v) {
  char buf[Value::kMaxEncodedHeaderBytes];
  BloomHash hash;
  hash.Update(buf, static_cast<size_t>(Value::EncodeInt64(v, buf) - buf));
  return hash;
}

BloomHash BloomKeyHashString(std::string_view s) {
  char buf[Value::kMaxEncodedHeaderBytes];
  BloomHash hash;
  hash.Update(buf, static_cast<size_t>(Value::EncodeStringHeader(s.size(), buf) - buf));
  hash.Update(s.data(), s.size());
  return hash;
}

BloomHash BloomKeyHash(const Value& v) {
  if (v.is_int64()) return BloomKeyHashInt64(v.AsInt64());
  if (v.is_string()) return BloomKeyHashString(v.AsString());
  // No filter is built over other kinds; hash their encoding all the same.
  std::string key;
  v.EncodeTo(&key);
  return BloomHash::Of(key);
}

bool ColumnStats::BloomMayContain(const Value& v) const {
  if (bloom.empty()) return true;
  return BloomFilter::MayContainSerialized(bloom, BloomKeyHash(v));
}

void ColumnStats::EncodeTo(std::string* dst) const {
  // The leading byte is a flag set; legacy files wrote exactly 0 or 1, so
  // bit 0 keeps its historical has_min_max meaning and old footers decode
  // unchanged (no bloom bit, no bloom bytes follow).
  uint8_t flags = 0;
  if (has_min_max) flags |= 1;
  if (!bloom.empty()) flags |= 2;
  dst->push_back(static_cast<char>(flags));
  if (has_min_max) {
    min.EncodeTo(dst);
    max.EncodeTo(dst);
  }
  if (!bloom.empty()) {
    PutVarint64(dst, bloom.size());
    dst->append(bloom);
  }
  PutVarint64(dst, null_count);
  PutVarint64(dst, value_count);
}

Status ColumnStats::DecodeFrom(Slice* input, ColumnStats* out) {
  if (input->empty()) return Status::Corruption("truncated column stats");
  const uint8_t flags = static_cast<uint8_t>((*input)[0]);
  input->RemovePrefix(1);
  out->has_min_max = (flags & 1) != 0;
  if (out->has_min_max) {
    DTL_RETURN_NOT_OK(Value::DecodeFrom(input, &out->min));
    DTL_RETURN_NOT_OK(Value::DecodeFrom(input, &out->max));
  }
  out->bloom.clear();
  if ((flags & 2) != 0) {
    uint64_t bloom_len = 0;
    DTL_RETURN_NOT_OK(GetVarint64(input, &bloom_len));
    if (input->size() < bloom_len) return Status::Corruption("truncated bloom filter");
    out->bloom.assign(input->data(), bloom_len);
    input->RemovePrefix(bloom_len);
  }
  DTL_RETURN_NOT_OK(GetVarint64(input, &out->null_count));
  DTL_RETURN_NOT_OK(GetVarint64(input, &out->value_count));
  return Status::OK();
}

void StripeInfo::EncodeTo(std::string* dst) const {
  PutVarint64(dst, offset);
  PutVarint64(dst, length);
  PutVarint64(dst, first_row);
  PutVarint64(dst, num_rows);
  for (const StreamInfo& s : streams) {
    PutVarint64(dst, s.presence_length);
    PutVarint64(dst, s.data_length);
    PutFixed32(dst, s.crc);
  }
  for (const ColumnStats& cs : stats) cs.EncodeTo(dst);
}

Status StripeInfo::DecodeFrom(Slice* input, size_t num_columns, StripeInfo* out) {
  DTL_RETURN_NOT_OK(GetVarint64(input, &out->offset));
  DTL_RETURN_NOT_OK(GetVarint64(input, &out->length));
  DTL_RETURN_NOT_OK(GetVarint64(input, &out->first_row));
  DTL_RETURN_NOT_OK(GetVarint64(input, &out->num_rows));
  out->streams.resize(num_columns);
  for (size_t i = 0; i < num_columns; ++i) {
    DTL_RETURN_NOT_OK(GetVarint64(input, &out->streams[i].presence_length));
    DTL_RETURN_NOT_OK(GetVarint64(input, &out->streams[i].data_length));
    if (input->size() < 4) return Status::Corruption("truncated stream CRC");
    out->streams[i].crc = DecodeFixed32(input->data());
    input->RemovePrefix(4);
  }
  out->stats.resize(num_columns);
  for (size_t i = 0; i < num_columns; ++i) {
    DTL_RETURN_NOT_OK(ColumnStats::DecodeFrom(input, &out->stats[i]));
  }
  return Status::OK();
}

void FileFooter::EncodeTo(std::string* dst) const {
  PutVarint64(dst, file_id);
  schema.EncodeTo(dst);
  PutVarint64(dst, num_rows);
  PutVarint64(dst, stripes.size());
  for (const StripeInfo& s : stripes) s.EncodeTo(dst);
}

Status FileFooter::DecodeFrom(Slice input, FileFooter* out) {
  DTL_RETURN_NOT_OK(GetVarint64(&input, &out->file_id));
  DTL_RETURN_NOT_OK(Schema::DecodeFrom(&input, &out->schema));
  DTL_RETURN_NOT_OK(GetVarint64(&input, &out->num_rows));
  uint64_t num_stripes = 0;
  DTL_RETURN_NOT_OK(GetVarint64(&input, &num_stripes));
  // Each directory entry takes at least one byte.
  if (num_stripes > input.size()) return Status::Corruption("stripe count out of range");
  out->stripes.resize(num_stripes);
  for (uint64_t i = 0; i < num_stripes; ++i) {
    DTL_RETURN_NOT_OK(
        StripeInfo::DecodeFrom(&input, out->schema.num_fields(), &out->stripes[i]));
  }
  return Status::OK();
}

}  // namespace dtl::orc
