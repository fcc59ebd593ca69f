#include "orc/writer.h"

#include <optional>

#include "common/bloom.h"
#include "common/coding.h"
#include "orc/encoding.h"

namespace dtl::orc {

namespace {

/// Whether a non-null cell is of the kind a column of `type` stores.
bool KindMatches(const Value& v, DataType type) {
  switch (type) {
    case DataType::kInt64:
    case DataType::kDate:
      return v.is_int64();
    case DataType::kDouble:
      return v.is_double();
    case DataType::kString:
      return v.is_string();
    case DataType::kBool:
      return v.is_bool();
    case DataType::kNull:
      break;
  }
  return false;
}

/// Appends `x` to a typed column and moves its min/max index past it when
/// it is strictly smaller/larger, so ties keep the first value seen.
template <typename T>
void PushTyped(std::vector<T>* values, T x, size_t* min, size_t* max) {
  const size_t i = values->size();
  values->push_back(x);
  if (x < (*values)[*min]) *min = i;
  if (x > (*values)[*max]) *max = i;
}

}  // namespace

size_t OrcWriter::ColumnBuffer::non_null() const {
  // Only the vector of the column's type is ever filled.
  return ints.size() + doubles.size() + bools.size() + ends.size();
}

void OrcWriter::ColumnBuffer::Clear() {
  present.clear();
  ints.clear();
  doubles.clear();
  bools.clear();
  chars.clear();
  ends.clear();
  min = 0;
  max = 0;
}

Result<std::unique_ptr<OrcWriter>> OrcWriter::Create(fs::SimFileSystem* fs,
                                                     const std::string& path,
                                                     const Schema& schema, uint64_t file_id,
                                                     WriterOptions options) {
  if (schema.num_fields() == 0) {
    return Status::InvalidArgument("ORC schema must have at least one column");
  }
  if (options.stripe_rows == 0) {
    return Status::InvalidArgument("stripe_rows must be positive");
  }
  DTL_ASSIGN_OR_RETURN(auto file, fs->NewWritableFile(path));
  return std::unique_ptr<OrcWriter>(
      new OrcWriter(std::move(file), schema, file_id, options));
}

OrcWriter::OrcWriter(std::unique_ptr<fs::WritableFile> file, Schema schema,
                     uint64_t file_id, WriterOptions options)
    : file_(std::move(file)),
      schema_(std::move(schema)),
      options_(options),
      columns_(schema_.num_fields()) {
  footer_.file_id = file_id;
  footer_.schema = schema_;
}

Status OrcWriter::Append(const Row& row) {
  if (closed_) return Status::IoError("append to closed ORC writer");
  if (row.size() != schema_.num_fields()) {
    return Status::InvalidArgument("row arity " + std::to_string(row.size()) +
                                   " does not match schema arity " +
                                   std::to_string(schema_.num_fields()));
  }
  for (size_t col = 0; col < row.size(); ++col) {
    const Value& v = row[col];
    if (!v.is_null() && !KindMatches(v, schema_.field(col).type)) {
      return Status::InvalidArgument("column " + schema_.field(col).name + " of type " +
                                     DataTypeName(schema_.field(col).type) +
                                     " cannot hold " + v.ToString());
    }
  }
  for (size_t col = 0; col < row.size(); ++col) {
    const Value& v = row[col];
    ColumnBuffer& c = columns_[col];
    c.present.push_back(static_cast<uint8_t>(v.is_null() ? 0 : 1));
    if (v.is_null()) continue;
    if (v.is_int64()) {
      PushTyped(&c.ints, v.AsInt64(), &c.min, &c.max);
    } else if (v.is_double()) {
      PushTyped(&c.doubles, v.AsDouble(), &c.min, &c.max);
    } else if (v.is_bool()) {
      PushTyped(&c.bools, static_cast<uint8_t>(v.AsBool() ? 1 : 0), &c.min, &c.max);
    } else {
      c.chars += v.AsString();
      c.ends.push_back(c.chars.size());
      const size_t i = c.ends.size() - 1;
      if (c.string_at(i) < c.string_at(c.min)) c.min = i;
      if (c.string_at(i) > c.string_at(c.max)) c.max = i;
    }
  }
  ++pending_rows_;
  ++rows_written_;
  if (pending_rows_ >= options_.stripe_rows) return FlushStripe();
  return Status::OK();
}

Status OrcWriter::AppendRawStripe(const StripeInfo& info, const std::string& stripe_bytes) {
  if (closed_) return Status::IoError("append to closed ORC writer");
  if (info.streams.size() != schema_.num_fields()) {
    return Status::InvalidArgument("raw stripe column count " +
                                   std::to_string(info.streams.size()) +
                                   " does not match schema arity " +
                                   std::to_string(schema_.num_fields()));
  }
  if (stripe_bytes.size() != info.length) {
    return Status::InvalidArgument("raw stripe byte count disagrees with stripe length");
  }
  DTL_RETURN_NOT_OK(FlushStripe());
  StripeInfo copy = info;
  copy.offset = file_offset_;
  copy.first_row = rows_written_;
  DTL_RETURN_NOT_OK(file_->Append(stripe_bytes));
  file_offset_ += stripe_bytes.size();
  rows_written_ += info.num_rows;
  footer_.stripes.push_back(std::move(copy));
  return Status::OK();
}

Status OrcWriter::FlushStripe() {
  if (pending_rows_ == 0) return Status::OK();
  const size_t num_cols = schema_.num_fields();

  StripeInfo stripe;
  stripe.offset = file_offset_;
  stripe.first_row = rows_written_ - pending_rows_;
  stripe.num_rows = pending_rows_;
  stripe.streams.resize(num_cols);
  stripe.stats.resize(num_cols);

  std::string stripe_bytes;
  for (size_t col = 0; col < num_cols; ++col) {
    DTL_RETURN_NOT_OK(
        EncodeColumn(col, &stripe_bytes, &stripe.streams[col], &stripe.stats[col]));
  }

  stripe.length = stripe_bytes.size();
  DTL_RETURN_NOT_OK(file_->Append(stripe_bytes));
  file_offset_ += stripe_bytes.size();
  footer_.stripes.push_back(std::move(stripe));
  for (ColumnBuffer& c : columns_) c.Clear();
  pending_rows_ = 0;
  return Status::OK();
}

Status OrcWriter::EncodeColumn(size_t col, std::string* stripe_bytes, StreamInfo* streams,
                               ColumnStats* stats) {
  const ColumnBuffer& c = columns_[col];
  const DataType type = schema_.field(col).type;
  const size_t non_null = c.non_null();
  stats->value_count = c.present.size();
  stats->null_count = c.present.size() - non_null;
  stats->has_min_max = non_null > 0;

  const size_t col_start = stripe_bytes->size();
  EncodeBoolStream(c.present, stripe_bytes);
  const size_t data_start = stripe_bytes->size();

  // Bloom filters only pay off where equality probes happen: integer,
  // date, and string keys. Doubles and bools are left to min/max.
  std::optional<BloomFilter> filter;
  if (options_.bloom_filters && non_null > 0 &&
      (type == DataType::kInt64 || type == DataType::kDate ||
       type == DataType::kString)) {
    filter.emplace(non_null, options_.bloom_bits_per_key);
  }
  switch (type) {
    case DataType::kInt64:
    case DataType::kDate:
      EncodeInt64Stream(c.ints, stripe_bytes);
      if (non_null > 0) {
        stats->min = Value::Int64(c.ints[c.min]);
        stats->max = Value::Int64(c.ints[c.max]);
      }
      if (filter) {
        for (int64_t v : c.ints) filter->Add(BloomKeyHashInt64(v));
      }
      break;
    case DataType::kDouble:
      EncodeDoubleStream(c.doubles, stripe_bytes);
      if (non_null > 0) {
        stats->min = Value::Double(c.doubles[c.min]);
        stats->max = Value::Double(c.doubles[c.max]);
      }
      break;
    case DataType::kString: {
      std::vector<std::string_view> views(non_null);
      for (size_t i = 0; i < non_null; ++i) views[i] = c.string_at(i);
      EncodeStringStream(views, stripe_bytes);
      if (non_null > 0) {
        stats->min = Value::String(std::string(views[c.min]));
        stats->max = Value::String(std::string(views[c.max]));
      }
      if (filter) {
        for (std::string_view v : views) filter->Add(BloomKeyHashString(v));
      }
      break;
    }
    case DataType::kBool:
      EncodeBoolStream(c.bools, stripe_bytes);
      if (non_null > 0) {
        stats->min = Value::Bool(c.bools[c.min] != 0);
        stats->max = Value::Bool(c.bools[c.max] != 0);
      }
      break;
    case DataType::kNull:
      return Status::InvalidArgument("column " + schema_.field(col).name +
                                     " has unsupported type null");
  }
  if (filter) stats->bloom = filter->Serialize();

  streams->presence_length = data_start - col_start;
  streams->data_length = stripe_bytes->size() - data_start;
  streams->crc =
      Crc32(stripe_bytes->data() + col_start, stripe_bytes->size() - col_start);
  return Status::OK();
}

Status OrcWriter::Close() {
  if (closed_) return Status::OK();
  DTL_RETURN_NOT_OK(FlushStripe());
  footer_.num_rows = rows_written_;

  std::string footer_bytes;
  footer_.EncodeTo(&footer_bytes);

  std::string tail;
  PutFixed32(&tail, Crc32(footer_bytes.data(), footer_bytes.size()));
  PutFixed32(&tail, static_cast<uint32_t>(footer_bytes.size()));
  PutFixed32(&tail, kOrcMagic);

  DTL_RETURN_NOT_OK(file_->Append(footer_bytes));
  DTL_RETURN_NOT_OK(file_->Append(tail));
  closed_ = true;
  return file_->Close();
}

}  // namespace dtl::orc
