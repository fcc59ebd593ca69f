#include "orc/reader.h"

#include <numeric>

#include "common/check.h"
#include "common/coding.h"
#include "orc/encoding.h"
#include "orc/stripe_cache.h"

namespace dtl::orc {

void StripeBatch::SliceInto(size_t start, size_t count, size_t num_fields,
                            table::RowBatch* out) const {
  // A slice must stay inside the decoded stripe: the views handed out below
  // point straight into this batch's column storage.
  DTL_CHECK_LE(start + count, num_rows);
  out->Reset(num_fields, count);
  for (size_t p = 0; p < projection.size(); ++p) {
    const size_t col = projection[p];
    if (col >= num_fields) continue;
    DTL_DCHECK_EQ(columns[p]->cells.size, num_rows);
    out->column(col).SetView(&columns[p]->cells, start, count);
  }
}

Result<std::unique_ptr<OrcReader>> OrcReader::Open(const fs::SimFileSystem* fs,
                                                   const std::string& path) {
  DTL_ASSIGN_OR_RETURN(auto file, fs->NewRandomAccessFile(path));
  const uint64_t size = file->size();
  if (size < 12) return Status::Corruption("file too small to be ORC: " + path);

  std::string tail;
  DTL_RETURN_NOT_OK(file->ReadAt(size - 12, 12, &tail));
  const uint32_t crc = DecodeFixed32(tail.data());
  const uint32_t footer_len = DecodeFixed32(tail.data() + 4);
  const uint32_t magic = DecodeFixed32(tail.data() + 8);
  if (magic != kOrcMagic) return Status::Corruption("bad ORC magic in " + path);
  if (uint64_t{footer_len} + 12 > size) return Status::Corruption("bad ORC footer length");

  std::string footer_bytes;
  DTL_RETURN_NOT_OK(file->ReadAt(size - 12 - footer_len, footer_len, &footer_bytes));
  if (Crc32(footer_bytes.data(), footer_bytes.size()) != crc) {
    return Status::Corruption("ORC footer checksum mismatch in " + path);
  }
  FileFooter footer;
  DTL_RETURN_NOT_OK(FileFooter::DecodeFrom(Slice(footer_bytes), &footer));
  // The stripes must tile [0, num_rows) exactly: record IDs are derived from
  // first_row at read time, so a gap or overlap here would silently corrupt
  // every record ID served from this file.
  uint64_t expected_first = 0;
  for (const StripeInfo& s : footer.stripes) {
    if (s.first_row != expected_first) {
      return Status::Corruption("stripe row ranges do not tile the file: " + path);
    }
    expected_first += s.num_rows;
  }
  if (expected_first != footer.num_rows) {
    return Status::Corruption("stripe row counts disagree with footer num_rows: " + path);
  }
  // Each stripe lies inside the bytes before the footer, and its streams add
  // up to its length without wrapping, so every stream offset and length the
  // stripe reads derive below stays inside the bytes they read.
  const uint64_t body_size = size - 12 - footer_len;
  for (const StripeInfo& s : footer.stripes) {
    if (s.offset > body_size || s.length > body_size - s.offset) {
      return Status::Corruption("stripe lies outside the file body: " + path);
    }
    uint64_t total = 0;
    for (const StreamInfo& streams : s.streams) {
      if (streams.presence_length > s.length - total ||
          streams.data_length > s.length - total - streams.presence_length) {
        return Status::Corruption("stripe stream lengths overflow the stripe in " + path);
      }
      total += streams.presence_length + streams.data_length;
    }
    if (total != s.length) {
      return Status::Corruption("stripe stream lengths disagree with stripe length in " +
                                path);
    }
  }
  auto reader = std::unique_ptr<OrcReader>(new OrcReader(std::move(file), std::move(footer)));
  reader->path_ = path;
  return reader;
}

Result<StripeBatch> OrcReader::ReadStripe(size_t stripe_index,
                                          std::vector<size_t> projection) const {
  if (stripe_index >= footer_.stripes.size()) {
    return Status::OutOfRange("stripe index out of range");
  }
  const StripeInfo& info = footer_.stripes[stripe_index];
  const size_t num_cols = footer_.schema.num_fields();
  if (projection.empty()) {
    projection.resize(num_cols);
    std::iota(projection.begin(), projection.end(), 0);
  }

  StripeBatch batch;
  batch.first_row = info.first_row;
  batch.num_rows = info.num_rows;
  batch.projection = projection;
  batch.columns.reserve(projection.size());

  // Precompute each column's stream offset within the stripe.
  std::vector<uint64_t> col_offset(num_cols + 1, 0);
  for (size_t c = 0; c < num_cols; ++c) {
    col_offset[c + 1] =
        col_offset[c] + info.streams[c].presence_length + info.streams[c].data_length;
  }

  // One buffer for every projected column's bytes; each column is checked
  // against its CRC, then decoded in one pass into its typed cells.
  std::string raw;
  for (size_t p = 0; p < projection.size(); ++p) {
    const size_t col = projection[p];
    if (col >= num_cols) return Status::OutOfRange("projection ordinal out of range");
    const StreamInfo& streams = info.streams[col];
    const uint64_t length = streams.presence_length + streams.data_length;
    auto column = std::make_shared<DecodedColumn>();
    column->encoded_bytes = length;
    batch.encoded_bytes += length;
    DTL_RETURN_NOT_OK(file_->ReadAt(info.offset + col_offset[col], length, &raw));
    if (raw.size() != length) return Status::Corruption("short ORC stream read in " + path_);
    if (Crc32(raw.data(), raw.size()) != streams.crc) {
      return Status::Corruption("ORC stream checksum mismatch in " + path_);
    }
    DTL_RETURN_NOT_OK(DecodeColumn(footer_.schema.field(col).type,
                                   Slice(raw.data(), streams.presence_length),
                                   Slice(raw.data() + streams.presence_length,
                                         streams.data_length),
                                   info.num_rows, &column->cells));
    batch.columns.push_back(std::move(column));
  }
  return batch;
}

Result<std::string> OrcReader::ReadRawStripe(size_t stripe_index) const {
  if (stripe_index >= footer_.stripes.size()) {
    return Status::OutOfRange("stripe index out of range");
  }
  const StripeInfo& info = footer_.stripes[stripe_index];
  const size_t num_cols = footer_.schema.num_fields();
  std::string raw;
  DTL_RETURN_NOT_OK(file_->ReadAt(info.offset, info.length, &raw));
  if (raw.size() != info.length) return Status::Corruption("short ORC stripe read in " + path_);
  // Verify every column stream before handing the bytes out: the raw-copy
  // path re-publishes them into a new file under the SAME footer CRCs, so a
  // flipped bit here must surface now, not in some later scan. Open checked
  // that the stream lengths add up to the stripe length.
  uint64_t col_offset = 0;
  for (size_t c = 0; c < num_cols; ++c) {
    const StreamInfo& streams = info.streams[c];
    const uint64_t len = streams.presence_length + streams.data_length;
    if (Crc32(raw.data() + col_offset, len) != streams.crc) {
      return Status::Corruption("ORC stream checksum mismatch in " + path_);
    }
    col_offset += len;
  }
  return raw;
}

Result<std::shared_ptr<const StripeBatch>> OrcReader::ReadStripeShared(
    size_t stripe_index, std::vector<size_t> projection, CacheFill fill) const {
  if (shared_cache_ == nullptr) {
    DTL_ASSIGN_OR_RETURN(StripeBatch batch,
                         ReadStripe(stripe_index, std::move(projection)));
    return std::make_shared<const StripeBatch>(std::move(batch));
  }
  if (stripe_index >= footer_.stripes.size()) {
    return Status::OutOfRange("stripe index out of range");
  }
  if (projection.empty()) {
    projection.resize(footer_.schema.num_fields());
    std::iota(projection.begin(), projection.end(), 0);
  }
  const StripeKey key{cache_owner_, file_id(), cache_generation_, stripe_index};
  const StripeInfo& info = footer_.stripes[stripe_index];
  auto batch = std::make_shared<StripeBatch>();
  batch->first_row = info.first_row;
  batch->num_rows = info.num_rows;
  const size_t missing = shared_cache_->Lookup(key, projection, &batch->columns);
  if (missing > 0) {
    // Decode only the columns the cache lacks, outside the cache lock;
    // concurrent misses may decode a column twice, with identical results
    // (the file is immutable).
    std::vector<size_t> absent;
    absent.reserve(missing);
    for (size_t p = 0; p < projection.size(); ++p) {
      if (batch->columns[p] == nullptr) absent.push_back(projection[p]);
    }
    DTL_ASSIGN_OR_RETURN(StripeBatch decoded, ReadStripe(stripe_index, absent));
    if (fill == CacheFill::kAdmit) shared_cache_->Insert(key, absent, decoded.columns);
    size_t next = 0;
    for (DecodedColumnPtr& column : batch->columns) {
      if (column == nullptr) column = std::move(decoded.columns[next++]);
    }
  }
  for (const DecodedColumnPtr& column : batch->columns) {
    batch->encoded_bytes += column->encoded_bytes;
  }
  batch->projection = std::move(projection);
  return std::shared_ptr<const StripeBatch>(std::move(batch));
}

}  // namespace dtl::orc
