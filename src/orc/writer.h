// Streaming writer for the ORC-like columnar file format.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "fs/filesystem.h"
#include "orc/orc_types.h"

namespace dtl::orc {

struct WriterOptions {
  /// Rows buffered per stripe before encoding and flushing.
  uint64_t stripe_rows = 64 * 1024;
  /// Write per-stripe bloom filters over int64/date/string columns so
  /// equality predicates can skip stripes their min/max range admits.
  /// Filters live in the footer's ColumnStats; legacy readers ignore them.
  bool bloom_filters = true;
  /// Bloom sizing; 10 bits/key ≈ 1% false positives.
  int bloom_bits_per_key = 10;
};

/// Buffers rows column-wise, flushes encoded stripes, and finishes the file
/// with a footer on Close. Not thread-safe; one writer per file.
class OrcWriter {
 public:
  /// Creates a writer for `path`; `file_id` is the DualTable-wide unique ID
  /// recorded in the footer (high bits of every record ID in this file).
  static Result<std::unique_ptr<OrcWriter>> Create(fs::SimFileSystem* fs,
                                                   const std::string& path,
                                                   const Schema& schema, uint64_t file_id,
                                                   WriterOptions options = WriterOptions());

  /// Appends one row; must match the schema arity, and each non-null cell
  /// the kind of its column's type.
  Status Append(const Row& row);

  /// Appends a whole stripe verbatim from another file with the same schema:
  /// the encoded bytes land unchanged (stream lengths, per-column CRCs, and
  /// column stats carry over), only the stripe's offset and first_row are
  /// rebased into this file. Any buffered rows are flushed as their own
  /// stripe first so row order is preserved. This is incremental COMPACT's
  /// clean-stripe fast path: no decode, no re-encode.
  Status AppendRawStripe(const StripeInfo& info, const std::string& stripe_bytes);

  /// Flushes the pending stripe, writes the footer, and seals the file.
  Status Close();

  uint64_t rows_written() const { return rows_written_; }

 private:
  OrcWriter(std::unique_ptr<fs::WritableFile> file, Schema schema, uint64_t file_id,
            WriterOptions options);

  /// One column of the pending stripe, buffered by type: the vector that
  /// matches the column's type holds its non-null values in row order, and
  /// min/max are kept on those typed values as they arrive.
  struct ColumnBuffer {
    std::vector<uint8_t> present;  // one 0/1 byte per row
    std::vector<int64_t> ints;     // int64 and date
    std::vector<double> doubles;
    std::vector<uint8_t> bools;
    std::string chars;          // string values back to back
    std::vector<size_t> ends;   // end offset of each string in `chars`
    // Index of the minimum and maximum non-null value in the typed vector;
    // ties keep the first one seen.
    size_t min = 0;
    size_t max = 0;

    size_t non_null() const;
    std::string_view string_at(size_t i) const {
      const size_t begin = i == 0 ? 0 : ends[i - 1];
      return std::string_view(chars.data() + begin, ends[i] - begin);
    }
    void Clear();
  };

  Status FlushStripe();
  Status EncodeColumn(size_t col, std::string* stripe_bytes, StreamInfo* streams,
                      ColumnStats* stats);

  std::unique_ptr<fs::WritableFile> file_;
  Schema schema_;
  WriterOptions options_;
  FileFooter footer_;
  std::vector<ColumnBuffer> columns_;  // the current stripe, column-major
  uint64_t pending_rows_ = 0;
  uint64_t rows_written_ = 0;
  uint64_t file_offset_ = 0;
  bool closed_ = false;
};

}  // namespace dtl::orc
