// Reader for the ORC-like columnar file: footer access and stripe-at-a-time
// column-projected reads. Each stripe knows its first file-level row, so row
// numbers (the low bits of DualTable record IDs) are recovered at read time,
// exactly as the paper exploits ("row numbers are computed during reading
// operations and have no storage cost").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "fs/filesystem.h"
#include "orc/orc_types.h"
#include "table/row_batch.h"

namespace dtl::orc {

class StripeCache;

/// One decoded column of one stripe: the unit the StripeCache holds and
/// shares across every projection that reads the column.
struct DecodedColumn {
  table::ColumnData cells;
  /// Encoded bytes (presence + data streams) read from the file to decode it.
  uint64_t encoded_bytes = 0;
};
using DecodedColumnPtr = std::shared_ptr<const DecodedColumn>;

/// Decoded, projected columns of one stripe. Column i of `columns` holds the
/// values (nulls included) of schema ordinal `projection[i]`. Columns are
/// shared: a cached read assembles its batch from cache entries.
struct StripeBatch {
  uint64_t first_row = 0;
  uint64_t num_rows = 0;
  /// Encoded bytes of the projected columns in the file.
  uint64_t encoded_bytes = 0;
  std::vector<size_t> projection;
  std::vector<DecodedColumnPtr> columns;

  /// Cell of projected column `p` at row `i` (0-based within the stripe).
  Value at(size_t p, size_t i) const { return columns[p]->cells.ValueAt(i); }

  /// Materializes row `i` (0-based within the stripe) over the projection.
  Row GetRow(size_t i) const {
    Row row;
    row.reserve(columns.size());
    for (const auto& col : columns) row.push_back(col->cells.ValueAt(i));
    return row;
  }

  /// Zero-copy slice: resets `*out` to rows [start, start+count) over
  /// `num_fields` full-width columns, pointing each projected column at this
  /// batch's decoded storage (non-projected columns stay absent -> NULL).
  /// The caller must keep this StripeBatch alive while `out` is in use —
  /// typically by anchoring a shared_ptr via RowBatch::SetAnchor.
  void SliceInto(size_t start, size_t count, size_t num_fields,
                 table::RowBatch* out) const;
};

/// Whether a cached read inserts the columns it had to decode. Whole-table
/// rewrites read without admitting: their output replaces the files they read.
enum class CacheFill { kAdmit, kNoAdmit };

/// Immutable view of one ORC file. Thread-safe for concurrent reads.
class OrcReader {
 public:
  /// Opens the file, validates the magic/CRC, and decodes the footer.
  static Result<std::unique_ptr<OrcReader>> Open(const fs::SimFileSystem* fs,
                                                 const std::string& path);

  const FileFooter& footer() const { return footer_; }
  const std::string& path() const { return path_; }
  const Schema& schema() const { return footer_.schema; }
  uint64_t file_id() const { return footer_.file_id; }
  uint64_t num_rows() const { return footer_.num_rows; }
  size_t num_stripes() const { return footer_.stripes.size(); }
  const StripeInfo& stripe(size_t i) const { return footer_.stripes[i]; }

  /// Reads and decodes the projected columns of one stripe. An empty
  /// projection means all columns. Only the projected streams' bytes are
  /// read (positioned reads), so narrow projections save metered I/O.
  Result<StripeBatch> ReadStripe(size_t stripe_index,
                                 std::vector<size_t> projection = {}) const;

  /// Like ReadStripe, but through the shared StripeCache (LLAP-style): the
  /// file is immutable, so a decoded column can be shared across scans and
  /// projections, each taking zero-copy slices anchored by the returned
  /// shared_ptr. The projection is assembled from cached columns under one
  /// cache lock; only the missing columns are read and decoded, and with
  /// CacheFill::kAdmit they are inserted. A reader with no cache decodes
  /// uncached.
  Result<std::shared_ptr<const StripeBatch>> ReadStripeShared(
      size_t stripe_index, std::vector<size_t> projection = {},
      CacheFill fill = CacheFill::kAdmit) const;

  /// Reads one stripe's encoded bytes verbatim (no decode), verifying every
  /// column's CRC first so incremental COMPACT's raw stripe copy can never
  /// propagate a corrupted stripe into a new master file.
  Result<std::string> ReadRawStripe(size_t stripe_index) const;

  /// Routes ReadStripeShared through a process-wide StripeCache. `owner` is
  /// the owning table's unique token and
  /// `generation` the master generation that first registered this file;
  /// both become part of the cache key, so a recycled file id or path after
  /// COMPACT can never be served a pre-swap stripe. Call once right after
  /// Open (before any concurrent reads).
  void SetSharedCache(StripeCache* cache, uint64_t owner, uint64_t generation) {
    shared_cache_ = cache;
    cache_owner_ = owner;
    cache_generation_ = generation;
  }

 private:
  OrcReader(std::unique_ptr<fs::RandomAccessFile> file, FileFooter footer)
      : file_(std::move(file)), footer_(std::move(footer)) {}

  std::unique_ptr<fs::RandomAccessFile> file_;
  std::string path_;
  FileFooter footer_;
  /// Shared cache routing (null = every read decodes).
  StripeCache* shared_cache_ = nullptr;
  uint64_t cache_owner_ = 0;
  uint64_t cache_generation_ = 0;
};

}  // namespace dtl::orc
