// Scan-path metering in the style of fs::IoStats: every batch and row moved
// by the vectorized read path is counted here, so benches can report
// rows/sec, batch sizes, selectivity, and how often the UNION READ
// no-modification fast path (plain batch pass-through) was taken.
#pragma once

#include <cstdint>

namespace dtl::table {

/// Point-in-time copy of the scan counters; subtract two for a delta.
struct ScanSnapshot {
  uint64_t batches = 0;            // batches emitted by storage scans
  uint64_t rows = 0;               // physical rows in those batches
  uint64_t bytes = 0;              // encoded bytes of the columns scanned, decoded
                                   // or served from the stripe cache
  uint64_t passthrough_batches = 0;  // UNION READ fast path (no modification)
  uint64_t patched_rows = 0;       // rows overlaid with attached updates
  uint64_t masked_rows = 0;        // rows hidden by attached delete markers
  uint64_t predicate_drops = 0;    // rows removed by selection-vector filters
  uint64_t materialized_rows = 0;  // rows copied out as Row objects (adapters)
  uint64_t stripes_skipped = 0;    // stripes pruned by min/max or bloom stats
  uint64_t stripes_skipped_bloom = 0;  // subset pruned only by the bloom probe
  uint64_t files_skipped = 0;      // files whose every stripe was pruned

  ScanSnapshot operator-(const ScanSnapshot& rhs) const {
    ScanSnapshot d;
    d.batches = batches - rhs.batches;
    d.rows = rows - rhs.rows;
    d.bytes = bytes - rhs.bytes;
    d.passthrough_batches = passthrough_batches - rhs.passthrough_batches;
    d.patched_rows = patched_rows - rhs.patched_rows;
    d.masked_rows = masked_rows - rhs.masked_rows;
    d.predicate_drops = predicate_drops - rhs.predicate_drops;
    d.materialized_rows = materialized_rows - rhs.materialized_rows;
    d.stripes_skipped = stripes_skipped - rhs.stripes_skipped;
    d.stripes_skipped_bloom = stripes_skipped_bloom - rhs.stripes_skipped_bloom;
    d.files_skipped = files_skipped - rhs.files_skipped;
    return d;
  }

  ScanSnapshot& operator+=(const ScanSnapshot& rhs) {
    batches += rhs.batches;
    rows += rhs.rows;
    bytes += rhs.bytes;
    passthrough_batches += rhs.passthrough_batches;
    patched_rows += rhs.patched_rows;
    masked_rows += rhs.masked_rows;
    predicate_drops += rhs.predicate_drops;
    materialized_rows += rhs.materialized_rows;
    stripes_skipped += rhs.stripes_skipped;
    stripes_skipped_bloom += rhs.stripes_skipped_bloom;
    files_skipped += rhs.files_skipped;
    return *this;
  }

  /// Divides every counter by `n` (integer floor). Benches use this to turn
  /// a delta spanning all timed iterations of a repeated identical scan into
  /// the per-scan figure, so each logical row and batch is reported once.
  ScanSnapshot operator/(uint64_t n) const {
    if (n == 0) return *this;
    ScanSnapshot d;
    d.batches = batches / n;
    d.rows = rows / n;
    d.bytes = bytes / n;
    d.passthrough_batches = passthrough_batches / n;
    d.patched_rows = patched_rows / n;
    d.masked_rows = masked_rows / n;
    d.predicate_drops = predicate_drops / n;
    d.materialized_rows = materialized_rows / n;
    d.stripes_skipped = stripes_skipped / n;
    d.stripes_skipped_bloom = stripes_skipped_bloom / n;
    d.files_skipped = files_skipped / n;
    return d;
  }
};

/// One scan's counters, written by one thread. A scan reaches its meter only
/// through ScanSpec::meter, and a null meter means the scan is not counted. A
/// SQL statement counts into its session's meter; a parallel scan gives each
/// worker a meter of its own and folds them into the statement's with Add()
/// at the barrier, so no two threads ever write one meter.
class ScanMeter {
 public:
  void AddBatch(uint64_t rows, uint64_t bytes) {
    ++counts_.batches;
    counts_.rows += rows;
    counts_.bytes += bytes;
  }
  void AddPassthroughBatch() { ++counts_.passthrough_batches; }
  void AddPatchedRows(uint64_t n) { counts_.patched_rows += n; }
  void AddMaskedRows(uint64_t n) { counts_.masked_rows += n; }
  void AddPredicateDrops(uint64_t n) { counts_.predicate_drops += n; }
  void AddMaterializedRows(uint64_t n) { counts_.materialized_rows += n; }
  /// `bloom` marks a stripe whose min/max range admitted the probe but the
  /// bloom filter ruled it out — the pruning only the filter can do.
  void AddSkippedStripe(bool bloom) {
    ++counts_.stripes_skipped;
    if (bloom) ++counts_.stripes_skipped_bloom;
  }
  void AddSkippedFile() { ++counts_.files_skipped; }

  ScanSnapshot Snapshot() const { return counts_; }

  /// Folds a snapshot delta (a worker meter's counts) into this meter.
  void Add(const ScanSnapshot& s) { counts_ += s; }

  void Reset() { counts_ = ScanSnapshot(); }

 private:
  ScanSnapshot counts_;
};

}  // namespace dtl::table
