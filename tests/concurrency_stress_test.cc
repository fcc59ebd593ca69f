// Deterministic concurrency stress tests for the shared-state hot spots the
// vectorized read path introduced: ThreadPool, the skip-list memtable
// (concurrent readers + single writer), the KV store write/flush path, and
// the OrcReader decoded-stripe LRU cache.
//
// These are designed to run under ThreadSanitizer (cmake -DDTL_TSAN=ON) as
// well as the ASan/UBSan job: fixed seeds, bounded iterations, no timing
// assertions, so they pass on a loaded single-core CI runner without flaking.
// TSan interleaves threads aggressively, so even short bounded loops give it
// enough schedules to flag unsynchronized access.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/background_scheduler.h"
#include "common/random.h"
#include "common/skiplist.h"
#include "common/thread_pool.h"
#include "dualtable/dual_table.h"
#include "exec/parallel_scan.h"
#include "fs/cluster_model.h"
#include "fs/filesystem.h"
#include "kv/store.h"
#include "orc/reader.h"
#include "orc/stripe_cache.h"
#include "orc/writer.h"

namespace dtl {
namespace {

// Scaled down so the whole file stays under a few seconds even under TSan's
// ~5-15x slowdown on a single core.
constexpr int kThreads = 4;
constexpr int kOpsPerThread = 2000;

TEST(ThreadPoolStressTest, ConcurrentSubmittersSeeEveryTask) {
  ThreadPool pool(kThreads);
  std::atomic<uint64_t> sum{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&pool, &sum] {
      std::vector<std::future<void>> futs;
      futs.reserve(kOpsPerThread / 4);
      for (int i = 0; i < kOpsPerThread / 4; ++i) {
        futs.push_back(pool.Submit([&sum, i] {
          sum.fetch_add(static_cast<uint64_t>(i), std::memory_order_relaxed);
        }));
      }
      for (auto& f : futs) f.get();
    });
  }
  for (auto& t : submitters) t.join();
  const uint64_t per_thread = static_cast<uint64_t>(kOpsPerThread / 4) *
                              (kOpsPerThread / 4 - 1) / 2;
  EXPECT_EQ(sum.load(), per_thread * kThreads);
}

TEST(ThreadPoolStressTest, ParallelForCoversEveryIndexFromManyCallers) {
  ThreadPool pool(kThreads);
  constexpr size_t kN = 512;
  std::vector<std::atomic<int>> hits(kN * kThreads);
  std::vector<std::thread> callers;
  callers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&pool, &hits, t] {
      pool.ParallelFor(kN, [&hits, t](size_t i) {
        hits[t * kN + i].fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SkipListStressTest, ConcurrentReadersWithSingleWriter) {
  SkipList<int64_t, int64_t> list;
  constexpr int64_t kInserts = 4000;
  std::atomic<bool> done{false};

  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&list, &done, t] {
      Random rng(1000 + t);  // fixed per-thread seed
      uint64_t last_count = 0;
      while (!done.load(std::memory_order_acquire)) {
        // Full iteration: keys must come out strictly ascending, and the
        // count can only grow between passes.
        uint64_t count = 0;
        int64_t prev = -1;
        SkipList<int64_t, int64_t>::Iterator it(&list);
        for (it.SeekToFirst(); it.Valid(); it.Next()) {
          ASSERT_GT(it.key(), prev);
          // Values are published with their nodes: value == key * 2 always.
          ASSERT_EQ(it.value(), it.key() * 2);
          prev = it.key();
          ++count;
        }
        ASSERT_GE(count, last_count);
        last_count = count;
        // Point lookups against keys that may or may not exist yet.
        const int64_t probe = rng.UniformRange(0, kInserts - 1);
        const int64_t* v = list.Find(probe * 2 + 1);
        if (v != nullptr) {
          ASSERT_EQ(*v, (probe * 2 + 1) * 2);
        }
      }
    });
  }

  // Single writer, odd keys in shuffled-ish order (fixed-seed stride walk).
  for (int64_t i = 0; i < kInserts; ++i) {
    const int64_t key = ((i * 2654435761u) % kInserts) * 2 + 1;
    list.Insert(key, key * 2);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Stride walk hits duplicates only if kInserts shares factors with the
  // multiplier; verify the final count matches distinct keys inserted.
  SkipList<int64_t, int64_t>::Iterator it(&list);
  uint64_t final_count = 0;
  for (it.SeekToFirst(); it.Valid(); it.Next()) ++final_count;
  EXPECT_EQ(final_count, list.size());
  EXPECT_GT(final_count, 0u);
}

TEST(KvStoreStressTest, ConcurrentWritersThroughFlushAndCompaction) {
  fs::SimFileSystem fs;
  kv::KvStoreOptions options;
  options.dir = "/hbase/stress";
  options.memtable_flush_bytes = 4 * 1024;  // force the flush path repeatedly
  options.l0_compaction_trigger = 3;        // and the compaction path
  auto store = kv::KvStore::Open(&fs, options);
  ASSERT_TRUE(store.ok());

  constexpr int kWriters = 3;
  constexpr int kPutsPerWriter = 400;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&store, &failures, t] {
      for (int i = 0; i < kPutsPerWriter; ++i) {
        const std::string row = "w" + std::to_string(t) + "_r" + std::to_string(i % 50);
        if (!(*store)->Put(row, static_cast<uint32_t>(i % 4), "v" + std::to_string(i)).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Reader thread: point gets plus the lock-free stats/timestamp surfaces.
  std::thread reader([&store, &done] {
    Random rng(7);
    uint64_t last_ts_seen = 0;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t ts = (*store)->LastTimestamp();
      ASSERT_GE(ts, last_ts_seen);  // write clock is monotonic
      last_ts_seen = ts;
      const std::string row =
          "w" + std::to_string(rng.UniformRange(0, 2)) + "_r" + std::to_string(rng.UniformRange(0, 49));
      auto got = (*store)->Get(row, static_cast<uint32_t>(rng.UniformRange(0, 3)));
      ASSERT_TRUE(got.ok());
      (*store)->ApproximateCellCount();
    }
  });
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ((*store)->stats().puts.load(), static_cast<uint64_t>(kWriters * kPutsPerWriter));
  EXPECT_GT((*store)->stats().flushes.load(), 0u);
  // Every writer's latest value per row survived the flush/compaction churn.
  for (int t = 0; t < kWriters; ++t) {
    for (int r = 0; r < 50; ++r) {
      const std::string row = "w" + std::to_string(t) + "_r" + std::to_string(r);
      auto got = (*store)->Get(row, 0);
      ASSERT_TRUE(got.ok());
    }
  }
}

// One thread appends records to a log and syncs after each while others
// open the same file and read it whole, alternating sequential and
// positioned readers. A sync extends the published contents in place
// (O(bytes appended), not O(file size)); every reader must still see exactly
// the bytes of some completed sync, never a partial record, and never fewer
// bytes than it saw on an earlier open.
TEST(FileSystemStressTest, ReadersRaceAppendingSyncs) {
  fs::SimFileSystem fs;
  constexpr int kRecords = 1500;
  // Mostly small records (coalesced into shared chunks) with an occasional
  // one past the coalescing limit (a chunk of its own).
  std::string expected;
  std::vector<uint64_t> sync_sizes = {0};
  std::vector<std::string> records;
  for (int i = 0; i < kRecords; ++i) {
    const size_t n = i % 97 == 0 ? fs::FileContents::kCoalesceBytes + 1 : 20 + i % 40;
    records.push_back(std::string(n, static_cast<char>('a' + i % 26)));
    expected += records.back();
    sync_sizes.push_back(expected.size());
  }
  const std::string path = "/hbase/stress/wal";
  auto writer = fs.NewWritableFile(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Sync().ok());  // publish the empty log

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      uint64_t last_size = 0;
      bool sequential = t % 2 == 0;
      while (!done.load(std::memory_order_acquire)) {
        std::string out;
        if (sequential) {
          auto file = fs.NewSequentialFile(path);
          ASSERT_TRUE(file.ok());
          ASSERT_TRUE((*file)->Read(expected.size(), &out).ok());
        } else {
          auto file = fs.NewRandomAccessFile(path);
          ASSERT_TRUE(file.ok());
          ASSERT_TRUE((*file)->ReadAt(0, (*file)->size(), &out).ok());
        }
        sequential = !sequential;
        ASSERT_TRUE(std::binary_search(sync_sizes.begin(), sync_sizes.end(), out.size()))
            << "read " << out.size() << " bytes: not a synced prefix";
        ASSERT_GE(out.size(), last_size);
        ASSERT_EQ(out, expected.substr(0, out.size()));
        last_size = out.size();
      }
    });
  }
  [&] {
    for (const std::string& record : records) {
      ASSERT_TRUE((*writer)->Append(record).ok());
      ASSERT_TRUE((*writer)->Sync().ok());
    }
    ASSERT_TRUE((*writer)->Close().ok());
  }();
  done.store(true, std::memory_order_release);  // also after a failed write
  for (auto& t : readers) t.join();
  EXPECT_EQ(*fs.FileSize(path), expected.size());
}

TEST(OrcStripeCacheStressTest, ConcurrentReadersShareDecodedStripes) {
  fs::SimFileSystem fs;
  ASSERT_TRUE(fs.CreateDir("/warehouse").ok());
  Schema schema({{"id", DataType::kInt64}, {"val", DataType::kDouble}});
  orc::WriterOptions wopts;
  wopts.stripe_rows = 64;  // many small stripes -> cache hits, misses, evictions
  constexpr int64_t kRows = 64 * 40;
  {
    auto writer = orc::OrcWriter::Create(&fs, "/warehouse/stress.orc", schema, 1, wopts);
    ASSERT_TRUE(writer.ok());
    for (int64_t i = 0; i < kRows; ++i) {
      ASSERT_TRUE((*writer)->Append(Row{Value::Int64(i), Value::Double(i * 0.25)}).ok());
    }
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto reader = orc::OrcReader::Open(&fs, "/warehouse/stress.orc");
  ASSERT_TRUE(reader.ok());
  // A cache far smaller than the file's 80 decoded columns (~2.6 KB each),
  // so lookups, partial hits, inserts and evictions all interleave.
  orc::StripeCache cache(/*capacity_bytes=*/32 << 10, /*shards=*/2);
  (*reader)->SetSharedCache(&cache, orc::StripeCache::NewOwnerToken(), /*generation=*/1);

  std::vector<std::thread> scanners;
  scanners.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    scanners.emplace_back([&reader, t] {
      Random rng(42 + t);
      for (int i = 0; i < 300; ++i) {
        const size_t stripe = static_cast<size_t>(
            rng.UniformRange(0, static_cast<int>((*reader)->num_stripes()) - 1));
        // Overlapping projections: each read assembles cached columns with
        // freshly decoded ones.
        std::vector<size_t> projection;
        if (i % 3 == 0) projection = {0};
        if (i % 3 == 1) projection = {1};
        auto batch = (*reader)->ReadStripeShared(stripe, projection);
        ASSERT_TRUE(batch.ok());
        ASSERT_EQ((*batch)->num_rows, 64u);
        const std::vector<size_t>& cols = (*batch)->projection;
        ASSERT_EQ(cols.size(), projection.empty() ? 2u : 1u);
        const int64_t row = static_cast<int64_t>((*batch)->first_row) + i % 64;
        for (size_t p = 0; p < cols.size(); ++p) {
          const Value& v = (*batch)->at(p, static_cast<size_t>(i % 64));
          if (cols[p] == 0) {
            ASSERT_EQ(v.AsInt64(), row);
          } else {
            ASSERT_EQ(v.AsDouble(), row * 0.25);
          }
        }
      }
    });
  }
  for (auto& t : scanners) t.join();
  const orc::StripeCacheStats stats = cache.Stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, cache.capacity_bytes());
}

// --- morsel-driven parallel scans under concurrent mutation ------------------------

Schema DualStressSchema() {
  return Schema({{"id", DataType::kInt64}, {"amount", DataType::kDouble}});
}

Status StressUpdate(dual::DualTable* table, int64_t modulus, int64_t residue,
                    double bump) {
  table::ScanSpec filter;
  filter.predicate_columns = {0};
  filter.predicate = [modulus, residue](const Row& row) {
    return row[0].AsInt64() % modulus == residue;
  };
  table::Assignment a;
  a.column = 1;
  a.input_columns = {1};
  a.compute = [bump](const Row& row) { return Value::Double(row[1].AsDouble() + bump); };
  return table->Update(filter, {a}).status();
}

// Morsel workers race EDIT statements. Updates never delete, so every scan —
// whatever mix of pre- and post-update stripes its morsels observe — must
// return exactly kRows rows, in record-id order, with sane values.
TEST(ParallelScanStressTest, MorselScansRaceEditStatements) {
  fs::SimFileSystem fs;
  auto metadata = dual::MetadataTable::Open(&fs);
  ASSERT_TRUE(metadata.ok());
  fs::ClusterModel cluster;
  ThreadPool pool(kThreads);

  dual::DualTableOptions options;
  options.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
  options.writer_options.stripe_rows = 64;
  options.scan_batch_rows = 48;
  auto table = dual::DualTable::Open(&fs, metadata->get(), &cluster, "race",
                                     DualStressSchema(), options);
  ASSERT_TRUE(table.ok());
  constexpr int64_t kRows = 1200;
  for (int64_t chunk = 0; chunk < 2; ++chunk) {
    std::vector<Row> rows;
    for (int64_t i = chunk * 600; i < (chunk + 1) * 600; ++i) {
      rows.push_back(Row{Value::Int64(i), Value::Double(i * 0.5)});
    }
    ASSERT_TRUE((*table)->InsertRows(rows).ok());
  }

  std::atomic<bool> done{false};
  std::thread writer([&table, &done] {
    for (int round = 0; round < 30; ++round) {
      ASSERT_TRUE(StressUpdate(table->get(), 5, round % 5, 0.5).ok());
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> scanners;
  scanners.reserve(2);
  for (int t = 0; t < 2; ++t) {
    scanners.emplace_back([&table, &pool, &done, t] {
      int iter = 0;
      do {
        exec::ParallelScanOptions popts;
        popts.pool = &pool;
        popts.parallelism = 3;
        popts.morsel_stripes = 1 + t;
        if (iter % 3 == 0) {
          exec::ParallelScanner scanner(table->get(), table::ScanSpec{}, popts);
          auto rows = scanner.CollectRows();
          ASSERT_TRUE(rows.ok());
          ASSERT_EQ(rows->size(), static_cast<size_t>(kRows));
          for (size_t i = 0; i < rows->size(); ++i) {
            ASSERT_EQ((*rows)[i][0].AsInt64(), static_cast<int64_t>(i));
            const double amount = (*rows)[i][1].AsDouble();
            ASSERT_GE(amount, static_cast<double>(i) * 0.5);
          }
        } else {
          exec::ParallelScanner scanner(table->get(), table::ScanSpec{}, popts);
          auto count = scanner.Count();
          ASSERT_TRUE(count.ok());
          ASSERT_EQ(*count, static_cast<uint64_t>(kRows));
        }
        ++iter;
      } while (!done.load(std::memory_order_acquire));
    });
  }
  writer.join();
  for (auto& t : scanners) t.join();
}

// Morsel scans race the background compaction scheduler. Every scan holds a
// snapshot that pins the generation its morsels were planned against, so a
// COMPACT that commits mid-scan can never invalidate them: every scan MUST
// succeed and see every row. (Before snapshots, a mid-scan COMPACT could
// fail the scan "cleanly"; that failure mode is extinct by design.)
TEST(ParallelScanStressTest, MorselScansRaceBackgroundCompaction) {
  fs::SimFileSystem fs;
  auto metadata = dual::MetadataTable::Open(&fs);
  ASSERT_TRUE(metadata.ok());
  fs::ClusterModel cluster;
  ThreadPool pool(kThreads);
  auto scheduler = std::make_shared<BackgroundScheduler>(std::chrono::milliseconds(1));

  dual::DualTableOptions options;
  options.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
  options.writer_options.stripe_rows = 64;
  options.scan_batch_rows = 48;
  options.compact_threshold = 0.01;  // nearly every update round leaves debt
  options.scheduler = scheduler;
  options.background_compaction = true;
  constexpr int64_t kRows = 800;
  {
    auto table = dual::DualTable::Open(&fs, metadata->get(), &cluster, "bgrace",
                                       DualStressSchema(), options);
    ASSERT_TRUE(table.ok());
    for (int64_t chunk = 0; chunk < 2; ++chunk) {
      std::vector<Row> rows;
      for (int64_t i = chunk * 400; i < (chunk + 1) * 400; ++i) {
        rows.push_back(Row{Value::Int64(i), Value::Double(i * 0.5)});
      }
      ASSERT_TRUE((*table)->InsertRows(rows).ok());
    }

    std::atomic<bool> done{false};
    std::thread writer([&table, &done] {
      for (int round = 0; round < 20; ++round) {
        ASSERT_TRUE(StressUpdate(table->get(), 4, round % 4, 0.5).ok());
      }
      done.store(true, std::memory_order_release);
    });

    std::atomic<uint64_t> successes{0};
    std::thread scanner_thread([&table, &pool, &done, &successes] {
      do {
        exec::ParallelScanOptions popts;
        popts.pool = &pool;
        popts.parallelism = 3;
        exec::ParallelScanner scanner(table->get(), table::ScanSpec{}, popts);
        auto count = scanner.Count();
        ASSERT_TRUE(count.ok()) << count.status().ToString();
        ASSERT_EQ(*count, static_cast<uint64_t>(kRows));
        successes.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_acquire));
    });
    writer.join();
    scanner_thread.join();
    EXPECT_GT(successes.load(), 0u);

    // Once writes stop, a quiesced scheduler leaves no debt and a stable
    // generation: scans succeed again and the data is intact.
    scheduler->Quiesce();
    EXPECT_FALSE((*table)->NeedsCompaction());
    exec::ParallelScanOptions popts;
    popts.pool = &pool;
    popts.parallelism = 4;
    exec::ParallelScanner scanner(table->get(), table::ScanSpec{}, popts);
    auto count = scanner.Count();
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, static_cast<uint64_t>(kRows));
  }  // table unregisters its poll job here, while the scheduler is live
  scheduler->Shutdown();
}

// Scan-vs-flush lifetime regression: CellScanners opened on the attached
// table must stay valid while concurrent EDITs flush and merge the memtable
// out from under them (the shared_ptr keepalive added with the background
// compactor). Serial UNION READ scans exercise that path directly.
TEST(ParallelScanStressTest, AttachedScansSurviveConcurrentFlushes) {
  fs::SimFileSystem fs;
  auto metadata = dual::MetadataTable::Open(&fs);
  ASSERT_TRUE(metadata.ok());
  fs::ClusterModel cluster;

  dual::DualTableOptions options;
  options.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
  options.writer_options.stripe_rows = 64;
  options.attached_options.memtable_flush_bytes = 2 * 1024;  // flush constantly
  options.attached_options.l0_compaction_trigger = 2;
  auto table = dual::DualTable::Open(&fs, metadata->get(), &cluster, "flush",
                                     DualStressSchema(), options);
  ASSERT_TRUE(table.ok());
  constexpr int64_t kRows = 600;
  std::vector<Row> rows;
  for (int64_t i = 0; i < kRows; ++i) {
    rows.push_back(Row{Value::Int64(i), Value::Double(i * 0.5)});
  }
  ASSERT_TRUE((*table)->InsertRows(rows).ok());

  std::atomic<bool> done{false};
  std::thread writer([&table, &done] {
    for (int round = 0; round < 25; ++round) {
      ASSERT_TRUE(StressUpdate(table->get(), 3, round % 3, 0.5).ok());
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> scanners;
  scanners.reserve(2);
  for (int t = 0; t < 2; ++t) {
    scanners.emplace_back([&table, &done] {
      do {
        auto it = (*table)->ScanBatches(table::ScanSpec{});
        ASSERT_TRUE(it.ok());
        table::RowBatch batch;
        uint64_t seen = 0;
        while ((*it)->Next(&batch)) seen += batch.size();
        ASSERT_TRUE((*it)->status().ok());
        ASSERT_EQ(seen, static_cast<uint64_t>(kRows));
      } while (!done.load(std::memory_order_acquire));
    });
  }
  writer.join();
  for (auto& t : scanners) t.join();
}

// --- snapshot stability under concurrent mutation ----------------------------------

std::string EncodeRows(const std::vector<Row>& rows) {
  std::string bytes;
  for (const Row& row : rows) {
    for (const Value& v : row) v.EncodeTo(&bytes);
  }
  return bytes;
}

// Pinned UNION READ drains race every writer of the attached store: EDIT
// commits, memtable flushes, KV compactions and Clear(). Each drain owns its
// merge buffers and only reads the memtable and SSTables it pinned, so a
// drain of a pinned snapshot returns its acquisition-time answer — patched
// columns, masked rows, predicate verdicts — whichever writer lands
// mid-scan, and a drain of the live table never loses a row.
TEST(ParallelScanStressTest, PinnedDrainsRaceFlushCompactAndClear) {
  fs::SimFileSystem fs;
  auto metadata = dual::MetadataTable::Open(&fs);
  ASSERT_TRUE(metadata.ok());
  fs::ClusterModel cluster;

  dual::DualTableOptions options;
  options.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
  options.writer_options.stripe_rows = 64;
  options.scan_batch_rows = 40;
  options.attached_options.memtable_flush_bytes = 2 * 1024;
  options.attached_options.l0_compaction_trigger = 2;
  auto table = dual::DualTable::Open(&fs, metadata->get(), &cluster, "pinned",
                                     DualStressSchema(), options);
  ASSERT_TRUE(table.ok());
  constexpr int64_t kRows = 400;
  std::vector<Row> rows;
  for (int64_t i = 0; i < kRows; ++i) {
    rows.push_back(Row{Value::Int64(i), Value::Double(i * 0.5)});
  }
  ASSERT_TRUE((*table)->InsertRows(rows).ok());
  ASSERT_TRUE(StressUpdate(table->get(), 3, 1, 1000.0).ok());
  {
    // Delete every 13th row through the attached store directly.
    auto it = (*table)->Scan(table::ScanSpec{});
    ASSERT_TRUE(it.ok());
    std::vector<uint64_t> doomed;
    for (int64_t i = 0; (*it)->Next(); ++i) {
      if (i % 13 == 0) doomed.push_back((*it)->record_id());
    }
    for (uint64_t rid : doomed) {
      ASSERT_TRUE((*table)->attached()->PutDeleteMarker(rid).ok());
    }
    (*table)->PublishEditCommit();
  }

  // A post-merge predicate: only patched rows pass it.
  table::ScanSpec spec;
  spec.projection = {1};
  spec.predicate_columns = {1};
  spec.predicate = [](const Row& row) { return row[1].AsDouble() >= 1000.0; };
  auto drain = [&table, &spec](const dual::SnapshotPtr& snapshot) {
    auto it = (*table)->ScanBatchesAt(snapshot, spec);
    EXPECT_TRUE(it.ok());
    std::vector<Row> out;
    table::RowBatch batch;
    while ((*it)->Next(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        Row row;
        batch.MaterializeRow(i, &row);
        out.push_back(std::move(row));
      }
    }
    EXPECT_TRUE((*it)->status().ok());
    return out;
  };
  const dual::SnapshotPtr pinned = (*table)->AcquireSnapshot();
  const std::vector<Row> baseline = drain(pinned);
  ASSERT_FALSE(baseline.empty());
  const std::string baseline_bytes = EncodeRows(baseline);

  std::atomic<bool> done{false};
  std::thread writer([&table, &done] {
    dual::AttachedTable* attached = (*table)->attached();
    for (int round = 0; round < 40; ++round) {
      ASSERT_TRUE(StressUpdate(table->get(), 4, round % 4, 0.5).ok());
      if (round % 5 == 2) ASSERT_TRUE(attached->store()->Flush().ok());
      if (round % 7 == 3) ASSERT_TRUE(attached->store()->Compact().ok());
      if (round % 13 == 12) {
        ASSERT_TRUE(attached->Clear().ok());
        (*table)->PublishEditCommit();
      }
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  readers.reserve(2);
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      do {
        ASSERT_EQ(EncodeRows(drain(pinned)), baseline_bytes);
        if (t == 0) {
          auto it = (*table)->ScanBatches(table::ScanSpec{});
          ASSERT_TRUE(it.ok());
          table::RowBatch batch;
          uint64_t seen = 0;
          while ((*it)->Next(&batch)) seen += batch.size();
          ASSERT_TRUE((*it)->status().ok());
          ASSERT_LE(seen, static_cast<uint64_t>(kRows));
        } else {
          auto mods = (*table)->attached()->NewScannerAt(pinned->attached);
          uint64_t n = 0;
          while (mods->Next()) ++n;
          ASSERT_TRUE(mods->status().ok());
          ASSERT_GT(n, 0u);
        }
      } while (!done.load(std::memory_order_acquire));
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
}

Result<std::vector<Row>> CollectSnapshotRows(dual::DualTable* table,
                                             const dual::SnapshotPtr& snapshot) {
  DTL_ASSIGN_OR_RETURN(auto it, table->ScanAt(snapshot, table::ScanSpec{}));
  std::vector<Row> rows;
  while (it->Next()) rows.push_back(it->row());
  DTL_RETURN_NOT_OK(it->status());
  return rows;
}

// The MVCC stability contract: a snapshot acquired before a storm of EDITs
// and a COMPACT keeps returning the acquisition-time row set, byte for byte,
// on every read path — serial row, serial batch, and morsel-driven parallel
// (which reads the same snapshot via ParallelScanOptions::snapshot) — while
// the table changes underneath it. The COMPACT swaps the master generation
// mid-storm; the snapshot's generation pin is what keeps its files readable.
TEST(SnapshotStabilityStressTest, SnapshotIsByteStableAcrossEditsAndCompact) {
  fs::SimFileSystem fs;
  auto metadata = dual::MetadataTable::Open(&fs);
  ASSERT_TRUE(metadata.ok());
  fs::ClusterModel cluster;
  ThreadPool pool(kThreads);

  dual::DualTableOptions options;
  options.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
  options.writer_options.stripe_rows = 64;
  options.scan_batch_rows = 48;
  auto table = dual::DualTable::Open(&fs, metadata->get(), &cluster, "mvcc",
                                     DualStressSchema(), options);
  ASSERT_TRUE(table.ok());
  constexpr int64_t kRows = 600;
  {
    std::vector<Row> rows;
    rows.reserve(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      rows.push_back(Row{Value::Int64(i), Value::Double(i * 0.5)});
    }
    ASSERT_TRUE((*table)->InsertRows(rows).ok());
  }
  // Pre-snapshot EDITs so the pinned attached state is non-empty and the
  // merge path (not just stripe pass-through) is what stays stable.
  ASSERT_TRUE(StressUpdate(table->get(), 7, 0, 0.25).ok());

  const dual::SnapshotPtr snapshot = (*table)->AcquireSnapshot();
  auto baseline = CollectSnapshotRows(table->get(), snapshot);
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->size(), static_cast<size_t>(kRows));
  const std::string baseline_bytes = EncodeRows(*baseline);

  std::atomic<bool> done{false};
  std::thread writer([&table, &done] {
    for (int round = 0; round < 110; ++round) {  // >= 100 EDIT statements
      ASSERT_TRUE(StressUpdate(table->get(), 5, round % 5, 0.5).ok());
      if (round == 55) ASSERT_TRUE((*table)->Compact().ok());
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> scanners;
  scanners.reserve(3);
  // Serial row path.
  scanners.emplace_back([&table, &snapshot, &baseline_bytes, &done] {
    do {
      auto rows = CollectSnapshotRows(table->get(), snapshot);
      ASSERT_TRUE(rows.ok());
      ASSERT_EQ(EncodeRows(*rows), baseline_bytes);
    } while (!done.load(std::memory_order_acquire));
  });
  // Serial batch path.
  scanners.emplace_back([&table, &snapshot, &baseline_bytes, &done] {
    do {
      auto it = (*table)->ScanBatchesAt(snapshot, table::ScanSpec{});
      ASSERT_TRUE(it.ok());
      std::vector<Row> rows;
      table::RowBatch batch;
      while ((*it)->Next(&batch)) {
        for (size_t i = 0; i < batch.size(); ++i) {
          Row row;
          batch.MaterializeRow(i, &row);
          rows.push_back(std::move(row));
        }
      }
      ASSERT_TRUE((*it)->status().ok());
      ASSERT_EQ(EncodeRows(rows), baseline_bytes);
    } while (!done.load(std::memory_order_acquire));
  });
  // Morsel-driven parallel path reading the same snapshot; CollectRows
  // restores record-id order, so equality really is byte-identity with the
  // serial acquisition-time scan.
  scanners.emplace_back([&table, &pool, &snapshot, &baseline_bytes, &done] {
    do {
      exec::ParallelScanOptions popts;
      popts.pool = &pool;
      popts.parallelism = 3;
      popts.snapshot = snapshot;
      exec::ParallelScanner scanner(table->get(), table::ScanSpec{}, popts);
      auto rows = scanner.CollectRows();
      ASSERT_TRUE(rows.ok());
      ASSERT_EQ(EncodeRows(*rows), baseline_bytes);
    } while (!done.load(std::memory_order_acquire));
  });
  writer.join();
  for (auto& t : scanners) t.join();

  // A snapshot acquired after the storm sees every committed EDIT: same row
  // set, values only grew (updates added positive bumps).
  auto latest = CollectSnapshotRows(table->get(), (*table)->AcquireSnapshot());
  ASSERT_TRUE(latest.ok());
  ASSERT_EQ(latest->size(), static_cast<size_t>(kRows));
  for (size_t i = 0; i < latest->size(); ++i) {
    ASSERT_EQ((*latest)[i][0].AsInt64(), (*baseline)[i][0].AsInt64());
    ASSERT_GE((*latest)[i][1].AsDouble(), (*baseline)[i][1].AsDouble());
  }
}

// Register/unregister churn against a fast-polling scheduler: Unregister
// must block out in-flight polls so a job's state can be torn down the
// moment it returns, and Shutdown must serialize with everything.
TEST(BackgroundSchedulerStressTest, RegisterUnregisterChurn) {
  auto scheduler = std::make_shared<BackgroundScheduler>(std::chrono::milliseconds(1));
  std::vector<std::thread> churners;
  churners.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    churners.emplace_back([&scheduler, t] {
      for (int i = 0; i < 40; ++i) {
        // The counter lives on the churner's stack; Unregister's barrier is
        // what makes destroying it immediately afterwards safe. A starved
        // scheduler may legitimately poll a short-lived job zero times, so
        // there is no count assertion here — TSan and the stack lifetime
        // are what this loop tests.
        std::atomic<uint64_t> local_polls{0};
        const uint64_t id = scheduler->Register(
            "churn" + std::to_string(t),
            [&local_polls] { local_polls.fetch_add(1, std::memory_order_relaxed); });
        scheduler->Wake();
        std::this_thread::yield();
        scheduler->Unregister(id);
      }
    });
  }
  for (auto& t : churners) t.join();
  // Deterministic liveness check: a job registered before Quiesce() MUST be
  // polled by the full round Quiesce waits out, however loaded the host is.
  std::atomic<uint64_t> final_polls{0};
  const uint64_t id = scheduler->Register(
      "final", [&final_polls] { final_polls.fetch_add(1, std::memory_order_relaxed); });
  scheduler->Quiesce();
  EXPECT_GT(final_polls.load(std::memory_order_relaxed), 0u);
  scheduler->Unregister(id);
  scheduler->Shutdown();
}

}  // namespace
}  // namespace dtl
