#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fs/cluster_model.h"
#include "fs/filesystem.h"

namespace dtl::fs {
namespace {

TEST(FileSystemTest, WriteThenReadBack) {
  SimFileSystem fs;
  auto writer = fs.NewWritableFile("/data/a.txt");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("hello ").ok());
  ASSERT_TRUE((*writer)->Append("world").ok());
  ASSERT_TRUE((*writer)->Close().ok());

  auto reader = fs.NewSequentialFile("/data/a.txt");
  ASSERT_TRUE(reader.ok());
  std::string out;
  ASSERT_TRUE((*reader)->Read(100, &out).ok());
  EXPECT_EQ(out, "hello world");
  EXPECT_TRUE((*reader)->AtEnd());
}

TEST(FileSystemTest, FileInvisibleUntilClose) {
  SimFileSystem fs;
  auto writer = fs.NewWritableFile("/pending");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("xyz").ok());
  EXPECT_FALSE(fs.Exists("/pending"));
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_TRUE(fs.Exists("/pending"));
}

TEST(FileSystemTest, SyncPublishesPrefix) {
  SimFileSystem fs;
  auto writer = fs.NewWritableFile("/wal");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("record1").ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  auto size = fs.FileSize("/wal");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 7u);
  ASSERT_TRUE((*writer)->Append("record2").ok());
  // Not yet synced: readers still see the old prefix.
  EXPECT_EQ(*fs.FileSize("/wal"), 7u);
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ(*fs.FileSize("/wal"), 14u);
}

TEST(FileSystemTest, NoRandomWritesApi) {
  // The append-only property is structural: WritableFile exposes only
  // Append/Sync/Close. This test documents HDFS semantics: re-creating a
  // path replaces the file wholesale.
  SimFileSystem fs;
  {
    auto w = fs.NewWritableFile("/f");
    ASSERT_TRUE((*w)->Append("version1").ok());
    ASSERT_TRUE((*w)->Close().ok());
  }
  {
    auto w = fs.NewWritableFile("/f");
    ASSERT_TRUE((*w)->Append("v2").ok());
    ASSERT_TRUE((*w)->Close().ok());
  }
  auto reader = fs.NewSequentialFile("/f");
  std::string out;
  ASSERT_TRUE((*reader)->Read(100, &out).ok());
  EXPECT_EQ(out, "v2");
}

TEST(FileSystemTest, SnapshotIsolationForReaders) {
  SimFileSystem fs;
  {
    auto w = fs.NewWritableFile("/f");
    ASSERT_TRUE((*w)->Append("old-contents").ok());
    ASSERT_TRUE((*w)->Close().ok());
  }
  auto reader = fs.NewSequentialFile("/f");
  {
    auto w = fs.NewWritableFile("/f");
    ASSERT_TRUE((*w)->Append("new").ok());
    ASSERT_TRUE((*w)->Close().ok());
  }
  std::string out;
  ASSERT_TRUE((*reader)->Read(100, &out).ok());
  EXPECT_EQ(out, "old-contents");  // reader pinned the pre-replace snapshot
}

TEST(FileSystemTest, ReaderOpenedBetweenSyncsSeesItsPrefix) {
  // Records larger than FileContents::kCoalesceBytes land in separate chunks,
  // so reads also cross chunk boundaries.
  SimFileSystem fs;
  auto w = fs.NewWritableFile("/hbase/t/wal");
  ASSERT_TRUE(w.ok());
  std::string expected;
  std::vector<std::unique_ptr<SequentialFile>> seq;
  std::vector<std::unique_ptr<RandomAccessFile>> ra;
  std::vector<std::string> seen;
  for (int i = 0; i < 6; ++i) {
    const std::string record(i % 2 == 0 ? 10 : FileContents::kCoalesceBytes + 100,
                             static_cast<char>('a' + i));
    ASSERT_TRUE((*w)->Append(record).ok());
    ASSERT_TRUE((*w)->Append("|").ok());
    ASSERT_TRUE((*w)->Sync().ok());
    expected += record + "|";
    seen.push_back(expected);
    auto sequential = fs.NewSequentialFile("/hbase/t/wal");
    auto random_access = fs.NewRandomAccessFile("/hbase/t/wal");
    ASSERT_TRUE(sequential.ok() && random_access.ok());
    seq.push_back(std::move(*sequential));
    ra.push_back(std::move(*random_access));
    // Appended but unsynced bytes are invisible to readers opened now.
    ASSERT_TRUE((*w)->Append("unsynced").ok());
    expected += "unsynced";
  }
  ASSERT_TRUE((*w)->Close().ok());
  for (size_t i = 0; i < seen.size(); ++i) {
    std::string out;
    ASSERT_TRUE(seq[i]->Read(1 << 20, &out).ok());
    EXPECT_EQ(out, seen[i]) << "sequential reader " << i;
    EXPECT_TRUE(seq[i]->AtEnd());
    EXPECT_EQ(ra[i]->size(), seen[i].size());
    const uint64_t mid = seen[i].size() / 2;
    ASSERT_TRUE(ra[i]->ReadAt(mid, seen[i].size(), &out).ok());
    EXPECT_EQ(out, seen[i].substr(mid)) << "random-access reader " << i;
  }
  auto last = fs.NewSequentialFile("/hbase/t/wal");
  std::string out;
  ASSERT_TRUE((*last)->Read(1 << 20, &out).ok());
  EXPECT_EQ(out, expected);
}

TEST(FileSystemTest, InterleavedWritersOfOnePathReplaceWholesale) {
  // Two writers re-creating one path: each sync publishes that writer's
  // whole file, never an extension of the other writer's.
  SimFileSystem fs;
  auto first = fs.NewWritableFile("/f");
  auto second = fs.NewWritableFile("/f");
  auto contents = [&fs] {
    auto r = fs.NewSequentialFile("/f");
    std::string out;
    EXPECT_TRUE((*r)->Read(1 << 20, &out).ok());
    return out;
  };
  ASSERT_TRUE((*first)->Append("first-").ok());
  ASSERT_TRUE((*first)->Sync().ok());
  EXPECT_EQ(contents(), "first-");
  ASSERT_TRUE((*second)->Append("second").ok());
  ASSERT_TRUE((*second)->Sync().ok());
  EXPECT_EQ(contents(), "second");
  ASSERT_TRUE((*first)->Append("tail").ok());
  ASSERT_TRUE((*first)->Sync().ok());
  EXPECT_EQ(contents(), "first-tail");
  ASSERT_TRUE((*second)->Close().ok());
  EXPECT_EQ(contents(), "second");
  ASSERT_TRUE((*first)->Close().ok());
  EXPECT_EQ(contents(), "first-tail");

  // A writer whose file was renamed away republishes at its own path and
  // leaves the renamed file as it was.
  auto third = fs.NewWritableFile("/g");
  ASSERT_TRUE((*third)->Append("abc").ok());
  ASSERT_TRUE((*third)->Sync().ok());
  ASSERT_TRUE(fs.Rename("/g", "/h").ok());
  ASSERT_TRUE((*third)->Append("def").ok());
  ASSERT_TRUE((*third)->Sync().ok());
  EXPECT_EQ(*fs.FileSize("/g"), 6u);
  EXPECT_EQ(*fs.FileSize("/h"), 3u);
}

TEST(FileSystemTest, SyncChargesExactlyItsDelta) {
  SimFileSystem fs;
  auto w = fs.NewWritableFile("/hbase/t/wal");
  uint64_t charged = 0;
  uint64_t files = 0;
  auto expect_delta = [&](uint64_t bytes, uint64_t created) {
    const IoSnapshot snap = fs.meter()->Snapshot();
    EXPECT_EQ(snap.hbase_bytes_written - charged, bytes);
    EXPECT_EQ(snap.hdfs_files_created - files, created);
    charged = snap.hbase_bytes_written;
    files = snap.hdfs_files_created;
  };
  ASSERT_TRUE((*w)->Append(std::string(100, 'x')).ok());
  ASSERT_TRUE((*w)->Sync().ok());
  expect_delta(100, 1);
  for (const size_t n : {size_t{7}, FileContents::kCoalesceBytes, size_t{1}}) {
    ASSERT_TRUE((*w)->Append(std::string(n, 'y')).ok());
    ASSERT_TRUE((*w)->Sync().ok());
    expect_delta(n, 0);
  }
  ASSERT_TRUE((*w)->Sync().ok());  // nothing new
  expect_delta(0, 0);
  ASSERT_TRUE((*w)->Append(std::string(33, 'z')).ok());
  ASSERT_TRUE((*w)->Close().ok());
  expect_delta(33, 0);
  EXPECT_EQ(*fs.FileSize("/hbase/t/wal"),
            100u + 7 + FileContents::kCoalesceBytes + 1 + 33);
}

TEST(FileSystemTest, RandomAccessRead) {
  SimFileSystem fs;
  auto w = fs.NewWritableFile("/f");
  ASSERT_TRUE((*w)->Append("0123456789").ok());
  ASSERT_TRUE((*w)->Close().ok());
  auto r = fs.NewRandomAccessFile("/f");
  ASSERT_TRUE(r.ok());
  std::string out;
  ASSERT_TRUE((*r)->ReadAt(3, 4, &out).ok());
  EXPECT_EQ(out, "3456");
  ASSERT_TRUE((*r)->ReadAt(8, 10, &out).ok());  // short read at EOF
  EXPECT_EQ(out, "89");
  EXPECT_TRUE((*r)->ReadAt(100, 1, &out).IsOutOfRange());
}

TEST(FileSystemTest, ListDirReturnsDirectChildren) {
  SimFileSystem fs;
  for (const char* path : {"/d/a", "/d/b", "/d/sub/c", "/other/x"}) {
    auto w = fs.NewWritableFile(path);
    ASSERT_TRUE((*w)->Close().ok());
  }
  auto names = fs.ListDir("/d");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 2u);
}

TEST(FileSystemTest, DeleteAndRename) {
  SimFileSystem fs;
  auto w = fs.NewWritableFile("/a");
  ASSERT_TRUE((*w)->Close().ok());
  ASSERT_TRUE(fs.Rename("/a", "/b").ok());
  EXPECT_FALSE(fs.Exists("/a"));
  EXPECT_TRUE(fs.Exists("/b"));
  ASSERT_TRUE(fs.Delete("/b").ok());
  EXPECT_FALSE(fs.Exists("/b"));
  EXPECT_TRUE(fs.Delete("/b").IsNotFound());
}

TEST(FileSystemTest, DeleteRecursively) {
  SimFileSystem fs;
  for (const char* path : {"/t/1", "/t/2", "/t/s/3"}) {
    auto w = fs.NewWritableFile(path);
    ASSERT_TRUE((*w)->Close().ok());
  }
  ASSERT_TRUE(fs.DeleteRecursively("/t").ok());
  EXPECT_FALSE(fs.Exists("/t/1"));
  EXPECT_FALSE(fs.Exists("/t/s/3"));
}

TEST(FileSystemTest, MeterChargesChannels) {
  FileSystemOptions options;
  options.hbase_prefix = "/hbase/";
  SimFileSystem fs(options);
  {
    auto w = fs.NewWritableFile("/warehouse/f");
    ASSERT_TRUE((*w)->Append(std::string(1000, 'x')).ok());
    ASSERT_TRUE((*w)->Close().ok());
  }
  {
    auto w = fs.NewWritableFile("/hbase/t/sst");
    ASSERT_TRUE((*w)->Append(std::string(500, 'y')).ok());
    ASSERT_TRUE((*w)->Close().ok());
  }
  IoSnapshot snap = fs.meter()->Snapshot();
  EXPECT_EQ(snap.hdfs_bytes_written, 1000u);
  EXPECT_EQ(snap.hbase_bytes_written, 500u);

  auto r = fs.NewSequentialFile("/warehouse/f");
  std::string out;
  ASSERT_TRUE((*r)->Read(1000, &out).ok());
  snap = fs.meter()->Snapshot();
  EXPECT_EQ(snap.hdfs_bytes_read, 1000u);
  EXPECT_EQ(snap.hbase_bytes_read, 0u);
}

TEST(FileSystemTest, NumChunksFollowsChunkSize) {
  FileSystemOptions options;
  options.chunk_size_bytes = 100;
  SimFileSystem fs(options);
  auto w = fs.NewWritableFile("/f");
  ASSERT_TRUE((*w)->Append(std::string(250, 'x')).ok());
  ASSERT_TRUE((*w)->Close().ok());
  auto chunks = fs.NumChunks("/f");
  ASSERT_TRUE(chunks.ok());
  EXPECT_EQ(*chunks, 3);
}

TEST(ClusterModelTest, PaperExampleCostArithmetic) {
  // Section IV worked example: D=100GB, alpha=0.01, k=30; HDFS write 1 GB/s
  // (without replication in the example), HBase write 0.8, read 0.5 GB/s:
  // CostU = 100/1 - 0.01*(100/0.8 + 30*100/0.5) = 38.75s.
  ClusterConfig config;
  config.hdfs_write_bps = 1e9;
  config.hdfs_replication = 1;  // the example folds replication into the rate
  config.hbase_write_bps = 0.8e9;
  config.hbase_read_bps = 0.5e9;
  ClusterModel model(config);
  const uint64_t d = 100ull << 30;
  const double gb = static_cast<double>(1ull << 30) / 1e9;
  double cost_u = model.WriteSeconds(Channel::kHdfs, d) -
                  0.01 * (model.WriteSeconds(Channel::kHBase, d) +
                          30 * model.ReadSeconds(Channel::kHBase, d));
  EXPECT_NEAR(cost_u, 38.75 * gb, 1.0);
  EXPECT_GT(cost_u, 0);  // EDIT plan wins, as in the paper
}

TEST(ClusterModelTest, JobSecondsIncludesScheduling) {
  ClusterModel model;
  IoSnapshot delta;
  delta.hdfs_bytes_read = 1ull << 30;
  double no_tasks = model.JobSeconds(delta, 0);
  double with_tasks = model.JobSeconds(delta, 10);
  EXPECT_GT(with_tasks, no_tasks);
}

}  // namespace
}  // namespace dtl::fs
