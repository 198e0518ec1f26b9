// Tests for the shuffle spill store: round trips through positioned reads,
// IO accounting, and the truncation failure mode (a short read must be an
// IOError, never a silent end-of-data — mirroring the edge streams'
// status() contract).

#include "io/spill_file.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

namespace densest {
namespace {

/// A spill file holding the uint64_t values [0, n), flushed for reading.
std::unique_ptr<SpillFile> IotaSpill(const std::string& path, size_t n) {
  auto spill = path.empty() ? SpillFile::Create("") : SpillFile::CreateAt(path);
  EXPECT_TRUE(spill.ok()) << spill.status().ToString();
  std::vector<uint64_t> data(n);
  std::iota(data.begin(), data.end(), 0);
  EXPECT_TRUE((*spill)->Append(data.data(), data.size() * 8).ok());
  EXPECT_TRUE((*spill)->Flush().ok());
  return std::move(*spill);
}

TEST(SpillFileTest, RoundTripsSegments) {
  auto spill = SpillFile::Create("");
  ASSERT_TRUE(spill.ok()) << spill.status().ToString();

  std::vector<uint64_t> run1(1000);
  std::iota(run1.begin(), run1.end(), 0);
  std::vector<uint64_t> run2(500);
  std::iota(run2.begin(), run2.end(), 7000);
  ASSERT_TRUE((*spill)->Append(run1.data(), run1.size() * 8).ok());
  ASSERT_TRUE((*spill)->Append(run2.data(), run2.size() * 8).ok());
  ASSERT_TRUE((*spill)->Flush().ok());
  EXPECT_EQ((*spill)->bytes_written(), 1500u * 8);

  // Read the second run first: positioned reads carry no cursor.
  std::vector<uint64_t> got(500);
  auto n = (*spill)->ReadAt(1000 * 8, got.data(), got.size() * 8);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 500u * 8);
  EXPECT_EQ(got, run2);

  // First run in two partial reads.
  std::vector<uint64_t> head(600);
  ASSERT_TRUE((*spill)->ReadAt(0, head.data(), 600 * 8).ok());
  std::vector<uint64_t> tail(400);
  ASSERT_TRUE((*spill)->ReadAt(600 * 8, tail.data(), 400 * 8).ok());
  head.insert(head.end(), tail.begin(), tail.end());
  EXPECT_EQ(head, run1);
}

TEST(SpillFileTest, ReadAtClampsToWrittenSize) {
  auto spill = IotaSpill("", 2000);
  std::vector<uint64_t> buf(100, 0);
  // A read running past the end delivers exactly the bytes that exist.
  auto clamped = spill->ReadAt(1990 * 8, buf.data(), buf.size() * 8);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(*clamped, 10u * 8);
  EXPECT_EQ(buf[0], 1990u);
  EXPECT_EQ(buf[9], 1999u);
  // At or past the end: 0 bytes, not an error.
  for (uint64_t offset : {uint64_t{2000 * 8}, uint64_t{5000 * 8}}) {
    auto past = spill->ReadAt(offset, buf.data(), 8);
    ASSERT_TRUE(past.ok());
    EXPECT_EQ(*past, 0u);
  }
}

TEST(SpillFileTest, ReadAtServesInterleavedSegmentsThroughOneHandle) {
  auto spill = IotaSpill("", 2000);
  // Interleave positioned reads the way the merge does across runs.
  uint64_t a = 0, b = 0;
  ASSERT_TRUE(spill->ReadAt(500 * 8, &a, 8).ok());
  ASSERT_TRUE(spill->ReadAt(0, &b, 8).ok());
  EXPECT_EQ(a, 500u);
  EXPECT_EQ(b, 0u);
}

TEST(SpillFileTest, TruncatedFileSurfacesIOError) {
  const std::string path =
      ::testing::TempDir() + "/spill_truncation_test.tmp";
  auto spill = IotaSpill(path, 1000);

  // Somebody (a full disk, an over-eager cleaner) truncates the file
  // between spill and merge-read.
  std::filesystem::resize_file(path, 300 * 8);

  // Bytes before the cut still read back.
  std::vector<uint64_t> buf(200);
  StatusOr<size_t> before = spill->ReadAt(0, buf.data(), 200 * 8);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(buf[199], 199u);
  // A read that straddles the cut and one that starts past it both fail:
  // the written size promises bytes the file no longer has.
  for (uint64_t offset : {uint64_t{200 * 8}, uint64_t{600 * 8}}) {
    StatusOr<size_t> n = spill->ReadAt(offset, buf.data(), 200 * 8);
    ASSERT_FALSE(n.ok()) << "offset " << offset;
    EXPECT_EQ(n.status().code(), Status::Code::kIOError);
    EXPECT_NE(n.status().message().find("truncated"), std::string::npos);
  }
}

TEST(SpillFileTest, FileRemovedOnDestruction) {
  std::string path;
  {
    auto spill = SpillFile::Create("");
    ASSERT_TRUE(spill.ok());
    path = (*spill)->path();
    uint64_t x = 1;
    ASSERT_TRUE((*spill)->Append(&x, 8).ok());
    ASSERT_TRUE((*spill)->Flush().ok());
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(SpillFileTest, CreateInMissingDirectoryFails) {
  auto spill = SpillFile::Create("/nonexistent_densest_dir_xyz");
  EXPECT_FALSE(spill.ok());
  EXPECT_EQ(spill.status().code(), Status::Code::kIOError);
}

}  // namespace
}  // namespace densest
