// Unit tests for the utility layer.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/aligned_buffer.hpp"
#include "util/args.hpp"
#include "util/slices.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace tb::util {
namespace {

TEST(AlignedBuffer, DefaultIsEmpty) {
  AlignedBuffer<double> b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.data(), nullptr);
}

TEST(AlignedBuffer, AllocatesCacheLineAligned) {
  for (std::size_t n : {1u, 7u, 64u, 1000u, 4097u}) {
    AlignedBuffer<double> b(n);
    EXPECT_EQ(b.size(), n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kCacheLineBytes,
              0u);
  }
}

TEST(AlignedBuffer, CustomAlignment) {
  AlignedBuffer<double> b(100, 4096);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % 4096, 0u);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<double> a(10);
  a[3] = 42.0;
  double* p = a.data();
  AlignedBuffer<double> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[3], 42.0);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  AlignedBuffer<double> c(1);
  c = std::move(b);
  EXPECT_EQ(c.data(), p);
}

TEST(AlignedBuffer, RejectsByteCountsThatOverflow) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  const std::uint64_t allocs = buffer_alloc_count();
  EXPECT_THROW(AlignedBuffer<double>(kMax / 4), std::length_error);
  // count * sizeof(T) fits; its round-up to the alignment does not.
  EXPECT_THROW(AlignedBuffer<char>(kMax - 10), std::length_error);
  EXPECT_EQ(buffer_alloc_count(), allocs);
}

TEST(AlignedBuffer, IterationCoversAll) {
  AlignedBuffer<double> b(17);
  for (auto& x : b) x = 1.0;
  double sum = 0;
  for (const auto& x : b) sum += x;
  EXPECT_EQ(sum, 17.0);
}

#if defined(__linux__)
/// The VmFlags line of the mapping in /proc/self/smaps that contains
/// `addr`, or nullopt when smaps cannot be read or has no such mapping.
std::optional<std::string> vm_flags(const void* addr) {
  std::ifstream in("/proc/self/smaps");
  if (!in) return std::nullopt;
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  bool inside = false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string first;
    fields >> first;
    if (first.empty()) continue;
    if (first.back() == ':') {  // "Key: value" line of the current mapping
      if (inside && first == "VmFlags:") return line;
      continue;
    }
    // Mapping header: "start-end perms offset dev inode [path]".
    const std::size_t dash = first.find('-');
    if (dash == std::string::npos) continue;
    const std::uintptr_t lo = std::stoull(first.substr(0, dash), nullptr, 16);
    const std::uintptr_t hi = std::stoull(first.substr(dash + 1), nullptr, 16);
    inside = lo <= a && a < hi;
  }
  return std::nullopt;
}

bool has_flag(const std::string& vm_flags_line, const std::string& flag) {
  std::istringstream fields(vm_flags_line);
  std::string f;
  while (fields >> f)
    if (f == flag) return true;
  return false;
}

// Only buffers of at least kHugePageAdviceBytes carry MADV_HUGEPAGE
// ("hg"), and only on their 2 MiB-aligned interior.
TEST(AlignedBuffer, LargeBuffersAdviseHugePages) {
  if (!std::filesystem::exists("/sys/kernel/mm/transparent_hugepage"))
    GTEST_SKIP() << "kernel without transparent huge pages";
  const AlignedBuffer<double> small((std::size_t{4} << 20) / sizeof(double));
  const std::optional<std::string> small_flags = vm_flags(small.data());
  if (!small_flags) GTEST_SKIP() << "/proc/self/smaps is not readable";
  EXPECT_FALSE(has_flag(*small_flags, "hg")) << *small_flags;

  const AlignedBuffer<double> large((std::size_t{64} << 20) / sizeof(double));
  const auto first = reinterpret_cast<std::uintptr_t>(large.data());
  const std::uintptr_t interior =
      (first + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
  const std::optional<std::string> large_flags =
      vm_flags(reinterpret_cast<const void*>(interior));
  ASSERT_TRUE(large_flags.has_value());
  EXPECT_TRUE(has_flag(*large_flags, "hg")) << *large_flags;
}
#endif

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GT(t.elapsed(), 0.0);
  const double before = t.elapsed();
  t.reset();
  EXPECT_LT(t.elapsed(), before + 1.0);
}

TEST(Timer, MlupsConversion) {
  EXPECT_DOUBLE_EQ(mlups(2e6, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(mlups(1e6, 0.0), 0.0);  // guards divide-by-zero
  EXPECT_DOUBLE_EQ(glups(2e9, 1.0), 2.0);
}

TEST(Table, AlignedOutputAndCsv) {
  TableWriter t({"a", "bb"});
  t.add("x", 1.5);
  t.add(7, "y");
  EXPECT_EQ(t.row_count(), 2u);
  std::ostringstream ss;
  t.print(ss);
  EXPECT_NE(ss.str().find("bb"), std::string::npos);
  EXPECT_NE(ss.str().find("1.500"), std::string::npos);

  const std::string path = "/tmp/tb_test_table.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,bb");
  std::getline(in, line);
  EXPECT_EQ(line, "x,1.500");
  std::filesystem::remove(path);
}

TEST(Table, CsvFailsOnBadPath) {
  TableWriter t({"a"});
  EXPECT_FALSE(t.write_csv("/nonexistent-dir/x.csv"));
}

TEST(Args, ParsesAllForms) {
  const char* argv[] = {"prog",  "--n",       "42",   "--flag",
                        "--x=7", "--name",    "abc",  "pos1",
                        "--list", "1,2,3",    "--f",  "2.5"};
  Args args(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_int("x", 0), 7);
  EXPECT_EQ(args.get("name", ""), "abc");
  EXPECT_DOUBLE_EQ(args.get_double("f", 0.0), 2.5);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
  const auto list = args.get_int_list("list", {});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[2], 3);
}

TEST(Args, Defaults) {
  const char* argv[] = {"prog"};
  Args args(1, argv);
  EXPECT_EQ(args.get_int("missing", -3), -3);
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get_int_list("missing", {5}).at(0), 5);
}

TEST(ThreadPool, RunsAllWorkers) {
  ThreadPool pool(4);
  std::vector<int> hits(4, 0);
  pool.run([&](int w) { hits[static_cast<std::size_t>(w)]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int j = 0; j < 50; ++j)
    pool.run([&](int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 150);
}

TEST(ThreadPool, SingleWorker) {
  ThreadPool pool(1);
  int value = 0;
  pool.run([&](int w) { value = w + 100; });
  EXPECT_EQ(value, 100);
}

TEST(ForEachSlice, CoversTheRangeOnceInBalancedContiguousSlices) {
  // 10 indices; 16 threads leave some slices empty, which still run.
  for (const int threads : {1, 3, 4, 16}) {
    const auto parts = static_cast<std::size_t>(threads);
    std::vector<int> hits(10, 0), ran(parts, 0), first(parts, -1);
    for_each_slice(threads, 2, 12, [&](int t, int s0, int s1) {
      ran[static_cast<std::size_t>(t)] = 1;
      first[static_cast<std::size_t>(t)] = s0;
      for (int i = s0; i < s1; ++i) ++hits[static_cast<std::size_t>(i - 2)];
    });
    for (const int h : hits) EXPECT_EQ(h, 1) << threads << " threads";
    for (int t = 0; t < threads; ++t) {
      EXPECT_EQ(ran[static_cast<std::size_t>(t)], 1);
      EXPECT_EQ(first[static_cast<std::size_t>(t)], 2 + 10 * t / threads);
    }
  }
}

}  // namespace
}  // namespace tb::util
