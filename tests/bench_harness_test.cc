/// \file bench_harness_test.cc
/// \brief The bench harness writes an artifact only for a passing run.
///
/// A committed BENCH_*.json is a baseline that later runs are diffed
/// against, so a bench that failed its own checks must leave the output
/// path exactly as it found it: no new file, and an existing file not
/// overwritten.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_harness.h"
#include "gtest/gtest.h"

namespace hgm {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

bool Exists(const std::string& path) { return std::ifstream(path).good(); }

/// A harness aimed at \p path via --bench-out, as a bench's argv would.
bench::BenchHarness HarnessWritingTo(const std::string& path) {
  std::string flag = "--bench-out=" + path;
  char name[] = "bench_test";
  char* argv[] = {name, flag.data()};
  return bench::BenchHarness("bench_test", 2, argv);
}

TEST(BenchHarnessTest, FailingRunLeavesAnExistingArtifactUntouched) {
  const std::string path = ::testing::TempDir() + "bench_harness_kept.json";
  const std::string committed = "{\"committed\": true}\n";
  std::ofstream(path) << committed;

  bench::BenchHarness harness = HarnessWritingTo(path);
  harness.AddPayload("runs", "[]");
  EXPECT_EQ(harness.Finish(/*failures=*/2), 1);
  EXPECT_EQ(ReadFile(path), committed);
  std::remove(path.c_str());
}

TEST(BenchHarnessTest, FailingRunCreatesNoArtifact) {
  const std::string path = ::testing::TempDir() + "bench_harness_none.json";
  std::remove(path.c_str());

  bench::BenchHarness harness = HarnessWritingTo(path);
  EXPECT_EQ(harness.Finish(/*failures=*/1), 1);
  EXPECT_FALSE(Exists(path));
}

TEST(BenchHarnessTest, PassingRunWritesTheEnvelope) {
  const std::string path = ::testing::TempDir() + "bench_harness_ok.json";
  std::remove(path.c_str());

  bench::BenchHarness harness = HarnessWritingTo(path);
  harness.AddPayload("runs", "[1, 2]");
  EXPECT_EQ(harness.Finish(/*failures=*/0), 0);
  const std::string text = ReadFile(path);
  EXPECT_NE(text.find("\"hgm.run_report\""), std::string::npos);
  EXPECT_NE(text.find("\"runs\": [1, 2]"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hgm
