/// \file flight_recorder_test.cc
/// \brief The black box under test: ring semantics, crash forensics, and
/// the memory-telemetry gauges.
///
/// The headline test injects a real HGMINE_CHECK failure inside a gtest
/// death statement and then reads the crash dump the child process left
/// behind — proving the whole fatal path (check hook -> Record ->
/// DumpOnce -> signal-safe writer) produces parseable JSON containing
/// the events that preceded the crash, in order.

#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/run_budget.h"
#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/resource.h"

namespace hgm {
namespace {

/// Restores every piece of recorder/metrics state the tests perturb, so
/// test order never matters (the recorder is a process-wide singleton).
class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::EnableMetrics(false);
    obs::MetricsRegistry::Global().Reset();
    obs::FlightRecorder& fr = obs::FlightRecorder::Global();
    fr.SetCapacity(obs::FlightRecorder::kDefaultCapacity);  // also clears
    fr.SetDumpPath("");
    fr.EnableDumpOnTrip(false);
    fr.RearmDump();
  }
  void TearDown() override { SetUp(); }
};

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST_F(FlightRecorderTest, RingKeepsNewestCapacityEventsInOrder) {
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  fr.SetCapacity(8);
  for (int i = 0; i < 20; ++i) {
    fr.Record(obs::FlightEventType::kMark, "ring-order", i);
  }
  EXPECT_EQ(fr.total_recorded(), 20u);
  std::vector<obs::FlightEvent> events = fr.Snapshot();
  ASSERT_EQ(events.size(), 8u);  // the newest capacity() events survive
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, static_cast<int64_t>(12 + i));
    EXPECT_EQ(events[i].seq, 12 + i + 1);  // seq is 1-based, oldest first
    EXPECT_STREQ(events[i].label, "ring-order");
    EXPECT_EQ(events[i].type, obs::FlightEventType::kMark);
  }
}

TEST_F(FlightRecorderTest, SnapshotBelowCapacityKeepsEverything) {
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  for (int i = 0; i < 3; ++i) {
    fr.Record(obs::FlightEventType::kLevel, "partial", i, 10 * i);
  }
  std::vector<obs::FlightEvent> events = fr.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].b, 20);
  fr.Clear();
  EXPECT_TRUE(fr.Snapshot().empty());
  EXPECT_EQ(fr.total_recorded(), 0u);
}

TEST_F(FlightRecorderTest, LabelsAreSanitizedAndTruncated) {
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  // Quotes, backslashes, and control bytes would corrupt the
  // hand-formatted crash JSON; Record maps them all to '?'.
  fr.Record(obs::FlightEventType::kMark, "a\"b\\c\nd");
  const std::string long_label(100, 'x');
  fr.Record(obs::FlightEventType::kMark, long_label.c_str());
  std::vector<obs::FlightEvent> events = fr.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].label, "a?b?c?d");
  EXPECT_EQ(std::string(events[1].label),
            std::string(obs::FlightEvent::kLabelBytes - 1, 'x'));
}

TEST_F(FlightRecorderTest, WriteJsonReportsDropCountAndParses) {
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  fr.SetCapacity(4);
  for (int i = 0; i < 6; ++i) {
    fr.Record(obs::FlightEventType::kMark, "json", i);
  }
  std::ostringstream os;
  fr.WriteJson(os);
  Result<obs::JsonValue> parsed = obs::ParseJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue* rec = parsed.value().Find("flight_recorder");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->NumberAt("capacity"), 4);
  EXPECT_EQ(rec->NumberAt("total"), 6);
  EXPECT_EQ(rec->NumberAt("dropped"), 2);
  const obs::JsonValue* events = rec->Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->AsArray().size(), 4u);
  EXPECT_EQ(events->AsArray()[0].NumberAt("a"), 2);
  EXPECT_EQ(events->AsArray()[0].StringAt("type"), "mark");
}

TEST_F(FlightRecorderTest, DumpToFileMatchesSnapshot) {
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  fr.Record(obs::FlightEventType::kPhase, "partition.phase1", 4);
  fr.Record(obs::FlightEventType::kCheckpoint, "checkpoint.save", 123);
  const std::string path = ::testing::TempDir() + "flight_dump.json";
  ASSERT_TRUE(fr.DumpToFile(path.c_str()));
  Result<obs::JsonValue> parsed = obs::ParseJson(ReadWholeFile(path));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue* rec = parsed.value().Find("flight_recorder");
  ASSERT_NE(rec, nullptr);
  const obs::JsonValue* events = rec->Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->AsArray().size(), 2u);
  EXPECT_EQ(events->AsArray()[0].StringAt("type"), "phase");
  EXPECT_EQ(events->AsArray()[0].StringAt("label"), "partition.phase1");
  EXPECT_EQ(events->AsArray()[1].StringAt("type"), "checkpoint");
  EXPECT_EQ(events->AsArray()[1].NumberAt("a"), 123);
  ::unlink(path.c_str());
}

TEST_F(FlightRecorderTest, DumpOnceLatchesUntilRearmed) {
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  fr.Record(obs::FlightEventType::kMark, "latch");
  EXPECT_FALSE(fr.DumpOnce("no-path-configured"));
  const std::string path = ::testing::TempDir() + "flight_latch.json";
  fr.SetDumpPath(path);
  EXPECT_TRUE(fr.DumpOnce("first"));
  EXPECT_FALSE(fr.DumpOnce("second"));  // latched: one dump per process
  fr.RearmDump();
  EXPECT_TRUE(fr.DumpOnce("third"));
  ::unlink(path.c_str());
}

TEST_F(FlightRecorderTest, BudgetTripLandsInRingAndDumpsWhenArmed) {
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  const std::string path = ::testing::TempDir() + "flight_trip.json";
  ::unlink(path.c_str());
  fr.SetDumpPath(path);
  fr.EnableDumpOnTrip(true);

  RunBudget budget;
  budget.max_queries = 10;
  BudgetTracker tracker(budget);
  tracker.ChargeQueries(5);
  StopReason r = tracker.CheckBeforeBatch(/*batch_queries=*/20,
                                          /*batch_bytes=*/0);
  EXPECT_EQ(r, StopReason::kQueryBudget);

  std::vector<obs::FlightEvent> events = fr.Snapshot();
  ASSERT_FALSE(events.empty());
  // The trip event carries the StopReason name and the query tally; the
  // armed dump then appends its self-describing marker via DumpOnce.
  bool saw_trip = false;
  for (const obs::FlightEvent& e : events) {
    if (e.type == obs::FlightEventType::kBudgetTrip) {
      saw_trip = true;
      EXPECT_STREQ(e.label, "query_budget");
      EXPECT_EQ(e.a, 5);
    }
  }
  EXPECT_TRUE(saw_trip);
  const std::string dump = ReadWholeFile(path);
  EXPECT_NE(dump.find("\"budget_trip\""), std::string::npos);
  EXPECT_NE(dump.find("budget_trip_dump"), std::string::npos);
  ::unlink(path.c_str());
}

TEST_F(FlightRecorderTest, InjectedCheckFailureDumpsPrecedingEvents) {
  const std::string path = ::testing::TempDir() + "flight_crash.json";
  ::unlink(path.c_str());
  // The statement runs in a forked child: it arms the crash handlers,
  // records a few structural events the way a miner would, then trips an
  // injected HGMINE_CHECK mid-"run".  The child aborts; the dump file it
  // wrote survives for the parent to dissect.
  EXPECT_DEATH(
      {
        obs::FlightRecorder& fr = obs::FlightRecorder::Global();
        fr.SetDumpPath(path);
        obs::InstallCrashHandlers();
        fr.Record(obs::FlightEventType::kPhase, "partition.phase1", 4);
        for (int i = 0; i < 5; ++i) {
          fr.Record(obs::FlightEventType::kLevel, "apriori.level", i + 1,
                    100 * i);
        }
        HGMINE_CHECK(2 + 2 == 5) << "injected failure";
      },
      "injected failure");

  Result<obs::JsonValue> parsed = obs::ParseJson(ReadWholeFile(path));
  ASSERT_TRUE(parsed.ok())
      << "crash dump unreadable: " << parsed.status().ToString();
  const obs::JsonValue* rec = parsed.value().Find("flight_recorder");
  ASSERT_NE(rec, nullptr);
  const obs::JsonValue* events_node = rec->Find("events");
  ASSERT_NE(events_node, nullptr);
  const std::vector<obs::JsonValue>& events = events_node->AsArray();
  ASSERT_GE(events.size(), 7u);

  // The events preceding the crash are all present, in order.
  EXPECT_EQ(events[0].StringAt("type"), "phase");
  EXPECT_EQ(events[0].StringAt("label"), "partition.phase1");
  for (int i = 0; i < 5; ++i) {
    const obs::JsonValue& e = events[static_cast<size_t>(i) + 1];
    EXPECT_EQ(e.StringAt("type"), "level");
    EXPECT_EQ(e.StringAt("label"), "apriori.level");
    EXPECT_EQ(e.NumberAt("a"), i + 1);
    EXPECT_EQ(e.NumberAt("b"), 100 * i);
  }
  // The final recorded event is the check failure itself (the SIGABRT
  // that follows loses the dump race to the once-latch, by design).  The
  // label is the check message truncated to the slot's 47 bytes, which
  // starts with the file's basename and line from any checkout path.
  EXPECT_EQ(events.back().StringAt("type"), "check_failure");
  EXPECT_NE(events.back().StringAt("label").find("flight_recorder_test"),
            std::string::npos);
  ::unlink(path.c_str());
}

TEST_F(FlightRecorderTest, MemorySamplingGatedOffReturnsDefaults) {
  // Metrics off: SampleMemory is one relaxed load; /proc is never read.
  obs::MemoryStats off = obs::SampleMemory();
  EXPECT_EQ(off.rss_kb, -1);
  EXPECT_EQ(off.peak_rss_kb, -1);
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.CounterValue("obs.mem.samples"), 0u);
}

TEST_F(FlightRecorderTest, MemoryGaugesPublishedAndPeakMonotone) {
  obs::EnableMetrics(true);
  obs::MetricsRegistry::Global().Reset();
  obs::MemoryStats before = obs::SampleMemory();
  if (before.rss_kb < 0) {
    GTEST_SKIP() << "no /proc memory facility on this platform";
  }
  EXPECT_GT(before.rss_kb, 0);

  {
    // 32 MiB of touched ballast: current RSS rises, so the lifetime peak
    // must ratchet at least as high.
    std::vector<char> ballast(32u << 20);
    for (size_t i = 0; i < ballast.size(); i += 4096) {
      ballast[i] = static_cast<char>(i);
    }
    obs::MemoryStats loaded = obs::SampleMemory();
    EXPECT_GE(loaded.rss_kb, before.rss_kb);
    EXPECT_GE(loaded.peak_rss_kb, before.peak_rss_kb);
  }
  obs::MemoryStats after = obs::SampleMemory();
  // getrusage's high-water mark never decreases, even after the ballast
  // is freed — that is the whole point of reporting both numbers.
  EXPECT_GE(after.peak_rss_kb, before.peak_rss_kb);

  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.CounterValue("obs.mem.samples"), 3u);
  EXPECT_EQ(snap.GaugeValue("obs.mem.rss_kb"), after.rss_kb);
  EXPECT_EQ(snap.GaugeValue("obs.mem.peak_rss_kb"), after.peak_rss_kb);
  // The in-run high water tracks the max *sampled* RSS, so it is at
  // least the final sample.  (No upper bound against ru_maxrss: statm
  // and getrusage account pages slightly differently.)
  EXPECT_GE(snap.GaugeValue("obs.mem.rss_high_water_kb"), after.rss_kb);
}

TEST_F(FlightRecorderTest, AllocationCountingDegradesGracefully) {
  // In a plain build the hooks are not linked: availability is false and
  // the stats stay zero, so reports can say "not measured" instead of 0.
  obs::EnableAllocationCounting(true);
  std::vector<int> v(1000, 7);
  EXPECT_EQ(v[999], 7);
  obs::EnableAllocationCounting(false);
  if (!obs::AllocationCountingAvailable()) {
    obs::AllocStats s = obs::GlobalAllocStats();
    EXPECT_EQ(s.allocations, 0u);
    EXPECT_EQ(s.bytes, 0u);
  } else {
    EXPECT_GT(obs::GlobalAllocStats().allocations, 0u);
  }
  obs::ResetAllocStats();
  EXPECT_EQ(obs::GlobalAllocStats().allocations, 0u);
}

}  // namespace
}  // namespace hgm
