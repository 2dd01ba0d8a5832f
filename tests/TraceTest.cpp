//===- tests/TraceTest.cpp - trace record/replay backend tests -------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `cheetah-trace-v1` backend end to end: TraceData's deterministic
/// serialize/parse round trip, the loud-error parser contract on hostile
/// input, the in-memory record tee, replay's batches (in recorded order,
/// cut before every lifecycle event), the payoff gate — a recorded
/// workload run replayed through `runSession` must reproduce the live
/// run's `cheetah-report-v6` byte for byte — and replay's refusal of
/// thread lifecycles the profiler cannot follow.
///
//===----------------------------------------------------------------------===//

#include "core/report/ReportSink.h"
#include "driver/ProfileSession.h"
#include "pmu/TraceSource.h"
#include "support/FileIO.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace cheetah;

namespace {

//===----------------------------------------------------------------------===//
// TraceData round trip
//===----------------------------------------------------------------------===//

pmu::TraceData sampleTrace() {
  pmu::TraceData Data;
  Data.SamplingPeriod = 512;
  Data.RunCycles = 987654;
  pmu::TraceEvent Start;
  Start.K = pmu::TraceEvent::Kind::ThreadStart;
  Start.Tid = 0;
  Start.IsMain = true;
  Start.Time = 0;
  Data.Events.push_back(Start);
  pmu::TraceEvent Point;
  Point.K = pmu::TraceEvent::Kind::SamplePoint;
  Point.Tid = 3;
  Point.Time = 4096;
  Point.Address = 0x7f00000010ull;
  Point.IsWrite = true;
  Point.LatencyCycles = 120;
  Data.Events.push_back(Point);
  pmu::TraceEvent End;
  End.K = pmu::TraceEvent::Kind::ThreadEnd;
  End.Tid = 3;
  End.IsMain = false;
  End.Time = 8192;
  Data.Events.push_back(End);
  return Data;
}

TEST(TraceDataTest, SerializeParseRoundTripsEveryEventKind) {
  pmu::TraceData Data = sampleTrace();
  std::string Text = Data.serialize();

  pmu::TraceData Parsed;
  std::string Error;
  ASSERT_TRUE(pmu::TraceData::parse(Text, Parsed, Error)) << Error;
  EXPECT_EQ(Parsed.SamplingPeriod, 512u);
  EXPECT_EQ(Parsed.RunCycles, 987654u);
  ASSERT_EQ(Parsed.Events.size(), 3u);
  EXPECT_EQ(Parsed.Events[0].K, pmu::TraceEvent::Kind::ThreadStart);
  EXPECT_TRUE(Parsed.Events[0].IsMain);
  EXPECT_EQ(Parsed.Events[1].K, pmu::TraceEvent::Kind::SamplePoint);
  EXPECT_EQ(Parsed.Events[1].Address, 0x7f00000010ull);
  EXPECT_EQ(Parsed.Events[1].Tid, 3u);
  EXPECT_TRUE(Parsed.Events[1].IsWrite);
  EXPECT_EQ(Parsed.Events[1].LatencyCycles, 120u);
  EXPECT_EQ(Parsed.Events[1].Time, 4096u);
  EXPECT_EQ(Parsed.Events[2].K, pmu::TraceEvent::Kind::ThreadEnd);
  EXPECT_FALSE(Parsed.Events[2].IsMain);

  // Deterministic: parse-then-serialize reproduces the document exactly.
  EXPECT_EQ(Parsed.serialize(), Text);
}

TEST(TraceDataTest, SerializeWritesThePinnedV1Bytes) {
  // Every event kind, both values of each flag, and numbers at their
  // edges: 0, the 32-bit maxima, a 15-digit address and 2^64 - 1.
  pmu::TraceData Data;
  Data.SamplingPeriod = 8192;
  Data.RunCycles = 0;
  pmu::TraceEvent Start;
  Start.K = pmu::TraceEvent::Kind::ThreadStart;
  Start.IsMain = true;
  Data.Events.push_back(Start);
  pmu::TraceEvent Wide;
  Wide.K = pmu::TraceEvent::Kind::SamplePoint;
  Wide.Address = 999999999999999;
  Wide.Tid = 4294967295u;
  Wide.IsWrite = true;
  Wide.LatencyCycles = 4294967295u;
  Wide.Time = 18446744073709551615ull;
  Data.Events.push_back(Wide);
  pmu::TraceEvent Zero;
  Zero.K = pmu::TraceEvent::Kind::SamplePoint;
  Data.Events.push_back(Zero);
  pmu::TraceEvent End;
  End.K = pmu::TraceEvent::Kind::ThreadEnd;
  End.Tid = 4294967295u;
  End.Time = 18446744073709551615ull;
  Data.Events.push_back(End);

  EXPECT_EQ(Data.serialize(),
            R"({"schema":"cheetah-trace-v1","sampling_period":8192,)"
            R"("run_cycles":0,"events":[)"
            R"({"k":"ts","tid":0,"main":true,"t":0},)"
            R"({"k":"s","a":999999999999999,"tid":4294967295,"w":true,)"
            R"("l":4294967295,"t":18446744073709551615},)"
            R"({"k":"s","a":0,"tid":0,"w":false,"l":0,"t":0},)"
            R"({"k":"te","tid":4294967295,"main":false,)"
            R"("t":18446744073709551615}]})");
}

TEST(TraceDataTest, SchemaIsCheckedBeforeStructure) {
  pmu::TraceData Data = sampleTrace();
  std::string Text = Data.serialize();
  size_t At = Text.find("cheetah-trace-v1");
  ASSERT_NE(At, std::string::npos);
  Text.replace(At, 16, "cheetah-trace-v9");

  pmu::TraceData Parsed;
  std::string Error;
  EXPECT_FALSE(pmu::TraceData::parse(Text, Parsed, Error));
  EXPECT_NE(Error.find("unsupported schema"), std::string::npos) << Error;
}

TEST(TraceDataTest, ParseErrorsAreLoudAndNamed) {
  pmu::TraceData Parsed;
  std::string Error;

  EXPECT_FALSE(pmu::TraceData::parse("not json", Parsed, Error));
  EXPECT_FALSE(Error.empty());

  EXPECT_FALSE(pmu::TraceData::parse("[1,2,3]", Parsed, Error));
  EXPECT_NE(Error.find("not a JSON object"), std::string::npos) << Error;

  // A zero sampling period can never have produced samples.
  EXPECT_FALSE(pmu::TraceData::parse(
      R"({"schema":"cheetah-trace-v1","sampling_period":0,)"
      R"("run_cycles":1,"events":[]})",
      Parsed, Error));
  EXPECT_NE(Error.find("sampling_period"), std::string::npos) << Error;

  // Unknown event kinds name the offending index.
  EXPECT_FALSE(pmu::TraceData::parse(
      R"({"schema":"cheetah-trace-v1","sampling_period":64,)"
      R"("run_cycles":1,"events":[{"k":"zz"}]})",
      Parsed, Error));
  EXPECT_NE(Error.find("event 0"), std::string::npos) << Error;
  EXPECT_NE(Error.find("unknown event kind"), std::string::npos) << Error;

  // Field values outside their 32-bit homes are rejected, not truncated.
  EXPECT_FALSE(pmu::TraceData::parse(
      R"({"schema":"cheetah-trace-v1","sampling_period":64,)"
      R"("run_cycles":1,"events":[)"
      R"({"k":"s","a":1,"tid":4294967296,"w":true,"l":1,"t":1}]})",
      Parsed, Error));
  EXPECT_NE(Error.find("tid exceeds 32 bits"), std::string::npos) << Error;

  // Numbers at or beyond 2^64 (inf included) are rejected by name, never
  // cast to a counter.
  EXPECT_FALSE(pmu::TraceData::parse(
      R"({"schema":"cheetah-trace-v1","sampling_period":64,)"
      R"("run_cycles":1,"events":[)"
      R"({"k":"s","a":1,"tid":1e20,"w":true,"l":1,"t":1}]})",
      Parsed, Error));
  EXPECT_EQ(Error, "event 0: field 'tid' is out of range");
  EXPECT_FALSE(pmu::TraceData::parse(
      R"({"schema":"cheetah-trace-v1","sampling_period":64,)"
      R"("run_cycles":1,"events":[{"k":"ts","tid":0,"main":true,"t":0},)"
      R"({"k":"s","a":1,"tid":1,"w":true,"l":1,"t":1e999}]})",
      Parsed, Error));
  EXPECT_EQ(Error, "event 1: field 't' is out of range");
  EXPECT_FALSE(pmu::TraceData::parse(
      R"({"schema":"cheetah-trace-v1","sampling_period":64,)"
      R"("run_cycles":18446744073709551616,"events":[]})",
      Parsed, Error));
  EXPECT_EQ(Error, "field 'run_cycles' is out of range");
}

TEST(TraceDataTest, ParseAcceptsAnyMemberOrderAndWhitespace) {
  // Another writer's layout: members reordered, whitespace between
  // tokens, a repeated member (the first wins) and an unknown one.
  pmu::TraceData Parsed;
  std::string Error;
  ASSERT_TRUE(pmu::TraceData::parse(
      "{ \"events\" : [ {\"t\":4096, \"l\":120, \"k\":\"s\", \"w\":true,\n"
      "  \"tid\":3, \"a\":545460846608, \"tid\":9, \"note\":[1, {}]} ],\n"
      "  \"run_cycles\": 987654, \"sampling_period\": 512,\n"
      "  \"schema\": \"cheetah-trace-v1\" }\n",
      Parsed, Error))
      << Error;
  EXPECT_EQ(Parsed.SamplingPeriod, 512u);
  EXPECT_EQ(Parsed.RunCycles, 987654u);
  ASSERT_EQ(Parsed.Events.size(), 1u);
  EXPECT_TRUE(Parsed.Events[0] == sampleTrace().Events[1]);
}

//===----------------------------------------------------------------------===//
// TraceSource replay-mode errors
//===----------------------------------------------------------------------===//

TEST(TraceSourceTest, MissingFileFailsStartWithReason) {
  pmu::TraceSource Replay(::testing::TempDir() + "does_not_exist.trace");
  pmu::SourceStatus Status = Replay.start();
  EXPECT_FALSE(Status.Available);
  EXPECT_NE(Status.Reason.find("cannot open"), std::string::npos)
      << Status.Reason;
}

TEST(TraceSourceTest, DirectoryFailsStartInsteadOfAborting) {
  // A directory opens for reading, and its seek offsets are no size: the
  // read must fail loudly, not size a buffer from them.
  pmu::TraceSource Replay(::testing::TempDir());
  pmu::SourceStatus Status = Replay.start();
  EXPECT_FALSE(Status.Available);
  EXPECT_NE(Status.Reason.find("failed reading"), std::string::npos)
      << Status.Reason;
}

TEST(TraceSourceTest, MalformedFileFailsStartNamingThePath) {
  std::string Path = ::testing::TempDir() + "malformed.trace";
  std::FILE *File = std::fopen(Path.c_str(), "w");
  ASSERT_NE(File, nullptr);
  std::fputs("{\"schema\":\"cheetah-trace-v1\"", File);
  std::fclose(File);

  pmu::TraceSource Replay(Path);
  pmu::SourceStatus Status = Replay.start();
  EXPECT_FALSE(Status.Available);
  EXPECT_NE(Status.Reason.find(Path), std::string::npos) << Status.Reason;
}

//===----------------------------------------------------------------------===//
// In-memory record tee
//===----------------------------------------------------------------------===//

/// Collects the sink-side stream for order assertions.
struct EventLog : pmu::SampleSink {
  std::vector<std::string> Entries;
  size_t Samples = 0;
  /// Every delivered sample's timestamp, in delivery order.
  std::vector<uint64_t> Times;

  void threadStarted(ThreadId Tid, bool IsMain, uint64_t) override {
    Entries.push_back("start " + std::to_string(Tid) + (IsMain ? "*" : ""));
  }
  void threadFinished(ThreadId Tid, bool, uint64_t) override {
    Entries.push_back("end " + std::to_string(Tid));
  }
  void ingestBatch(const pmu::Sample *Batch, size_t Count) override {
    Entries.push_back("batch " + std::to_string(Count));
    Samples += Count;
    for (size_t I = 0; I < Count; ++I)
      Times.push_back(Batch[I].Timestamp);
  }
};

/// Minimal pushable backend for driving the tee directly.
struct ManualSource : pmu::SampleSource {
  pmu::SourceStatus start() override { return {true, ""}; }
  pmu::SourceStatus stop() override { return {true, ""}; }
};

TEST(TraceSourceTest, RecordTeeBuffersAndForwardsInOrder) {
  auto Owned = std::make_unique<ManualSource>();
  ManualSource *Backend = Owned.get();
  pmu::TraceSource Tee(std::move(Owned), /*Path=*/"", /*SamplingPeriod=*/64);
  EventLog Log;
  Tee.setSink(&Log);
  ASSERT_TRUE(Tee.start().Available);
  // start() must have interposed the tee between backend and outer sink.
  ASSERT_EQ(Backend->sink(), &Tee);

  Backend->sink()->threadStarted(0, true, 0);
  pmu::Sample S;
  S.Address = 0x40;
  S.Tid = 0;
  S.IsWrite = true;
  S.LatencyCycles = 9;
  S.Timestamp = 77;
  Backend->sink()->ingestBatch(&S, 1);
  Backend->sink()->threadFinished(0, true, 100);

  // Forwarded unchanged...
  ASSERT_EQ(Log.Entries.size(), 3u);
  EXPECT_EQ(Log.Entries[0], "start 0*");
  EXPECT_EQ(Log.Entries[1], "batch 1");
  EXPECT_EQ(Log.Entries[2], "end 0");
  // ...and buffered for replay, repeatably (the daemon replays per epoch).
  Tee.setRunCycles(100);
  for (int Pass = 0; Pass < 2; ++Pass) {
    EventLog Replayed;
    EXPECT_EQ(Tee.replayInto(Replayed), 1u);
    EXPECT_EQ(Replayed.Entries, Log.Entries);
  }
  // Empty path: stop() is a no-op flush, never an error.
  EXPECT_TRUE(Tee.stop().Available);
}

TEST(TraceSourceTest, ReplayBatchesNeverSpanLifecycleEvents) {
  // Two threads' samples recorded one at a time around their lifecycle
  // edges: replay must hand them over in recorded order, in batches of at
  // most SampleBatchCapacity cut before every lifecycle event and at the
  // end of the stream.
  pmu::TraceSource Tee(std::make_unique<ManualSource>(), /*Path=*/"",
                       /*SamplingPeriod=*/1);
  uint64_t Now = 0;
  auto Record = [&](ThreadId Tid, int Count) {
    for (int I = 0; I < Count; ++I, ++Now) {
      pmu::Sample S;
      S.Address = 0x40 + 8 * (Now % 32);
      S.Tid = Tid;
      S.Timestamp = Now;
      Tee.ingestBatch(&S, 1);
    }
  };
  Tee.threadStarted(0, true, Now);
  Record(0, 300);
  Tee.threadStarted(1, false, Now);
  for (int Round = 0; Round < 100; ++Round) {
    Record(0, 2);
    Record(1, 3);
  }
  Tee.threadFinished(1, false, Now);
  Record(0, 10);

  EventLog Replayed;
  EXPECT_EQ(Tee.replayInto(Replayed), 810u);
  EXPECT_EQ(Replayed.Entries,
            (std::vector<std::string>{"start 0*", "batch 256", "batch 44",
                                      "start 1", "batch 256", "batch 244",
                                      "end 1", "batch 10"}));
  ASSERT_EQ(Replayed.Times.size(), 810u);
  for (size_t I = 0; I < Replayed.Times.size(); ++I)
    EXPECT_EQ(Replayed.Times[I], I) << "sample " << I;
}

//===----------------------------------------------------------------------===//
// The payoff gate: record -> replay is byte-identical
//===----------------------------------------------------------------------===//

driver::SessionConfig traceConfig() {
  driver::SessionConfig Config;
  Config.Workload.Threads = 8;
  Config.Profiler.Pmu.SamplingPeriod = 256;
  Config.Profiler.Detect.TrackPages = true;
  NumaTopologySpec Spec;
  Spec.Nodes = 2;
  std::string Error;
  EXPECT_TRUE(NumaTopology::fromSpec(Spec, Config.Profiler.Topology, Error));
  return Config;
}

TEST(TraceReplayTest, ReplayedReportIsByteIdenticalToLiveRun) {
  auto Workload = workloads::createWorkload("numa_first_touch");
  ASSERT_NE(Workload, nullptr);
  std::string TracePath = ::testing::TempDir() + "first_touch.trace";

  driver::SessionConfig Record = traceConfig();
  Record.RecordTracePath = TracePath;
  std::string LiveText;
  core::JsonReportSink LiveSink(LiveText);
  driver::SessionResult Live;
  std::string Error;
  ASSERT_TRUE(
      driver::runSession(*Workload, Record, &LiveSink, Live, Error))
      << Error;
  ASSERT_FALSE(LiveText.empty());

  driver::SessionConfig Replay = traceConfig();
  Replay.Backend = driver::SampleBackend::TraceReplay;
  Replay.ReplayTracePath = TracePath;
  std::string ReplayText;
  core::JsonReportSink ReplaySink(ReplayText);
  driver::SessionResult Replayed;
  ASSERT_TRUE(
      driver::runSession(*Workload, Replay, &ReplaySink, Replayed, Error))
      << Error;

  // Byte for byte: detection is delivery-order-sensitive, so this holds
  // only because replay reproduces the recorded order, with every batch
  // cut before the lifecycle event that follows it.
  EXPECT_EQ(ReplayText, LiveText);
  EXPECT_EQ(Replayed.Run.TotalCycles, Live.Run.TotalCycles);
  EXPECT_EQ(Replayed.Profile.SamplesDelivered,
            Live.Profile.SamplesDelivered);
}

TEST(TraceReplayTest, RecordingDoesNotPerturbTheLiveReport) {
  auto Workload = workloads::createWorkload("numa_first_touch");
  ASSERT_NE(Workload, nullptr);

  driver::SessionConfig Plain = traceConfig();
  std::string PlainText;
  core::JsonReportSink PlainSink(PlainText);
  driver::SessionResult PlainRun;
  std::string Error;
  ASSERT_TRUE(
      driver::runSession(*Workload, Plain, &PlainSink, PlainRun, Error))
      << Error;

  driver::SessionConfig Record = traceConfig();
  Record.RecordTracePath = ::testing::TempDir() + "perturb.trace";
  std::string RecordText;
  core::JsonReportSink RecordSink(RecordText);
  driver::SessionResult RecordRun;
  ASSERT_TRUE(
      driver::runSession(*Workload, Record, &RecordSink, RecordRun, Error))
      << Error;

  // The tee observes; it must not change what the profiler sees or when
  // the simulator charges cycles.
  EXPECT_EQ(RecordText, PlainText);
  EXPECT_EQ(RecordRun.Run.TotalCycles, PlainRun.Run.TotalCycles);
}

TEST(TraceReplayTest, SessionRejectsContradictoryBackendConfigs) {
  auto Workload = workloads::createWorkload("numa_first_touch");
  ASSERT_NE(Workload, nullptr);
  driver::SessionResult Result;
  std::string Error;

  driver::SessionConfig Both = traceConfig();
  Both.Backend = driver::SampleBackend::TraceReplay;
  Both.ReplayTracePath = "whatever.trace";
  Both.RecordTracePath = "other.trace";
  EXPECT_FALSE(driver::runSession(*Workload, Both, nullptr, Result, Error));
  EXPECT_NE(Error.find("--record-trace"), std::string::npos) << Error;

  driver::SessionConfig Native = traceConfig();
  Native.Backend = driver::SampleBackend::TraceReplay;
  Native.ReplayTracePath = "whatever.trace";
  Native.EnableProfiler = false;
  EXPECT_FALSE(
      driver::runSession(*Workload, Native, nullptr, Result, Error));
  EXPECT_NE(Error.find("profiler"), std::string::npos) << Error;
}

TEST(TraceReplayTest, ReplayHeaderOverridesRunInfoSamplingPeriod) {
  auto Workload = workloads::createWorkload("numa_first_touch");
  ASSERT_NE(Workload, nullptr);
  std::string TracePath = ::testing::TempDir() + "period.trace";

  driver::SessionConfig Record = traceConfig();
  Record.RecordTracePath = TracePath;
  driver::SessionResult Live;
  std::string Error;
  ASSERT_TRUE(driver::runSession(*Workload, Record, nullptr, Live, Error))
      << Error;

  // Replay under a *different* configured period: the report must carry
  // the recorded run's period, because that is what produced the samples.
  driver::SessionConfig Replay = traceConfig();
  Replay.Profiler.Pmu.SamplingPeriod = 8192;
  Replay.Backend = driver::SampleBackend::TraceReplay;
  Replay.ReplayTracePath = TracePath;
  std::string ReplayText;
  core::JsonReportSink ReplaySink(ReplayText);
  driver::SessionResult Replayed;
  ASSERT_TRUE(
      driver::runSession(*Workload, Replay, &ReplaySink, Replayed, Error))
      << Error;
  EXPECT_NE(ReplayText.find("\"sampling_period\":256"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Replay rejects hostile thread lifecycles with an error, never an abort
//===----------------------------------------------------------------------===//

driver::SessionConfig histogramConfig() {
  driver::SessionConfig Config;
  Config.Workload.Threads = 2;
  return Config;
}

/// A recorded two-thread histogram run: the main thread's start, two child
/// starts, samples, two child ends and the main thread's end.
pmu::TraceData recordedHistogramTrace() {
  auto Workload = workloads::createWorkload("histogram");
  driver::SessionConfig Record = histogramConfig();
  Record.RecordTracePath = ::testing::TempDir() + "histogram.trace";
  driver::SessionResult Result;
  std::string Error, Text;
  pmu::TraceData Data;
  EXPECT_TRUE(driver::runSession(*Workload, Record, nullptr, Result, Error))
      << Error;
  EXPECT_TRUE(readFile(Record.RecordTracePath, Text, Error) &&
              pmu::TraceData::parse(Text, Data, Error))
      << Error;
  return Data;
}

/// Index of the lifecycle event of kind \p K for \p Tid.
size_t lifecycleEvent(const pmu::TraceData &Data, pmu::TraceEvent::Kind K,
                      ThreadId Tid) {
  for (size_t I = 0; I < Data.Events.size(); ++I)
    if (Data.Events[I].K == K && Data.Events[I].Tid == Tid)
      return I;
  ADD_FAILURE() << "trace has no such lifecycle event for thread " << Tid;
  return 0;
}

pmu::TraceEvent lifecycle(pmu::TraceEvent::Kind K, ThreadId Tid, bool IsMain,
                          uint64_t Time) {
  pmu::TraceEvent Event;
  Event.K = K;
  Event.Tid = Tid;
  Event.IsMain = IsMain;
  Event.Time = Time;
  return Event;
}

/// Replays \p Data through runSession and expects it refused, naming the
/// file, event \p Index and \p Why.
void expectReplayRejected(const pmu::TraceData &Data, size_t Index,
                          const std::string &Why) {
  std::string Path = ::testing::TempDir() + "hostile_lifecycle.trace";
  std::string Error;
  ASSERT_TRUE(writeFile(Path, Data.serialize(), Error)) << Error;
  driver::SessionConfig Replay = histogramConfig();
  Replay.Backend = driver::SampleBackend::TraceReplay;
  Replay.ReplayTracePath = Path;
  driver::SessionResult Result;
  EXPECT_FALSE(driver::runSession(*workloads::createWorkload("histogram"),
                                  Replay, nullptr, Result, Error));
  EXPECT_NE(Error.find("'" + Path + "': event " + std::to_string(Index) +
                       ": "),
            std::string::npos)
      << Error;
  EXPECT_NE(Error.find(Why), std::string::npos) << Error;
}

TEST(TraceLifecycleTest, DuplicatedThreadStartIsRejected) {
  pmu::TraceData Data = recordedHistogramTrace();
  size_t Start =
      lifecycleEvent(Data, pmu::TraceEvent::Kind::ThreadStart, /*Tid=*/1);
  Data.Events.insert(Data.Events.begin() + Start + 1, Data.Events[Start]);
  expectReplayRejected(Data, Start + 1, "thread 1 starts twice");
}

TEST(TraceLifecycleTest, SecondMainThreadStartIsRejected) {
  pmu::TraceData Data = recordedHistogramTrace();
  size_t Start =
      lifecycleEvent(Data, pmu::TraceEvent::Kind::ThreadStart, /*Tid=*/1);
  Data.Events.insert(Data.Events.begin() + Start,
                     lifecycle(pmu::TraceEvent::Kind::ThreadStart, 3,
                               /*IsMain=*/true, Data.Events[Start].Time));
  expectReplayRejected(Data, Start, "second main-thread start");
}

TEST(TraceLifecycleTest, EndOfNeverStartedThreadIsRejected) {
  pmu::TraceData Data = recordedHistogramTrace();
  size_t End =
      lifecycleEvent(Data, pmu::TraceEvent::Kind::ThreadEnd, /*Tid=*/1);
  Data.Events.insert(Data.Events.begin() + End,
                     lifecycle(pmu::TraceEvent::Kind::ThreadEnd, 5,
                               /*IsMain=*/false, Data.Events[End].Time));
  expectReplayRejected(Data, End, "thread 5 ends without starting");
}

TEST(TraceLifecycleTest, EndBeforeStartIsRejected) {
  pmu::TraceData Data = recordedHistogramTrace();
  size_t Start =
      lifecycleEvent(Data, pmu::TraceEvent::Kind::ThreadStart, /*Tid=*/1);
  size_t End =
      lifecycleEvent(Data, pmu::TraceEvent::Kind::ThreadEnd, /*Tid=*/1);
  ASSERT_GT(Data.Events[Start].Time, 0u);
  Data.Events[End].Time = Data.Events[Start].Time - 1;
  expectReplayRejected(Data, End, "before its start");
}

TEST(TraceLifecycleTest, HugeThreadIdIsRejected) {
  pmu::TraceData Data = recordedHistogramTrace();
  size_t Start =
      lifecycleEvent(Data, pmu::TraceEvent::Kind::ThreadStart, /*Tid=*/2);
  Data.Events.insert(Data.Events.begin() + Start,
                     lifecycle(pmu::TraceEvent::Kind::ThreadStart,
                               4000000000u, /*IsMain=*/false,
                               Data.Events[Start].Time));
  expectReplayRejected(Data, Start, "tid 4000000000 is not below");
}

} // namespace
