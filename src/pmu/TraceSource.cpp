//===- pmu/TraceSource.cpp - Sample-trace record and replay ---------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pmu/TraceSource.h"

#include "support/FileIO.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <charconv>
#include <cstring>
#include <string_view>

using namespace cheetah;
using namespace cheetah::pmu;

static constexpr std::string_view TraceSchema = "cheetah-trace-v1";

//===----------------------------------------------------------------------===//
// The canonical layout
//===----------------------------------------------------------------------===//

namespace {

// The fixed text around the numbers and flags of a canonical document,
// which the writer emits and the canonical reader expects:
//   {"schema":"cheetah-trace-v1","sampling_period":N,"run_cycles":N,
//    "events":[E,E,...]}
// where each E is one of
//   {"k":"ts","tid":N,"main":B,"t":N}
//   {"k":"te","tid":N,"main":B,"t":N}
//   {"k":"s","a":N,"tid":N,"w":B,"l":N,"t":N}
// N is a decimal integer, B is true or false, and there is no whitespace.
constexpr std::string_view HeaderOpen =
    R"({"schema":"cheetah-trace-v1","sampling_period":)";
constexpr std::string_view RunCyclesKey = R"(,"run_cycles":)";
constexpr std::string_view EventsOpen = R"(,"events":[)";
constexpr std::string_view DocumentClose = "]}";
constexpr std::string_view StartOpen = R"({"k":"ts","tid":)";
constexpr std::string_view EndOpen = R"({"k":"te","tid":)";
constexpr std::string_view SampleOpen = R"({"k":"s","a":)";
constexpr std::string_view MainKey = R"(,"main":)";
constexpr std::string_view TidKey = R"(,"tid":)";
constexpr std::string_view WriteKey = R"(,"w":)";
constexpr std::string_view LatencyKey = R"(,"l":)";
constexpr std::string_view TimeKey = R"(,"t":)";
static_assert(HeaderOpen.find(TraceSchema) != std::string_view::npos);

/// Bytes the writer's buffer holds: the header (at most 112 bytes) or one
/// event and its separating comma (at most 102), with 20-digit numbers.
constexpr size_t BufferBytes = 128;

char *put(char *P, std::string_view Text) {
  std::memcpy(P, Text.data(), Text.size());
  return P + Text.size();
}

char *putNumber(char *P, uint64_t Value) {
  return std::to_chars(P, P + 20, Value).ptr;
}

char *putFlag(char *P, bool Value) {
  return put(P, Value ? std::string_view("true") : std::string_view("false"));
}

/// Writes \p Event's canonical text at \p P. \returns the end.
char *putEvent(char *P, const TraceEvent &Event) {
  if (Event.K == TraceEvent::Kind::SamplePoint) {
    P = putNumber(put(P, SampleOpen), Event.Address);
    P = putNumber(put(P, TidKey), Event.Tid);
    P = putFlag(put(P, WriteKey), Event.IsWrite);
    P = putNumber(put(P, LatencyKey), Event.LatencyCycles);
  } else {
    bool Start = Event.K == TraceEvent::Kind::ThreadStart;
    P = putNumber(put(P, Start ? StartOpen : EndOpen), Event.Tid);
    P = putFlag(put(P, MainKey), Event.IsMain);
  }
  P = putNumber(put(P, TimeKey), Event.Time);
  *P++ = '}';
  return P;
}

/// Reads a document in exactly the layout serialize() writes. Its numbers
/// are integers of at most 15 digits without a leading zero, which the
/// token decoder reads through a double to the same value, and it applies
/// the decoder's range checks, so a document it accepts decodes to what
/// the decoder would return. Anything else, valid or not, it refuses
/// without a message, for the decoder to read.
class CanonicalReader {
public:
  explicit CanonicalReader(std::string_view Text)
      : Pos(Text.data()), Limit(Text.data() + Text.size()),
        TextSize(Text.size()) {}

  /// \returns whether the whole text is a canonical document; fills \p Out
  /// only then.
  bool read(TraceData &Out);

private:
  static constexpr size_t MaxDigits = 15;

  bool expect(std::string_view Text) {
    if (static_cast<size_t>(Limit - Pos) < Text.size() ||
        std::memcmp(Pos, Text.data(), Text.size()) != 0)
      return false;
    Pos += Text.size();
    return true;
  }
  bool number(uint64_t &Value);
  bool number32(uint32_t &Value) {
    uint64_t Wide = 0;
    if (!number(Wide) || Wide > UINT32_MAX)
      return false;
    Value = static_cast<uint32_t>(Wide);
    return true;
  }
  bool flag(bool &Value) {
    Value = expect("true");
    return Value || expect("false");
  }
  bool event(TraceEvent &Event);

  const char *Pos;
  const char *Limit;
  size_t TextSize;
};

bool CanonicalReader::number(uint64_t &Value) {
  const char *Start = Pos;
  const char *End =
      static_cast<size_t>(Limit - Pos) > MaxDigits ? Pos + MaxDigits : Limit;
  uint64_t Digits = 0;
  while (Pos != End && *Pos >= '0' && *Pos <= '9')
    Digits = Digits * 10 + static_cast<uint64_t>(*Pos++ - '0');
  size_t Length = static_cast<size_t>(Pos - Start);
  // A 16th digit fails the member text that must follow.
  if (Length == 0 || (Length > 1 && *Start == '0'))
    return false;
  Value = Digits;
  return true;
}

bool CanonicalReader::event(TraceEvent &Event) {
  if (expect(SampleOpen)) {
    Event.K = TraceEvent::Kind::SamplePoint;
    if (!number(Event.Address) || !expect(TidKey) || !number32(Event.Tid) ||
        !expect(WriteKey) || !flag(Event.IsWrite) || !expect(LatencyKey) ||
        !number32(Event.LatencyCycles))
      return false;
  } else {
    if (expect(StartOpen))
      Event.K = TraceEvent::Kind::ThreadStart;
    else if (expect(EndOpen))
      Event.K = TraceEvent::Kind::ThreadEnd;
    else
      return false;
    if (!number32(Event.Tid) || !expect(MainKey) || !flag(Event.IsMain))
      return false;
  }
  return expect(TimeKey) && number(Event.Time) && expect("}");
}

bool CanonicalReader::read(TraceData &Out) {
  TraceData Parsed;
  if (!expect(HeaderOpen) || !number(Parsed.SamplingPeriod) ||
      Parsed.SamplingPeriod < 1 || !expect(RunCyclesKey) ||
      !number(Parsed.RunCycles) || !expect(EventsOpen))
    return false;
  // The token decoder's reservation, so either path allocates alike.
  Parsed.Events.reserve(TextSize / 46);
  if (Pos == Limit || *Pos != ']') {
    do {
      if (!event(Parsed.Events.emplace_back()))
        return false;
    } while (expect(","));
  }
  if (!expect(DocumentClose) || Pos != Limit)
    return false;
  Out = std::move(Parsed);
  return true;
}

} // namespace

std::string TraceData::serialize() const {
  std::string Out;
  // A sample event with a 48-bit address and a 10-digit timestamp takes
  // about 60 bytes; reserving for that avoids regrowing a 20 MB buffer.
  Out.reserve(128 + 64 * Events.size());
  char Buffer[BufferBytes];
  auto Flush = [&](const char *End) { Out.append(Buffer, End - Buffer); };
  char *P = putNumber(put(Buffer, HeaderOpen), SamplingPeriod);
  P = putNumber(put(P, RunCyclesKey), RunCycles);
  Flush(put(P, EventsOpen));
  for (size_t I = 0; I < Events.size(); ++I) {
    P = Buffer;
    if (I)
      *P++ = ',';
    Flush(putEvent(P, Events[I]));
  }
  Out += DocumentClose;
  return Out;
}

//===----------------------------------------------------------------------===//
// Any other spelling: the token decoder
//===----------------------------------------------------------------------===//

namespace {

using Token = JsonReader::Token;

/// Single-pass cheetah-trace-v1 decoder: fills TraceEvents straight from
/// JsonReader tokens, with no document tree. It accepts exactly what the
/// tree-based reading accepted — members in any order, first occurrence
/// winning, unknown members ignored — with the same values and the same
/// first error. A syntax error anywhere outranks every semantic error, so
/// the decoder records the first semantic error and reads on to the end.
class TraceDecoder {
public:
  explicit TraceDecoder(std::string_view Text)
      : Reader(Text), TextSize(Text.size()) {}

  bool decode(TraceData &Out, std::string &Error);

private:
  /// The members an event may carry.
  enum Field { K, Tid, Main, Time, Address, Write, Latency, NumFields };
  /// What the event's first "k" member said.
  enum class KindName { Missing, ThreadStart, ThreadEnd, Sample, Unknown };

  /// Reads the events array after its '['. \returns false on a syntax
  /// error.
  bool decodeEvents(std::vector<TraceEvent> &Events);
  /// Reads one event object after its '{' into \p Event, recording the
  /// first bad event's error. \returns false on a syntax error.
  bool decodeEvent(size_t Index, TraceEvent &Event);
  /// Checks the event's members in the tree-based reading's order.
  bool finishEvent(KindName Kind, const JsonField (&Fields)[NumFields],
                   TraceEvent &Event, std::string &Error) const;

  JsonReader Reader;
  size_t TextSize;
  /// The first bad event's error, "event N: ..."; empty while all are good.
  std::string EventError;
  /// The "k" of an event of unknown kind, for its error message.
  std::string UnknownKind;
};

bool TraceDecoder::decode(TraceData &Out, std::string &Error) {
  TraceData Parsed;
  JsonField Schema, Period, Cycles, Events;
  std::string SchemaText;
  bool IsObject = false;
  bool Ok = Reader.readDocument(IsObject, [&](std::string_view Key) {
    if (Key == "schema")
      return Schema.read(Reader, &SchemaText);
    if (Key == "sampling_period")
      return Period.read(Reader);
    if (Key == "run_cycles")
      return Cycles.read(Reader);
    if (Key == "events")
      return Events.read(Reader, Token::BeginArray, [&] {
        // The serializer writes each sample event in at least 46 bytes
        // (lifecycle events are a few per thread), so its traces fit
        // without regrowing.
        Parsed.Events.reserve(TextSize / 46);
        return decodeEvents(Parsed.Events);
      });
    return Reader.skip(Reader.next());
  });
  if (!Ok) {
    Error = Reader.error();
    return false;
  }
  if (!IsObject) {
    Error = "trace document is not a JSON object";
    return false;
  }

  // Version first: a wrong schema must be the error even if the rest of
  // the document happens to look structurally plausible.
  if (!Schema.checkString("schema", Error))
    return false;
  if (SchemaText != TraceSchema) {
    Error = "unsupported schema '" + SchemaText + "' (expected " +
            std::string(TraceSchema) + ")";
    return false;
  }
  if (!Period.toUint("sampling_period", Parsed.SamplingPeriod, Error) ||
      !Cycles.toUint("run_cycles", Parsed.RunCycles, Error))
    return false;
  if (Parsed.SamplingPeriod < 1) {
    Error = "sampling_period must be at least 1";
    return false;
  }
  if (!Events.is(Token::BeginArray)) {
    Error = "missing or non-array 'events'";
    return false;
  }
  if (!EventError.empty()) {
    Error = EventError;
    return false;
  }
  Out = std::move(Parsed);
  return true;
}

bool TraceDecoder::decodeEvents(std::vector<TraceEvent> &Events) {
  return Reader.readElements([&](size_t Index, Token T) {
    // After the first bad event the rest need only be well-formed.
    if (EventError.empty()) {
      if (T == Token::BeginObject)
        return decodeEvent(Index, Events.emplace_back());
      EventError = "event " + std::to_string(Index) + ": not a JSON object";
    }
    return Reader.skip(T);
  });
}

bool TraceDecoder::decodeEvent(size_t Index, TraceEvent &Event) {
  KindName Kind = KindName::Missing;
  JsonField Fields[NumFields];
  bool Ok = Reader.readMembers([&](std::string_view Key) {
    int F = Key == "k"      ? K
            : Key == "tid"  ? Tid
            : Key == "main" ? Main
            : Key == "t"    ? Time
            : Key == "a"    ? Address
            : Key == "w"    ? Write
            : Key == "l"    ? Latency
                            : -1;
    Token T = Reader.next();
    if (F == K && !Fields[K].seen() && T == Token::String) {
      std::string_view Name = Reader.string();
      Kind = Name == "s"    ? KindName::Sample
             : Name == "ts" ? KindName::ThreadStart
             : Name == "te" ? KindName::ThreadEnd
                            : KindName::Unknown;
      if (Kind == KindName::Unknown)
        UnknownKind = Name;
    }
    if (F >= 0)
      Fields[F].record(T, Reader);
    return Reader.skip(T);
  });
  std::string Error;
  if (Ok && !finishEvent(Kind, Fields, Event, Error))
    EventError = "event " + std::to_string(Index) + ": " + Error;
  return Ok;
}

bool TraceDecoder::finishEvent(KindName Kind,
                               const JsonField (&Fields)[NumFields],
                               TraceEvent &Event, std::string &Error) const {
  uint64_t EventTid = 0;
  switch (Kind) {
  case KindName::Missing:
    Error = "field 'k' missing or not a string";
    return false;
  case KindName::ThreadStart:
  case KindName::ThreadEnd:
    Event.K = Kind == KindName::ThreadStart ? TraceEvent::Kind::ThreadStart
                                            : TraceEvent::Kind::ThreadEnd;
    if (!Fields[Tid].toUint("tid", EventTid, Error) ||
        !Fields[Main].toBool("main", Event.IsMain, Error) ||
        !Fields[Time].toUint("t", Event.Time, Error))
      return false;
    break;
  case KindName::Sample: {
    Event.K = TraceEvent::Kind::SamplePoint;
    uint64_t EventLatency = 0;
    if (!Fields[Address].toUint("a", Event.Address, Error) ||
        !Fields[Tid].toUint("tid", EventTid, Error) ||
        !Fields[Write].toBool("w", Event.IsWrite, Error) ||
        !Fields[Latency].toUint("l", EventLatency, Error) ||
        !Fields[Time].toUint("t", Event.Time, Error))
      return false;
    if (EventLatency > UINT32_MAX) {
      Error = "latency exceeds 32 bits";
      return false;
    }
    Event.LatencyCycles = static_cast<uint32_t>(EventLatency);
    break;
  }
  case KindName::Unknown:
    Error = "unknown event kind '" + UnknownKind + "'";
    return false;
  }
  if (EventTid > UINT32_MAX) {
    Error = "tid exceeds 32 bits";
    return false;
  }
  Event.Tid = static_cast<ThreadId>(EventTid);
  return true;
}

} // namespace

bool TraceData::parse(const std::string &Text, TraceData &Out,
                      std::string &Error) {
  return CanonicalReader(Text).read(Out) ||
         TraceDecoder(Text).decode(Out, Error);
}

namespace {

/// Checks the thread-lifecycle contract a replayed stream must keep for
/// the profiler's thread registry and phase tracker, which assert on it:
///  - exactly one main-thread start, before every other lifecycle event;
///  - each tid starts at most once;
///  - every tid (starts and samples) is below the number of start events —
///    recorders number threads densely, so this bounds the registry;
///  - an end names a started, unfinished tid with the same main flag, at a
///    time no earlier than its start;
///  - no start or end follows the main thread's end.
/// \returns false with an "event N: ..." \p Error on the first violation.
bool checkLifecycle(const std::vector<TraceEvent> &Events,
                    std::string &Error) {
  size_t Starts = 0;
  for (const TraceEvent &Event : Events)
    Starts += Event.K == TraceEvent::Kind::ThreadStart;
  struct Lifetime {
    bool Started = false;
    bool Finished = false;
    bool IsMain = false;
    uint64_t Start = 0;
  };
  std::vector<Lifetime> Threads(Starts);
  bool MainStarted = false, MainFinished = false;

  for (size_t I = 0; I < Events.size(); ++I) {
    const TraceEvent &Event = Events[I];
    bool Known = Event.Tid < Starts;
    if (Known && Event.K == TraceEvent::Kind::SamplePoint)
      continue;
    auto Fail = [&](const std::string &What) {
      Error = "event " + std::to_string(I) + ": " + What;
      return false;
    };
    std::string Name = "thread " + std::to_string(Event.Tid);
    bool IsEnd = Event.K == TraceEvent::Kind::ThreadEnd;
    if (IsEnd && !(Known && Threads[Event.Tid].Started))
      return Fail(Name + " ends without starting");
    if (!Known)
      return Fail("tid " + std::to_string(Event.Tid) +
                  " is not below the trace's " + std::to_string(Starts) +
                  " thread starts");
    if (MainFinished)
      return Fail(Name + " lifecycle event after the main thread's end");

    Lifetime &Thread = Threads[Event.Tid];
    if (!IsEnd) {
      if (Event.IsMain && MainStarted)
        return Fail("second main-thread start");
      if (!Event.IsMain && !MainStarted)
        return Fail(Name + " starts before the main thread");
      if (Thread.Started)
        return Fail(Name + " starts twice");
      Thread = {true, false, Event.IsMain, Event.Time};
      MainStarted |= Event.IsMain;
      continue;
    }
    if (Thread.Finished)
      return Fail(Name + " ends twice");
    if (Thread.IsMain != Event.IsMain)
      return Fail(Name + " ends with a different main flag than it started");
    if (Event.Time < Thread.Start)
      return Fail(Name + " ends at cycle " + std::to_string(Event.Time) +
                  ", before its start at cycle " +
                  std::to_string(Thread.Start));
    Thread.Finished = true;
    MainFinished = Event.IsMain;
  }
  if (!MainStarted) {
    Error = "no main-thread start event";
    return false;
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// TraceSource
//===----------------------------------------------------------------------===//

TraceSource::TraceSource(std::unique_ptr<SampleSource> Inner, std::string Path,
                         uint64_t SamplingPeriod)
    : Inner(std::move(Inner)), Path(std::move(Path)) {
  Data.SamplingPeriod = SamplingPeriod;
}

TraceSource::TraceSource(std::string Path) : Path(std::move(Path)) {}

SourceStatus TraceSource::start() {
  if (Started)
    return {true, ""};
  if (Inner) {
    // Record mode: interpose on the inner backend's stream. The outer sink
    // (set on *this*) receives everything the inner backend delivers,
    // after the tee buffers it.
    Inner->setSink(this);
    SourceStatus Status = Inner->start();
    Started = Status.Available;
    return Status;
  }
  // Replay mode: the whole trace is materialized up front so a parse error
  // surfaces here, before any event reaches the sink.
  std::string Text, Error;
  if (!readFile(Path, Text, Error))
    return {false, Error};
  // The document decoder accepts any event order; replay additionally
  // needs a lifecycle the profiler can follow.
  if (!TraceData::parse(Text, Data, Error) ||
      !checkLifecycle(Data.Events, Error))
    return {false, "'" + Path + "': " + Error};
  Started = true;
  return {true, ""};
}

size_t TraceSource::drain() {
  if (Inner || !Started || !sink())
    return 0;
  size_t Delivered = replayInto(*sink());
  SamplesDelivered += Delivered;
  return Delivered;
}

SourceStatus TraceSource::stop() {
  if (Stopped)
    return {true, ""};
  Stopped = true;
  if (!Inner)
    return {true, ""};
  SourceStatus Status = Inner->stop();
  if (!Status.Available)
    return Status;
  if (Path.empty())
    return {true, ""}; // in-memory recording: nothing to flush
  std::string Error;
  if (!writeFile(Path, Data.serialize(), Error))
    return {false, Error};
  return {true, ""};
}

void TraceSource::threadStarted(ThreadId Tid, bool IsMain, uint64_t Now) {
  TraceEvent Event;
  Event.K = TraceEvent::Kind::ThreadStart;
  Event.Tid = Tid;
  Event.IsMain = IsMain;
  Event.Time = Now;
  Data.Events.push_back(Event);
  if (sink())
    sink()->threadStarted(Tid, IsMain, Now);
}

void TraceSource::threadFinished(ThreadId Tid, bool IsMain,
                                 uint64_t EndCycle) {
  TraceEvent Event;
  Event.K = TraceEvent::Kind::ThreadEnd;
  Event.Tid = Tid;
  Event.IsMain = IsMain;
  Event.Time = EndCycle;
  Data.Events.push_back(Event);
  if (sink())
    sink()->threadFinished(Tid, IsMain, EndCycle);
}

void TraceSource::ingestBatch(const Sample *Samples, size_t Count) {
  for (size_t I = 0; I < Count; ++I) {
    const Sample &S = Samples[I];
    TraceEvent Event;
    Event.K = TraceEvent::Kind::SamplePoint;
    Event.Tid = S.Tid;
    Event.Time = S.Timestamp;
    Event.Address = S.Address;
    Event.IsWrite = S.IsWrite;
    Event.LatencyCycles = S.LatencyCycles;
    Data.Events.push_back(Event);
  }
  SamplesDelivered += Count;
  if (sink())
    sink()->ingestBatch(Samples, Count);
}

size_t TraceSource::replayInto(SampleSink &Out) const {
  // Samples go out in recorded order, in batches of at most
  // SampleBatchCapacity handed over before every lifecycle event and at
  // the end, just as the simulated PMU delivers them live. No batch spans
  // a phase change, and the sink's results do not depend on where a batch
  // is cut, so the replayed report is byte-identical to the recorded run's.
  std::vector<Sample> Batch;
  Batch.reserve(SampleBatchCapacity);
  size_t Delivered = 0;
  auto Flush = [&] {
    if (Batch.empty())
      return;
    Out.ingestBatch(Batch.data(), Batch.size());
    Delivered += Batch.size();
    Batch.clear();
  };
  for (const TraceEvent &Event : Data.Events) {
    switch (Event.K) {
    case TraceEvent::Kind::ThreadStart:
      Flush();
      Out.threadStarted(Event.Tid, Event.IsMain, Event.Time);
      break;
    case TraceEvent::Kind::ThreadEnd:
      Flush();
      Out.threadFinished(Event.Tid, Event.IsMain, Event.Time);
      break;
    case TraceEvent::Kind::SamplePoint: {
      Sample &S = Batch.emplace_back();
      S.Address = Event.Address;
      S.Tid = Event.Tid;
      S.IsWrite = Event.IsWrite;
      S.LatencyCycles = Event.LatencyCycles;
      S.Timestamp = Event.Time;
      if (Batch.size() == SampleBatchCapacity)
        Flush();
      break;
    }
    }
  }
  Flush();
  return Delivered;
}
