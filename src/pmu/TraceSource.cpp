//===- pmu/TraceSource.cpp - Sample-trace record and replay ---------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pmu/TraceSource.h"

#include "support/Json.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace cheetah;
using namespace cheetah::pmu;

//===----------------------------------------------------------------------===//
// cheetah-trace-v1 serialization
//===----------------------------------------------------------------------===//

static const char *TraceSchema = "cheetah-trace-v1";

std::string TraceData::serialize() const {
  std::string Out;
  // A sample event with a 48-bit address and a 10-digit timestamp takes
  // about 60 bytes; reserving for that avoids regrowing a 20 MB buffer.
  Out.reserve(128 + 64 * Events.size());
  JsonWriter Writer(Out);
  Writer.beginObject();
  Writer.member("schema", TraceSchema);
  Writer.member("sampling_period", SamplingPeriod);
  Writer.member("run_cycles", RunCycles);
  Writer.key("events");
  Writer.beginArray();
  for (const TraceEvent &Event : Events) {
    Writer.beginObject();
    switch (Event.K) {
    case TraceEvent::Kind::ThreadStart:
      Writer.member("k", "ts");
      Writer.member("tid", static_cast<uint64_t>(Event.Tid));
      Writer.member("main", Event.IsMain);
      Writer.member("t", Event.Time);
      break;
    case TraceEvent::Kind::ThreadEnd:
      Writer.member("k", "te");
      Writer.member("tid", static_cast<uint64_t>(Event.Tid));
      Writer.member("main", Event.IsMain);
      Writer.member("t", Event.Time);
      break;
    case TraceEvent::Kind::SamplePoint:
      Writer.member("k", "s");
      Writer.member("a", Event.Address);
      Writer.member("tid", static_cast<uint64_t>(Event.Tid));
      Writer.member("w", Event.IsWrite);
      Writer.member("l", static_cast<uint64_t>(Event.LatencyCycles));
      Writer.member("t", Event.Time);
      break;
    }
    Writer.endObject();
  }
  Writer.endArray();
  Writer.endObject();
  return Out;
}

namespace {

using Token = JsonReader::Token;

/// The first occurrence of one object member, as the decoder met it; later
/// occurrences are ignored, as JsonValue::find ignores them.
struct Slot {
  bool Seen = false;
  Token Kind = Token::Null;
  double Number = 0.0;
  bool Flag = false;

  void record(Token T, const JsonReader &Reader) {
    if (Seen)
      return;
    Seen = true;
    Kind = T;
    Number = T == Token::Number ? Reader.number() : 0.0;
    Flag = T == Token::Bool && Reader.boolean();
  }

  /// The member as a counter, with jsonFieldUint's checks and messages.
  bool toUint(const char *Name, uint64_t &Out, std::string &Error) const {
    if (Kind != Token::Number) {
      Error = formatString("field '%s' missing or not a number", Name);
      return false;
    }
    return jsonNumberToUint(Number, Name, Out, Error);
  }

  /// The member as a flag, with jsonFieldBool's check and message.
  bool toBool(const char *Name, bool &Out, std::string &Error) const {
    if (Kind != Token::Bool) {
      Error = formatString("field '%s' missing or not a boolean", Name);
      return false;
    }
    Out = Flag;
    return true;
  }
};

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
  bool finishEvent(KindName Kind, const Slot (&Fields)[NumFields],
                   TraceEvent &Event, std::string &Error) const;

  JsonReader Reader;
  size_t TextSize;
  /// The first bad event's error, "event N: ..."; empty while all are good.
  std::string EventError;
  /// The "k" of an event of unknown kind, for its error message.
  std::string UnknownKind;
};

bool TraceDecoder::decode(TraceData &Out, std::string &Error) {
  Token T = Reader.next();
  if (T != Token::BeginObject) {
    if (!Reader.skip(T) || Reader.next() != Token::End)
      Error = Reader.error();
    else
      Error = "trace document is not a JSON object";
    return false;
  }

  TraceData Parsed;
  Slot Schema, Period, Cycles, Events;
  std::string SchemaText;
  for (;;) {
    T = Reader.next();
    if (T == Token::EndObject)
      break;
    if (T != Token::Key) {
      Error = Reader.error();
      return false;
    }
    std::string_view Key = Reader.string();
    Slot *Member = Key == "schema"            ? &Schema
                   : Key == "sampling_period" ? &Period
                   : Key == "run_cycles"      ? &Cycles
                   : Key == "events"          ? &Events
                                              : nullptr;
    T = Reader.next();
    if (Member && !Member->Seen) {
      Member->record(T, Reader);
      if (Member == &Schema && T == Token::String)
        SchemaText = Reader.string();
      if (Member == &Events && T == Token::BeginArray) {
        // The serializer writes each sample event in at least 46 bytes
        // (lifecycle events are a few per thread), so its traces fit
        // without regrowing.
        Parsed.Events.reserve(TextSize / 46);
        if (!decodeEvents(Parsed.Events)) {
          Error = Reader.error();
          return false;
        }
        continue;
      }
    }
    if (!Reader.skip(T)) {
      Error = Reader.error();
      return false;
    }
  }
  if (Reader.next() != Token::End) {
    Error = Reader.error();
    return false;
  }

  // Version first: a wrong schema must be the error even if the rest of
  // the document happens to look structurally plausible.
  if (Schema.Kind != Token::String) {
    Error = "field 'schema' missing or not a string";
    return false;
  }
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
  if (Events.Kind != Token::BeginArray) {
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
  for (size_t Index = 0;; ++Index) {
    Token T = Reader.next();
    if (T == Token::EndArray)
      return true;
    // After the first bad event the rest need only be well-formed.
    if (EventError.empty()) {
      if (T == Token::BeginObject) {
        if (!decodeEvent(Index, Events.emplace_back()))
          return false;
        continue;
      }
      if (T != Token::Error)
        EventError = "event " + std::to_string(Index) + ": not a JSON object";
    }
    if (!Reader.skip(T))
      return false;
  }
}

bool TraceDecoder::decodeEvent(size_t Index, TraceEvent &Event) {
  KindName Kind = KindName::Missing;
  Slot Fields[NumFields];
  for (;;) {
    Token T = Reader.next();
    if (T == Token::EndObject)
      break;
    if (T != Token::Key)
      return false;
    std::string_view Key = Reader.string();
    int F = Key == "k"      ? K
            : Key == "tid"  ? Tid
            : Key == "main" ? Main
            : Key == "t"    ? Time
            : Key == "a"    ? Address
            : Key == "w"    ? Write
            : Key == "l"    ? Latency
                            : -1;
    T = Reader.next();
    if (F == K && !Fields[K].Seen && T == Token::String) {
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
    if (!Reader.skip(T))
      return false;
  }
  std::string Error;
  if (!finishEvent(Kind, Fields, Event, Error))
    EventError = "event " + std::to_string(Index) + ": " + Error;
  return true;
}

bool TraceDecoder::finishEvent(KindName Kind,
                               const Slot (&Fields)[NumFields],
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
  return TraceDecoder(Text).decode(Out, Error);
}

//===----------------------------------------------------------------------===//
// TraceSource
//===----------------------------------------------------------------------===//

namespace {

/// Writes \p Text to \p Path. \returns false with \p Error on I/O failure.
bool writeTraceFile(const std::string &Path, const std::string &Text,
                    std::string &Error) {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File) {
    Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), File);
  bool Closed = std::fclose(File) == 0;
  if (Written != Text.size() || !Closed) {
    Error = "short write to '" + Path + "'";
    return false;
  }
  return true;
}

/// Reads all of \p Path into \p Out. \returns false with \p Error when the
/// file cannot be opened or read.
bool readTraceFile(const std::string &Path, std::string &Out,
                   std::string &Error) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    Error = "cannot open trace file '" + Path + "'";
    return false;
  }
  // Size the buffer once and read the file in one call. Input without a
  // size (a pipe) arrives through the chunked loop below instead.
  if (std::fseek(File, 0, SEEK_END) == 0) {
    long Size = std::ftell(File);
    std::rewind(File);
    if (Size > 0) {
      Out.resize(static_cast<size_t>(Size));
      Out.resize(std::fread(Out.data(), 1, Out.size(), File));
    }
  }
  char Buffer[1 << 16];
  size_t Read;
  while ((Read = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Out.append(Buffer, Read);
  bool Ok = !std::ferror(File);
  std::fclose(File);
  if (!Ok)
    Error = "read error on trace file '" + Path + "'";
  return Ok;
}

} // namespace

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
  if (!readTraceFile(Path, Text, Error))
    return {false, Error};
  if (!TraceData::parse(Text, Data, Error))
    return {false, "'" + Path + "': " + Error};
  Started = true;
  return {true, ""};
}

SourceStatus TraceSource::attachThread(ThreadId Tid) {
  if (Inner)
    return Inner->attachThread(Tid);
  return {true, ""};
}

size_t TraceSource::drain() {
  if (Inner)
    return Inner->drain();
  if (!Started || !sink())
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
  if (!writeTraceFile(Path, Data.serialize(), Error))
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
  size_t Delivered = 0;
  for (const TraceEvent &Event : Data.Events) {
    switch (Event.K) {
    case TraceEvent::Kind::ThreadStart:
      Out.threadStarted(Event.Tid, Event.IsMain, Event.Time);
      break;
    case TraceEvent::Kind::ThreadEnd:
      Out.threadFinished(Event.Tid, Event.IsMain, Event.Time);
      break;
    case TraceEvent::Kind::SamplePoint: {
      // Batches of one, in recorded order: byte-identical reports depend
      // on replay matching the recording backend's synchronous delivery
      // (batched delivery would merge latency statistics in a different
      // floating-point order).
      Sample S;
      S.Address = Event.Address;
      S.Tid = Event.Tid;
      S.IsWrite = Event.IsWrite;
      S.LatencyCycles = Event.LatencyCycles;
      S.Timestamp = Event.Time;
      Out.ingestBatch(&S, 1);
      ++Delivered;
      break;
    }
    }
  }
  return Delivered;
}
