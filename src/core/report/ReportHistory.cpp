//===- core/report/ReportHistory.cpp - N-run trend history ----------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/report/ReportHistory.h"

#include "support/FileIO.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <limits>
#include <string_view>
#include <unordered_set>

using namespace cheetah;
using namespace cheetah::core;

//===----------------------------------------------------------------------===//
// TrendSeries
//===----------------------------------------------------------------------===//

const TrendPoint *TrendSeries::pointAt(uint32_t RunIndex) const {
  auto It = std::lower_bound(Points.begin(), Points.end(), RunIndex,
                             [](const TrendPoint &P, uint32_t Index) {
                               return P.RunIndex < Index;
                             });
  if (It != Points.end() && It->RunIndex == RunIndex)
    return &*It;
  return nullptr;
}

double TrendSeries::bestBefore(uint32_t RunIndex, bool &HasBest) const {
  HasBest = false;
  double Best = 1.0;
  // Points are sorted by run index; walk them alongside the run counter so
  // absent runs contribute their implicit 1.0.
  size_t Next = 0;
  for (uint32_t Run = 0; Run < RunIndex; ++Run) {
    while (Next < Points.size() && Points[Next].RunIndex < Run)
      ++Next;
    const TrendPoint *Point =
        Next < Points.size() && Points[Next].RunIndex == Run ? &Points[Next]
                                                             : nullptr;
    if (Point && !Point->HasImprovement)
      continue; // v2-era observation: no factor to compare against.
    double Value = Point ? Point->Improvement : 1.0;
    if (!HasBest || Value < Best)
      Best = Value;
    HasBest = true;
  }
  return Best;
}

//===----------------------------------------------------------------------===//
// Append
//===----------------------------------------------------------------------===//

const TrendSeries *ReportHistory::seriesFor(const std::string &Key) const {
  auto It = SeriesIndex.find(Key);
  return It == SeriesIndex.end() ? nullptr : &Series[It->second];
}

namespace {

TrendPoint pointFromFinding(const DiffFinding &Finding, uint32_t RunIndex) {
  TrendPoint Point;
  Point.RunIndex = RunIndex;
  Point.Significant = Finding.Significant;
  Point.HasImprovement = Finding.HasImprovement;
  Point.Improvement = Finding.HasImprovement ? Finding.Improvement : 1.0;
  Point.Accesses = Finding.Accesses;
  Point.Invalidations = Finding.Invalidations;
  Point.RemoteAccesses = Finding.RemoteAccesses;
  Point.RemoteByDistance = Finding.RemoteByDistance;
  return Point;
}

/// Writes \p Point as one element of a series' "points" array: the one
/// encoding of a point, for stored text and serialize() alike.
void encodePoint(JsonWriter &Writer, const TrendPoint &Point, bool IsPage) {
  Writer.beginObject();
  Writer.member("run", static_cast<uint64_t>(Point.RunIndex));
  Writer.member("significant", Point.Significant);
  if (Point.HasImprovement)
    Writer.member("predictedImprovement", Point.Improvement);
  Writer.member("accesses", Point.Accesses);
  Writer.member("invalidations", Point.Invalidations);
  if (IsPage)
    Writer.member("remote_accesses", Point.RemoteAccesses);
  if (!Point.RemoteByDistance.empty()) {
    Writer.key("remote_by_distance");
    Writer.beginArray();
    for (const RemoteDistanceStats &Bucket : Point.RemoteByDistance) {
      Writer.beginObject();
      Writer.member("distance", Bucket.Distance);
      Writer.member("accesses", Bucket.Accesses);
      Writer.member("cycles", Bucket.Cycles);
      Writer.endObject();
    }
    Writer.endArray();
  }
  Writer.endObject();
}

/// Appends \p Point to a series' comma-joined point text.
void appendPointText(std::string &Text, const TrendPoint &Point,
                     bool IsPage) {
  if (!Text.empty())
    Text += ',';
  JsonWriter Writer(Text);
  encodePoint(Writer, Point, IsPage);
}

} // namespace

bool ReportHistory::appendRun(const ParsedReport &Report,
                              const std::string &RunId, std::string &Error) {
  if (RunId.empty()) {
    Error = "run id must not be empty";
    return false;
  }
  for (const HistoryRunInfo &Run : Runs)
    if (Run.Id == RunId) {
      Error = "duplicate run id '" + RunId + "'";
      return false;
    }
  // Both granularities, one list after the other (keys are
  // prefix-disjoint). A key named twice would give its series two points
  // at one run, which parse() rejects: refuse such a run before anything
  // changes.
  const std::vector<DiffFinding> *Lists[] = {&Report.Findings,
                                             &Report.PageFindings};
  std::unordered_set<std::string_view> Keys;
  Keys.reserve(Report.Findings.size() + Report.PageFindings.size());
  for (const std::vector<DiffFinding> *List : Lists)
    for (const DiffFinding &Finding : *List)
      if (!Keys.insert(Finding.Key).second) {
        Error = "finding key '" + Finding.Key + "' appears twice in the run";
        return false;
      }

  uint32_t Index = static_cast<uint32_t>(Runs.size());
  // A series was present in the previous run when its last point is
  // there; a finding of this run whose series was present is matched.
  auto PresentBefore = [Index](const TrendSeries &S) {
    return !S.Points.empty() && S.Points.back().RunIndex + 1 == Index;
  };
  uint64_t Present = std::count_if(Series.begin(), Series.end(),
                                   PresentBefore);
  uint64_t Matched = 0;
  for (const std::vector<DiffFinding> *List : Lists)
    for (const DiffFinding &Finding : *List) {
      auto [It, Inserted] = SeriesIndex.try_emplace(
          Finding.Key, static_cast<uint32_t>(Series.size()));
      if (Inserted) {
        TrendSeries S;
        S.Key = Finding.Key;
        S.IsPage = Finding.IsPage;
        Series.push_back(std::move(S));
        PointText.emplace_back();
      }
      TrendSeries &S = Series[It->second];
      std::string &Text = PointText[It->second];
      Matched += PresentBefore(S);
      if (Text.empty()) // loaded by parse(): encode the earlier points
        for (const TrendPoint &Earlier : S.Points)
          appendPointText(Text, Earlier, S.IsPage);
      // Diff-sourced matched entries carry no sharing string; keep the
      // last real observation in that case.
      if (!Finding.Sharing.empty())
        S.Sharing = Finding.Sharing;
      S.Points.push_back(pointFromFinding(Finding, Index));
      appendPointText(Text, S.Points.back(), S.IsPage);
    }

  HistoryRunInfo Info;
  Info.Id = RunId;
  Info.Workload = Report.Workload;
  Info.Threads = Report.Threads;
  Info.FixApplied = Report.FixApplied;
  Info.Granularity = Report.Granularity;
  Info.SourceSchema = Report.Schema;
  Info.AppRuntimeCycles = Report.AppRuntimeCycles;
  Info.NewFindings = Keys.size() - Matched;
  Info.ResolvedFindings = Present - Matched;
  Info.MatchedFindings = Matched;
  Runs.push_back(std::move(Info));
  return true;
}

//===----------------------------------------------------------------------===//
// Gate and bisect
//===----------------------------------------------------------------------===//

std::vector<HistoryGateViolation>
ReportHistory::gate(double Factor, double Tolerance) const {
  std::vector<HistoryGateViolation> Violations;
  if (Runs.empty())
    return Violations;
  uint32_t Last = static_cast<uint32_t>(Runs.size()) - 1;
  for (const TrendSeries &S : Series) {
    const TrendPoint *Current = S.pointAt(Last);
    if (!Current || !Current->Significant || !Current->HasImprovement ||
        Current->Improvement < Factor)
      continue;
    bool HasBest = false;
    double Best = S.bestBefore(Last, HasBest);
    HistoryGateViolation Violation;
    Violation.Key = S.Key;
    Violation.IsPage = S.IsPage;
    Violation.Improvement = Current->Improvement;
    Violation.Best = Best;
    if (!HasBest)
      Violation.Why = HistoryGateViolation::Kind::NewSite;
    else if (Best < Factor)
      Violation.Why = HistoryGateViolation::Kind::Crossed;
    else if (Current->Improvement > Best + Tolerance)
      Violation.Why = HistoryGateViolation::Kind::Grew;
    else
      continue; // Bad since the first run and stable: not a regression.
    Violations.push_back(std::move(Violation));
  }
  std::sort(Violations.begin(), Violations.end(),
            [](const HistoryGateViolation &A, const HistoryGateViolation &B) {
              if (A.Improvement != B.Improvement)
                return A.Improvement > B.Improvement;
              return A.Key < B.Key;
            });
  return Violations;
}

BisectResult ReportHistory::bisect(const std::string &Key,
                                   double Factor) const {
  BisectResult Result;
  if (Runs.empty()) {
    Result.Error = "history store is empty";
    return Result;
  }
  const TrendSeries *S = seriesFor(Key);
  if (!S) {
    Result.Error = "unknown finding key '" + Key + "'";
    return Result;
  }
  auto Bad = [&](uint32_t Index) {
    ++Result.Probes;
    const TrendPoint *Point = S->pointAt(Index);
    return Point && Point->Significant && Point->HasImprovement &&
           Point->Improvement >= Factor;
  };
  uint32_t Last = static_cast<uint32_t>(Runs.size()) - 1;
  if (!Bad(Last)) {
    Result.Error = formatString(
        "'%s' is not regressing at factor %.4f in the last run", Key.c_str(),
        Factor);
    return Result;
  }
  if (Bad(0)) {
    // The whole store is bad: the culprit predates run 0.
    Result.Valid = true;
    Result.BadFromStart = true;
    Result.IntroducedIndex = 0;
    Result.IntroducedRunId = Runs[0].Id;
    return Result;
  }
  // Classic bisection between a known-good and known-bad run. On a
  // flapping history this converges on *a* good-to-bad transition, which
  // is the git-bisect contract.
  uint32_t Good = 0, BadIndex = Last;
  while (BadIndex - Good > 1) {
    uint32_t Mid = Good + (BadIndex - Good) / 2;
    if (Bad(Mid))
      BadIndex = Mid;
    else
      Good = Mid;
  }
  Result.Valid = true;
  Result.IntroducedIndex = BadIndex;
  Result.IntroducedRunId = Runs[BadIndex].Id;
  return Result;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

std::string ReportHistory::serialize() const {
  // One reservation: the ledger and series heads are estimated, the
  // stored text is exact, and an untouched series gets a typical point
  // size.
  size_t Size = 64;
  for (const HistoryRunInfo &Run : Runs)
    Size += 320 + Run.Id.size() + Run.Workload.size() +
            Run.Granularity.size() + Run.SourceSchema.size();
  for (size_t I = 0; I < Series.size(); ++I)
    Size += 64 + Series[I].Key.size() + Series[I].Sharing.size() +
            (PointText[I].empty() ? 128 * Series[I].Points.size()
                                  : PointText[I].size());
  std::string Out;
  Out.reserve(Size);
  JsonWriter Writer(Out);
  Writer.beginObject();
  Writer.member("schema", "cheetah-history-v1");
  Writer.key("runs");
  Writer.beginArray();
  for (const HistoryRunInfo &Run : Runs) {
    Writer.beginObject();
    Writer.member("id", Run.Id);
    Writer.member("workload", Run.Workload);
    Writer.member("threads", Run.Threads);
    Writer.member("fix_applied", Run.FixApplied);
    Writer.member("granularity", Run.Granularity);
    Writer.member("source_schema", Run.SourceSchema);
    Writer.member("app_runtime_cycles", Run.AppRuntimeCycles);
    Writer.member("new_findings", Run.NewFindings);
    Writer.member("resolved_findings", Run.ResolvedFindings);
    Writer.member("matched_findings", Run.MatchedFindings);
    Writer.endObject();
  }
  Writer.endArray();
  Writer.key("series");
  Writer.beginArray();
  for (size_t I = 0; I < Series.size(); ++I) {
    const TrendSeries &S = Series[I];
    Writer.beginObject();
    Writer.member("key", S.Key);
    Writer.member("page", S.IsPage);
    Writer.member("sharing", S.Sharing);
    Writer.key("points");
    Writer.beginArray();
    // Stored text goes in raw, so the writer's points frame stays
    // empty and endArray() closes it as it is.
    if (PointText[I].empty())
      for (const TrendPoint &Point : S.Points)
        encodePoint(Writer, Point, S.IsPage);
    else
      Out += PointText[I];
    Writer.endArray();
    Writer.endObject();
  }
  Writer.endArray();
  Writer.endObject();
  Out += "\n";
  return Out;
}

namespace {

bool parsePoint(const JsonValue &Node, bool IsPage, size_t RunCount,
                const TrendPoint *PreviousPoint, TrendPoint &Out,
                std::string &Error) {
  if (!Node.isObject()) {
    Error = "point is not an object";
    return false;
  }
  uint64_t Run = 0;
  if (!jsonFieldUint(Node, "run", Run, Error) ||
      !jsonFieldBool(Node, "significant", Out.Significant, Error) ||
      !jsonFieldUint(Node, "accesses", Out.Accesses, Error) ||
      !jsonFieldUint(Node, "invalidations", Out.Invalidations, Error))
    return false;
  if (Run >= RunCount) {
    Error = formatString("field 'run' (%llu) references no stored run",
                         static_cast<unsigned long long>(Run));
    return false;
  }
  Out.RunIndex = static_cast<uint32_t>(Run);
  if (PreviousPoint && Out.RunIndex <= PreviousPoint->RunIndex) {
    Error = "point run indices are not strictly increasing";
    return false;
  }
  if (const JsonValue *Factor = Node.find("predictedImprovement")) {
    if (Factor->kind() != JsonValue::Kind::Number) {
      Error = "field 'predictedImprovement' is not a number";
      return false;
    }
    Out.Improvement = Factor->asNumber();
    Out.HasImprovement = true;
  }
  if (IsPage) {
    if (!jsonFieldUint(Node, "remote_accesses", Out.RemoteAccesses, Error))
      return false;
  } else if (Node.find("remote_accesses") || Node.find("remote_by_distance")) {
    // Canonical stores never put page-only members on a line point;
    // accepting them would break the parse -> re-emit stability contract.
    Error = "line point carries page-only members";
    return false;
  }
  if (const JsonValue *Buckets = Node.find("remote_by_distance")) {
    if (!Buckets->isArray()) {
      Error = "'remote_by_distance' is not an array";
      return false;
    }
    for (size_t I = 0; I < Buckets->size(); ++I) {
      const JsonValue &Entry = Buckets->elements()[I];
      if (!Entry.isObject()) {
        Error = formatString("remote_by_distance[%zu] is not an object", I);
        return false;
      }
      RemoteDistanceStats Bucket;
      uint64_t Distance = 0;
      if (!jsonFieldUint(Entry, "distance", Distance, Error) ||
          !jsonFieldUint(Entry, "accesses", Bucket.Accesses, Error) ||
          !jsonFieldUint(Entry, "cycles", Bucket.Cycles, Error)) {
        Error = formatString("remote_by_distance[%zu]: ", I) + Error;
        return false;
      }
      if (Distance > std::numeric_limits<uint32_t>::max()) {
        Error = formatString(
            "remote_by_distance[%zu]: field 'distance' is out of range", I);
        return false;
      }
      Bucket.Distance = static_cast<uint32_t>(Distance);
      Out.RemoteByDistance.push_back(Bucket);
    }
  }
  return true;
}

} // namespace

bool ReportHistory::parse(const std::string &Text, ReportHistory &Out,
                          std::string &Error) {
  Out = ReportHistory();
  JsonValue Document;
  if (!JsonValue::parse(Text, Document, Error)) {
    Error = "invalid JSON: " + Error;
    return false;
  }
  if (!Document.isObject()) {
    Error = "history store is not a JSON object";
    return false;
  }
  std::string Schema;
  if (!jsonFieldString(Document, "schema", Schema, Error))
    return false;
  if (Schema != "cheetah-history-v1") {
    Error = formatString(
        "unsupported schema '%s' (cheetah-trend reads cheetah-history-v1)",
        Schema.c_str());
    return false;
  }

  // Filled on the side so a failed parse leaves Out empty.
  ReportHistory Parsed;
  const JsonValue *Runs = Document.find("runs");
  if (!Runs || !Runs->isArray()) {
    Error = "history store without a 'runs' array";
    return false;
  }
  for (size_t I = 0; I < Runs->size(); ++I) {
    const JsonValue &Node = Runs->elements()[I];
    HistoryRunInfo Info;
    bool Ok = Node.isObject() &&
              jsonFieldString(Node, "id", Info.Id, Error) &&
              jsonFieldString(Node, "workload", Info.Workload, Error) &&
              jsonFieldUint(Node, "threads", Info.Threads, Error) &&
              jsonFieldBool(Node, "fix_applied", Info.FixApplied, Error) &&
              jsonFieldString(Node, "granularity", Info.Granularity, Error) &&
              jsonFieldString(Node, "source_schema", Info.SourceSchema,
                              Error) &&
              jsonFieldUint(Node, "app_runtime_cycles",
                            Info.AppRuntimeCycles, Error) &&
              jsonFieldUint(Node, "new_findings", Info.NewFindings, Error) &&
              jsonFieldUint(Node, "resolved_findings", Info.ResolvedFindings,
                            Error) &&
              jsonFieldUint(Node, "matched_findings", Info.MatchedFindings,
                            Error);
    if (!Ok) {
      if (!Node.isObject())
        Error = "run is not an object";
      Error = formatString("runs[%zu]: ", I) + Error;
      return false;
    }
    if (Info.Id.empty()) {
      Error = formatString("runs[%zu]: run id must not be empty", I);
      return false;
    }
    for (const HistoryRunInfo &Seen : Parsed.Runs)
      if (Seen.Id == Info.Id) {
        Error = formatString("runs[%zu]: duplicate run id '%s'", I,
                             Info.Id.c_str());
        return false;
      }
    Parsed.Runs.push_back(std::move(Info));
  }

  const JsonValue *Series = Document.find("series");
  if (!Series || !Series->isArray()) {
    Error = "history store without a 'series' array";
    return false;
  }
  for (size_t I = 0; I < Series->size(); ++I) {
    const JsonValue &Node = Series->elements()[I];
    if (!Node.isObject()) {
      Error = formatString("series[%zu] is not an object", I);
      return false;
    }
    TrendSeries S;
    if (!jsonFieldString(Node, "key", S.Key, Error) ||
        !jsonFieldBool(Node, "page", S.IsPage, Error) ||
        !jsonFieldString(Node, "sharing", S.Sharing, Error)) {
      Error = formatString("series[%zu]: ", I) + Error;
      return false;
    }
    if (S.Key.empty()) {
      Error = formatString("series[%zu]: key must not be empty", I);
      return false;
    }
    if (!Parsed.SeriesIndex
             .try_emplace(S.Key, static_cast<uint32_t>(Parsed.Series.size()))
             .second) {
      Error = formatString("series[%zu]: duplicate key '%s'", I,
                           S.Key.c_str());
      return false;
    }
    const JsonValue *Points = Node.find("points");
    if (!Points || !Points->isArray()) {
      Error = formatString("series[%zu]: missing 'points' array", I);
      return false;
    }
    for (size_t P = 0; P < Points->size(); ++P) {
      TrendPoint Point;
      const TrendPoint *Previous = S.Points.empty() ? nullptr
                                                    : &S.Points.back();
      if (!parsePoint(Points->elements()[P], S.IsPage, Parsed.Runs.size(),
                      Previous, Point, Error)) {
        Error = formatString("series[%zu].points[%zu]: ", I, P) + Error;
        return false;
      }
      S.Points.push_back(std::move(Point));
    }
    Parsed.Series.push_back(std::move(S));
  }
  Parsed.PointText.resize(Parsed.Series.size());
  Out = std::move(Parsed);
  return true;
}

bool ReportHistory::load(const std::string &Path, bool MissingIsEmpty,
                         ReportHistory &Out, std::string &Error) {
  Out = ReportHistory();
  std::string Text;
  bool Missing = false;
  if (!readFile(Path, Text, Error, &Missing))
    return Missing && MissingIsEmpty;
  if (!parse(Text, Out, Error)) {
    Error = Path + ": " + Error;
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Fleet-wide text view
//===----------------------------------------------------------------------===//

std::string cheetah::core::formatHistoryText(const ReportHistory &History,
                                             size_t Limit) {
  std::string Out;
  Out += formatString("cheetah-trend: %zu run(s), %zu tracked finding(s)\n",
                      History.runs().size(), History.series().size());
  for (size_t I = 0; I < History.runs().size(); ++I) {
    const HistoryRunInfo &Run = History.runs()[I];
    Out += formatString(
        "  [%zu] %s  %s  %llu threads  fix %s  runtime %llu cycles  "
        "(%llu new, %llu resolved, %llu matched)\n",
        I, Run.Id.c_str(), Run.Workload.c_str(),
        static_cast<unsigned long long>(Run.Threads),
        Run.FixApplied ? "on" : "off",
        static_cast<unsigned long long>(Run.AppRuntimeCycles),
        static_cast<unsigned long long>(Run.NewFindings),
        static_cast<unsigned long long>(Run.ResolvedFindings),
        static_cast<unsigned long long>(Run.MatchedFindings));
  }
  if (History.runs().empty())
    return Out;

  // Current = the last stored run; ranked worst-first.
  uint32_t Last = static_cast<uint32_t>(History.runs().size()) - 1;
  struct Row {
    const TrendSeries *Series;
    const TrendPoint *Point;
    double Best;
    bool HasBest;
  };
  std::vector<Row> Ranked;
  size_t Unranked = 0;
  for (const TrendSeries &S : History.series()) {
    const TrendPoint *Point = S.pointAt(Last);
    if (!Point)
      continue;
    if (!Point->Significant || !Point->HasImprovement) {
      ++Unranked;
      continue;
    }
    Row R;
    R.Series = &S;
    R.Point = Point;
    R.Best = S.bestBefore(Last, R.HasBest);
    Ranked.push_back(R);
  }
  std::sort(Ranked.begin(), Ranked.end(), [](const Row &A, const Row &B) {
    if (A.Point->Improvement != B.Point->Improvement)
      return A.Point->Improvement > B.Point->Improvement;
    return A.Series->Key < B.Series->Key;
  });

  Out += formatString("== current findings (run %u, worst first) ==\n", Last);
  if (Ranked.empty())
    Out += "  none - the fleet is clean\n";
  size_t Shown = 0;
  for (const Row &R : Ranked) {
    if (Limit && Shown++ >= Limit) {
      Out += formatString("  ... %zu more\n", Ranked.size() - Limit);
      break;
    }
    std::string Best =
        R.HasBest ? formatString("best %.4fx, delta %+.4f", R.Best,
                                 R.Point->Improvement - R.Best)
                  : std::string("no history");
    Out += formatString("  %.4fx  %s  %s  %s\n", R.Point->Improvement,
                        R.Series->Key.c_str(), R.Series->Sharing.c_str(),
                        Best.c_str());
  }
  if (Unranked)
    Out += formatString(
        "  (%zu current finding(s) insignificant or unassessed)\n", Unranked);

  // The regression lens: who moved away from their best the furthest.
  std::vector<Row> Regressed;
  for (const Row &R : Ranked)
    if (R.HasBest && R.Point->Improvement > R.Best)
      Regressed.push_back(R);
  std::sort(Regressed.begin(), Regressed.end(),
            [](const Row &A, const Row &B) {
              double DeltaA = A.Point->Improvement - A.Best;
              double DeltaB = B.Point->Improvement - B.Best;
              if (DeltaA != DeltaB)
                return DeltaA > DeltaB;
              return A.Series->Key < B.Series->Key;
            });
  Out += "== biggest regressions vs best ==\n";
  if (Regressed.empty())
    Out += "  none\n";
  Shown = 0;
  for (const Row &R : Regressed) {
    if (Limit && Shown++ >= Limit) {
      Out += formatString("  ... %zu more\n", Regressed.size() - Limit);
      break;
    }
    Out += formatString("  %+.4f  %s  %.4fx (best %.4fx)\n",
                        R.Point->Improvement - R.Best, R.Series->Key.c_str(),
                        R.Point->Improvement, R.Best);
  }
  return Out;
}
