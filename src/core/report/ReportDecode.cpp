//===- core/report/ReportDecode.cpp - Single-pass report decoders ---------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decoders behind parseReport and parseRunDocument. Each reads the
/// document once, straight from JsonReader tokens into the result, skipping
/// what it does not need (a report's word and line tables), with no
/// document tree.
///
/// They accept exactly what a tree-based reading through the jsonField*
/// accessors accepts — members in any order, the first of a repeated member
/// winning, unknown members ignored — and fail with the same first error.
/// Members arrive in document order but are checked in a fixed order
/// (schema, run identity, findings...), so each member is decoded and
/// checked on its own as it streams past, and the first failing check is
/// reported once the document has ended: a syntax error anywhere outranks
/// every semantic error.
///
//===----------------------------------------------------------------------===//

#include "core/report/ReportDiff.h"
#include "core/report/ReportHistory.h"

#include "support/Json.h"
#include "support/StringUtils.h"

#include <cstdint>
#include <limits>

using namespace cheetah;
using namespace cheetah::core;

namespace {

using Token = JsonReader::Token;

bool skipMember(JsonReader &Reader) { return Reader.skip(Reader.next()); }

/// Sets \p Error to \p Prefix + \p Error. \returns false, for tail calls.
bool prefixError(std::string &Error, const std::string &Prefix) {
  Error.insert(0, Prefix);
  return false;
}

/// A finding's improvement factor: `predictedImprovement` when it is a
/// number, else the v2 `assessment.improvement_factor` when that is.
struct ImprovementMembers {
  JsonField Predicted, Assessment, Factor;

  /// Reads the `assessment` member. \returns false on a syntax error.
  bool readAssessment(JsonReader &Reader) {
    return Assessment.read(Reader, Token::BeginObject, [&] {
      return Reader.readMembers([&](std::string_view Key) {
        return Key == "improvement_factor" ? Factor.read(Reader)
                                           : skipMember(Reader);
      });
    });
  }

  void apply(DiffFinding &Out) const {
    const JsonField &Chosen = Predicted.is(Token::Number) ? Predicted : Factor;
    if (Chosen.is(Token::Number)) {
      Out.Improvement = Chosen.number();
      Out.HasImprovement = true;
    }
  }
};

/// Reads a `remote_by_distance` array after its '[' into \p Out. The first
/// bad bucket's error goes to \p Error; the buckets after it are only read
/// past. \returns false on a syntax error.
bool decodeBuckets(JsonReader &Reader, std::vector<RemoteDistanceStats> &Out,
                   std::string &Error) {
  return Reader.readElements([&](size_t I, Token T) {
    if (!Error.empty())
      return Reader.skip(T);
    if (T != Token::BeginObject) {
      Error = formatString("remote_by_distance[%zu] is not an object", I);
      return Reader.skip(T);
    }
    JsonField Distance, Accesses, Cycles;
    if (!Reader.readMembers([&](std::string_view Key) {
          JsonField *F = Key == "distance"   ? &Distance
                         : Key == "accesses" ? &Accesses
                         : Key == "cycles"   ? &Cycles
                                             : nullptr;
          return F ? F->read(Reader) : skipMember(Reader);
        }))
      return false;
    RemoteDistanceStats Bucket;
    uint64_t Value = 0;
    if (!Distance.toUint("distance", Value, Error) ||
        !Accesses.toUint("accesses", Bucket.Accesses, Error) ||
        !Cycles.toUint("cycles", Bucket.Cycles, Error)) {
      prefixError(Error, formatString("remote_by_distance[%zu]: ", I));
      return true;
    }
    // Distances come from a validated topology; a value the uint32 field
    // cannot hold is a hostile document, not truncation material.
    if (Value > std::numeric_limits<uint32_t>::max()) {
      Error = formatString(
          "remote_by_distance[%zu]: field 'distance' is out of range", I);
      return true;
    }
    Bucket.Distance = static_cast<uint32_t>(Value);
    Out.push_back(Bucket);
    return true;
  });
}

/// Checks an optional `remote_by_distance` member as decodeBuckets left it.
bool checkBuckets(const JsonField &Buckets, const std::string &BucketError,
                  std::string &Error) {
  if (Buckets.seen() && !Buckets.is(Token::BeginArray)) {
    Error = "'remote_by_distance' is not an array";
    return false;
  }
  if (!BucketError.empty()) {
    Error = BucketError;
    return false;
  }
  return true;
}

/// An optional improvement member of a diff entry, which must be a number
/// when present. \returns true: a bad factor sets \p Error.
bool readFactor(const JsonField &Factor, const char *Name, DiffFinding &Out,
                std::string &Error) {
  if (Factor.seen() && !Factor.is(Token::Number)) {
    Error = formatString("'%s' is not a number", Name);
    return true;
  }
  Out.HasImprovement = Factor.seen();
  if (Out.HasImprovement)
    Out.Improvement = Factor.number();
  return true;
}

//===----------------------------------------------------------------------===//
// Report findings
//===----------------------------------------------------------------------===//

/// Reads a report's line finding after its '{'. A bad finding sets
/// \p Error. \returns false on a syntax error.
bool decodeLineFinding(JsonReader &Reader, DiffFinding &Out,
                       std::string &Error) {
  JsonField Object, Kind, Name, Start, Sharing, Significant, Accesses,
      Invalidations;
  ImprovementMembers Factor;
  std::string KindText, NameText;
  bool Ok = Reader.readMembers([&](std::string_view Key) {
    if (Key == "object")
      return Object.read(Reader, Token::BeginObject, [&] {
        return Reader.readMembers([&](std::string_view Key) {
          if (Key == "kind")
            return Kind.read(Reader, &KindText);
          if (Key == "name")
            return Name.read(Reader, &NameText);
          return Key == "start" ? Start.read(Reader) : skipMember(Reader);
        });
      });
    if (Key == "sharing")
      return Sharing.read(Reader, &Out.Sharing);
    if (Key == "significant")
      return Significant.read(Reader);
    if (Key == "accesses")
      return Accesses.read(Reader);
    if (Key == "invalidations")
      return Invalidations.read(Reader);
    if (Key == "predictedImprovement")
      return Factor.Predicted.read(Reader);
    if (Key == "assessment")
      return Factor.readAssessment(Reader);
    return skipMember(Reader);
  });
  if (!Ok)
    return false;

  if (!Object.is(Token::BeginObject)) {
    Error = "finding without an 'object' member";
    return true;
  }
  if (!Kind.checkString("kind", Error) || !Name.checkString("name", Error))
    return true;
  if (NameText.empty()) {
    // Anonymous ranges have no stable name; their start address is the
    // best identity available (they rarely survive a relayout anyway).
    uint64_t Address = 0;
    if (!Start.toUint("start", Address, Error))
      return true;
    NameText =
        formatString("@0x%llx", static_cast<unsigned long long>(Address));
  }
  Out.Key = "line:" + KindText + ":" + NameText;
  Out.IsPage = false;
  if (!Sharing.checkString("sharing", Error) ||
      !Significant.toBool("significant", Out.Significant, Error) ||
      !Accesses.toUint("accesses", Out.Accesses, Error) ||
      !Invalidations.toUint("invalidations", Out.Invalidations, Error))
    return true;
  Factor.apply(Out);
  return true;
}

/// Reads a report's page finding after its '{'. A bad finding sets
/// \p Error. \returns false on a syntax error.
bool decodePageFinding(JsonReader &Reader, DiffFinding &Out,
                       std::string &Error) {
  JsonField Objects, Page, Sharing, Significant, Accesses, Invalidations,
      Remote, Buckets;
  ImprovementMembers Factor;
  std::string Site, ObjectsError, BucketError;
  bool Ok = Reader.readMembers([&](std::string_view Key) {
    if (Key == "objects")
      return Objects.read(Reader, Token::BeginArray, [&] {
        return Reader.readElements([&](size_t, Token T) {
          if (T != Token::String)
            ObjectsError = "page finding 'objects' entry is not a string";
          else if (ObjectsError.empty())
            Site.append(Site.empty() ? "" : "+").append(Reader.string());
          return Reader.skip(T);
        });
      });
    if (Key == "remote_by_distance")
      return Buckets.read(Reader, Token::BeginArray, [&] {
        return decodeBuckets(Reader, Out.RemoteByDistance, BucketError);
      });
    if (Key == "page")
      return Page.read(Reader);
    if (Key == "sharing")
      return Sharing.read(Reader, &Out.Sharing);
    if (Key == "significant")
      return Significant.read(Reader);
    if (Key == "accesses")
      return Accesses.read(Reader);
    if (Key == "invalidations")
      return Invalidations.read(Reader);
    if (Key == "remote_accesses")
      return Remote.read(Reader);
    if (Key == "predictedImprovement")
      return Factor.Predicted.read(Reader);
    if (Key == "assessment")
      return Factor.readAssessment(Reader);
    return skipMember(Reader);
  });
  if (!Ok)
    return false;

  if (!Objects.is(Token::BeginArray)) {
    Error = "page finding without an 'objects' array";
    return true;
  }
  if (!ObjectsError.empty()) {
    Error = ObjectsError;
    return true;
  }
  if (Site.empty()) {
    uint64_t Base = 0;
    if (!Page.toUint("page", Base, Error))
      return true;
    Site = formatString("@0x%llx", static_cast<unsigned long long>(Base));
  }
  Out.Key = "page:" + Site;
  Out.IsPage = true;
  if (!Sharing.checkString("sharing", Error) ||
      !Significant.toBool("significant", Out.Significant, Error) ||
      !Accesses.toUint("accesses", Out.Accesses, Error) ||
      !Invalidations.toUint("invalidations", Out.Invalidations, Error) ||
      !Remote.toUint("remote_accesses", Out.RemoteAccesses, Error))
    return true;
  // v4 only: the distance breakdown. Optional (v2/v3 findings predate it),
  // but when present it must be well-formed.
  if (!checkBuckets(Buckets, BucketError, Error))
    return true;
  Factor.apply(Out);
  return true;
}

/// Findings decoded from an array, up to its first bad one.
struct FindingList {
  std::vector<DiffFinding> Findings;
  /// The first bad finding's error, "Name[N]: ..."; empty if none.
  std::string Error;

  /// Reads the array \p Name after its '[', each object element through
  /// \p Decode(Finding, Error), which returns false on a syntax error.
  /// \p NotObject is the error of an element that is no object.
  template <typename Fn>
  bool decode(JsonReader &Reader, const std::string &Name,
              const char *NotObject, Fn &&Decode) {
    return Reader.readElements([&](size_t I, Token T) {
      if (!Error.empty())
        return Reader.skip(T);
      DiffFinding Finding;
      bool Ok = true;
      if (T == Token::BeginObject) {
        Ok = Decode(Finding, Error);
      } else {
        Error = NotObject;
        Ok = Reader.skip(T);
      }
      if (!Error.empty())
        prefixError(Error, formatString("%s[%zu]: ", Name.c_str(), I));
      else
        Findings.push_back(std::move(Finding));
      return Ok;
    });
  }

};

//===----------------------------------------------------------------------===//
// cheetah-diff-v1 sections
//===----------------------------------------------------------------------===//

/// A diff's added entry: full counters.
bool decodeAdded(JsonReader &Reader, bool IsPage, DiffFinding &Out,
                 std::string &Error) {
  JsonField Key, Sharing, Significant, Accesses, Invalidations, Remote, Factor;
  bool Ok = Reader.readMembers([&](std::string_view Name) {
    if (Name == "key")
      return Key.read(Reader, &Out.Key);
    if (Name == "sharing")
      return Sharing.read(Reader, &Out.Sharing);
    JsonField *F = Name == "significant"            ? &Significant
                   : Name == "accesses"             ? &Accesses
                   : Name == "invalidations"        ? &Invalidations
                   : Name == "remote_accesses"      ? &Remote
                   : Name == "predictedImprovement" ? &Factor
                                                    : nullptr;
    return F ? F->read(Reader) : skipMember(Reader);
  });
  Out.IsPage = IsPage;
  if (!Ok || !Key.checkString("key", Error) ||
      !Sharing.checkString("sharing", Error) ||
      !Significant.toBool("significant", Out.Significant, Error) ||
      !Accesses.toUint("accesses", Out.Accesses, Error) ||
      !Invalidations.toUint("invalidations", Out.Invalidations, Error) ||
      (IsPage && !Remote.toUint("remote_accesses", Out.RemoteAccesses, Error)))
    return Ok;
  return readFactor(Factor, "predictedImprovement", Out, Error);
}

/// A diff's matched entry: identity and improvement only.
bool decodeMatched(JsonReader &Reader, bool IsPage, DiffFinding &Out,
                   std::string &Error) {
  JsonField Key, Significant, Factor;
  bool Ok = Reader.readMembers([&](std::string_view Name) {
    if (Name == "key")
      return Key.read(Reader, &Out.Key);
    JsonField *F = Name == "new_significant"   ? &Significant
                   : Name == "new_improvement" ? &Factor
                                               : nullptr;
    return F ? F->read(Reader) : skipMember(Reader);
  });
  Out.IsPage = IsPage;
  if (!Ok || !Key.checkString("key", Error) ||
      !Significant.toBool("new_significant", Out.Significant, Error))
    return Ok;
  return readFactor(Factor, "new_improvement", Out, Error);
}

/// One section ("findings" or "pageFindings") of a cheetah-diff-v1
/// document, as the NEW run's findings: added entries carry full counters,
/// matched ones only identity and improvement (the diff schema stores no
/// more).
struct DiffSection {
  JsonField AddedArray, MatchedArray;
  FindingList Added, Matched;

  /// Reads the section after its '{'. \returns false on a syntax error.
  bool decode(JsonReader &Reader, const char *Name, bool IsPage) {
    return Reader.readMembers([&](std::string_view Key) {
      bool IsAdded = Key == "added";
      if (!IsAdded && Key != "matched")
        return skipMember(Reader);
      JsonField &Array = IsAdded ? AddedArray : MatchedArray;
      return Array.read(Reader, Token::BeginArray, [&] {
        auto Decode = [&](DiffFinding &Finding, std::string &Error) {
          return IsAdded ? decodeAdded(Reader, IsPage, Finding, Error)
                         : decodeMatched(Reader, IsPage, Finding, Error);
        };
        return (IsAdded ? Added : Matched)
            .decode(Reader, std::string(Name) + (IsAdded ? ".added" : ".matched"),
                    "entry is not an object", Decode);
      });
    });
  }

  /// The section's findings, added then matched, or its first error.
  bool finish(const JsonField &Section, const char *Name,
              std::vector<DiffFinding> &Out, std::string &Error) {
    if (!Section.is(Token::BeginObject)) {
      Error = formatString("diff without a '%s' section", Name);
      return false;
    }
    if (!AddedArray.is(Token::BeginArray) ||
        !MatchedArray.is(Token::BeginArray)) {
      Error = formatString("'%s' section without added/matched arrays", Name);
      return false;
    }
    for (FindingList *List : {&Added, &Matched})
      if (!List->Error.empty()) {
        Error = List->Error;
        return false;
      }
    Out = std::move(Added.Findings);
    Out.insert(Out.end(), std::make_move_iterator(Matched.Findings.begin()),
               std::make_move_iterator(Matched.Findings.end()));
    return true;
  }
};

//===----------------------------------------------------------------------===//
// Run documents: reports and diffs
//===----------------------------------------------------------------------===//

/// A run's identity members: a report's `run` object (whose runtime lives
/// in `summary`), or a diff's `new` object.
struct RunMembers {
  JsonField Workload, Threads, FixApplied, Granularity, Cycles;
  std::string WorkloadText, GranularityText;

  /// Reads the object after its '{'. \returns false on a syntax error.
  bool decode(JsonReader &Reader) {
    return Reader.readMembers([&](std::string_view Key) {
      if (Key == "workload")
        return Workload.read(Reader, &WorkloadText);
      if (Key == "granularity")
        return Granularity.read(Reader, &GranularityText);
      JsonField *F = Key == "threads"              ? &Threads
                     : Key == "fix_applied"        ? &FixApplied
                     : Key == "app_runtime_cycles" ? &Cycles
                                                   : nullptr;
      return F ? F->read(Reader) : skipMember(Reader);
    });
  }

  /// Fills \p Out's identity; \p WithCycles also its runtime.
  bool finish(ParsedReport &Out, bool WithCycles, std::string &Error) const {
    if (!Workload.checkString("workload", Error) ||
        !Threads.toUint("threads", Out.Threads, Error) ||
        !FixApplied.toBool("fix_applied", Out.FixApplied, Error) ||
        !Granularity.checkString("granularity", Error) ||
        (WithCycles &&
         !Cycles.toUint("app_runtime_cycles", Out.AppRuntimeCycles, Error)))
      return false;
    Out.Workload = WorkloadText;
    Out.Granularity = GranularityText;
    return true;
  }
};

/// One pass over a report or diff document. `findings` and `pageFindings`
/// are arrays in a report and objects in a diff, and `schema` may come
/// last, so each is decoded as whichever its kind says; the schema picks
/// the reading once the document has ended.
class RunDocumentDecoder {
public:
  /// Reads \p Text to its end. \returns false with \p Error on a syntax
  /// error.
  bool read(std::string_view Text, std::string &Error) {
    JsonReader Reader(Text);
    bool Ok = Reader.readDocument(IsObject, [&](std::string_view Key) {
      if (Key == "schema")
        return Schema.read(Reader, &SchemaText);
      if (Key == "run")
        return RunObject.read(Reader, Token::BeginObject,
                              [&] { return Run.decode(Reader); });
      if (Key == "new")
        return NewObject.read(Reader, Token::BeginObject,
                              [&] { return New.decode(Reader); });
      if (Key == "summary")
        return Summary.read(Reader, Token::BeginObject, [&] {
          return Reader.readMembers([&](std::string_view Key) {
            return Key == "app_runtime_cycles" ? SummaryCycles.read(Reader)
                                               : skipMember(Reader);
          });
        });
      if (Key == "findings")
        return readFindings(Reader, Findings, LineFindings, LineDiff,
                            "findings", /*IsPage=*/false);
      if (Key == "pageFindings")
        return readFindings(Reader, PageFindings, PageFindingList, PageDiff,
                            "pageFindings", /*IsPage=*/true);
      return skipMember(Reader);
    });
    if (!Ok)
      Error = "invalid JSON: " + Reader.error();
    return Ok;
  }

  bool isDiff() const {
    return IsObject && Schema.is(Token::String) &&
           SchemaText == "cheetah-diff-v1";
  }

  /// The cheetah-report-v2..v5 reading.
  bool finishReport(ParsedReport &Out, std::string &Error) {
    if (!IsObject) {
      Error = "report is not a JSON object";
      return false;
    }
    if (!Schema.checkString("schema", Error))
      return false;
    Out.Schema = SchemaText;
    if (Out.Schema != "cheetah-report-v2" &&
        Out.Schema != "cheetah-report-v3" &&
        Out.Schema != "cheetah-report-v4" &&
        Out.Schema != "cheetah-report-v5") {
      // The loud version gate: v1 (and anything unknown) must be rejected,
      // not silently half-read. v5 differs from v4 only in the word and
      // line tables, which this reading skips.
      Error = formatString(
          "unsupported schema '%s' (cheetah-diff reads cheetah-report-v2, "
          "cheetah-report-v3, cheetah-report-v4, and cheetah-report-v5)",
          Out.Schema.c_str());
      return false;
    }
    if (!RunObject.is(Token::BeginObject)) {
      Error = "report without a 'run' object";
      return false;
    }
    if (!Run.finish(Out, /*WithCycles=*/false, Error))
      return false;
    if (!Summary.is(Token::BeginObject)) {
      Error = "report without a usable 'summary' object";
      return false;
    }
    if (!SummaryCycles.toUint("app_runtime_cycles", Out.AppRuntimeCycles,
                              Error))
      return prefixError(Error, "report without a usable 'summary' object: ");
    if (!takeFindings(Findings, LineFindings, "findings", Out.Findings, Error) ||
        !takeFindings(PageFindings, PageFindingList, "pageFindings",
                      Out.PageFindings, Error))
      return false;
    disambiguateKeys(Out.Findings);
    disambiguateKeys(Out.PageFindings);
    return true;
  }

  /// The cheetah-diff-v1 reading: the NEW run.
  bool finishDiff(ParsedReport &Out, std::string &Error) {
    Out.Schema = "cheetah-diff-v1";
    if (!NewObject.is(Token::BeginObject)) {
      Error = "diff without a 'new' run object";
      return false;
    }
    if (!New.finish(Out, /*WithCycles=*/true, Error))
      return prefixError(Error, "diff 'new' run: ");
    // Keys in a diff document already carry their "#N" ordinals; they must
    // not be disambiguated a second time.
    return LineDiff.finish(Findings, "findings", Out.Findings, Error) &&
           PageDiff.finish(PageFindings, "pageFindings", Out.PageFindings,
                           Error);
  }

private:
  static bool readFindings(JsonReader &Reader, JsonField &Member,
                           FindingList &List, DiffSection &Section,
                           const char *Name, bool IsPage) {
    Token T = Reader.next();
    if (Member.record(T, Reader)) {
      if (T == Token::BeginArray)
        return List.decode(
            Reader, Name,
            IsPage ? "page finding is not an object" : "finding is not an object",
            [&](DiffFinding &Finding, std::string &Error) {
              return IsPage ? decodePageFinding(Reader, Finding, Error)
                            : decodeLineFinding(Reader, Finding, Error);
            });
      if (T == Token::BeginObject)
        return Section.decode(Reader, Name, IsPage);
    }
    return Reader.skip(T);
  }

  static bool takeFindings(const JsonField &Member, FindingList &List,
                           const char *Name, std::vector<DiffFinding> &Out,
                           std::string &Error) {
    if (!Member.is(Token::BeginArray)) {
      Error = formatString("report without a '%s' array", Name);
      return false;
    }
    if (!List.Error.empty()) {
      Error = List.Error;
      return false;
    }
    Out = std::move(List.Findings);
    return true;
  }

  bool IsObject = false;
  JsonField Schema, RunObject, NewObject, Summary, SummaryCycles, Findings,
      PageFindings;
  std::string SchemaText;
  RunMembers Run, New;
  FindingList LineFindings, PageFindingList;
  DiffSection LineDiff, PageDiff;
};

/// The shared front of parseReport and parseRunDocument. \p AcceptDiff
/// lets a cheetah-diff-v1 document through as its NEW run.
bool decodeRunDocument(const std::string &Text, bool AcceptDiff,
                       ParsedReport &Out, std::string &Error) {
  RunDocumentDecoder Decoder;
  ParsedReport Parsed;
  bool Ok = Decoder.read(Text, Error) &&
            (AcceptDiff && Decoder.isDiff()
                 ? Decoder.finishDiff(Parsed, Error)
                 : Decoder.finishReport(Parsed, Error));
  Out = Ok ? std::move(Parsed) : ParsedReport();
  return Ok;
}

} // namespace

bool cheetah::core::parseReport(const std::string &Text, ParsedReport &Out,
                                std::string &Error) {
  return decodeRunDocument(Text, /*AcceptDiff=*/false, Out, Error);
}

bool cheetah::core::parseRunDocument(const std::string &Text,
                                     ParsedReport &Out, std::string &Error) {
  return decodeRunDocument(Text, /*AcceptDiff=*/true, Out, Error);
}
