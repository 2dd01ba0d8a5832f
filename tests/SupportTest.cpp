//===- tests/SupportTest.cpp - support library tests ----------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"
#include "support/FileIO.h"
#include "support/Generator.h"
#include "support/Json.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <clocale>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <string_view>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace cheetah;

namespace {

//===----------------------------------------------------------------------===//
// Generator
//===----------------------------------------------------------------------===//

Generator<int> countUpTo(int Limit) {
  for (int I = 0; I < Limit; ++I)
    co_yield I;
}

Generator<int> emptyGenerator() { co_return; }

TEST(GeneratorTest, YieldsAllValuesInOrder) {
  Generator<int> Gen = countUpTo(5);
  std::vector<int> Values;
  while (Gen.next())
    Values.push_back(Gen.value());
  EXPECT_EQ(Values, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(GeneratorTest, EmptyGeneratorProducesNothing) {
  Generator<int> Gen = emptyGenerator();
  EXPECT_FALSE(Gen.next());
}

TEST(GeneratorTest, ExhaustedGeneratorStaysExhausted) {
  Generator<int> Gen = countUpTo(1);
  EXPECT_TRUE(Gen.next());
  EXPECT_FALSE(Gen.next());
  EXPECT_FALSE(Gen.next());
}

TEST(GeneratorTest, MoveTransfersOwnership) {
  Generator<int> Gen = countUpTo(3);
  EXPECT_TRUE(Gen.next());
  Generator<int> Moved = std::move(Gen);
  EXPECT_TRUE(Moved.next());
  EXPECT_EQ(Moved.value(), 1);
  EXPECT_FALSE(static_cast<bool>(Gen));
}

TEST(GeneratorTest, DefaultConstructedIsEmpty) {
  Generator<int> Gen;
  EXPECT_FALSE(Gen.next());
  EXPECT_FALSE(static_cast<bool>(Gen));
}

TEST(GeneratorTest, ByValueParametersSurviveFrameLifetime) {
  // Parameters are copied into the coroutine frame; the original goes away.
  auto Make = [](std::vector<int> Data) {
    return [](std::vector<int> Copy) -> Generator<int> {
      for (int V : Copy)
        co_yield V;
    }(std::move(Data));
  };
  Generator<int> Gen = Make({7, 8, 9});
  std::vector<int> Values;
  while (Gen.next())
    Values.push_back(Gen.value());
  EXPECT_EQ(Values, (std::vector<int>{7, 8, 9}));
}

//===----------------------------------------------------------------------===//
// SplitMix64
//===----------------------------------------------------------------------===//

TEST(RandomTest, DeterministicForSeed) {
  SplitMix64 A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  SplitMix64 A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 2);
}

TEST(RandomTest, NextBelowStaysInRange) {
  SplitMix64 Rng(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(Rng.nextBelow(17), 17u);
}

TEST(RandomTest, NextInRangeInclusiveBounds) {
  SplitMix64 Rng(9);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 5000; ++I) {
    uint64_t V = Rng.nextInRange(3, 5);
    EXPECT_GE(V, 3u);
    EXPECT_LE(V, 5u);
    SawLo |= V == 3;
    SawHi |= V == 5;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RandomTest, NextInRangeFullWidthDoesNotWrap) {
  // Hi - Lo + 1 wraps to 0 for the full 64-bit range; the fix falls back to
  // a raw draw instead of tripping the nextBelow(0) assert.
  SplitMix64 Rng(17);
  uint64_t Or = 0, And = ~0ull;
  for (int I = 0; I < 256; ++I) {
    uint64_t V = Rng.nextInRange(0, ~0ull);
    Or |= V;
    And &= V;
  }
  // 256 full-width draws cover both halves of the value space.
  EXPECT_GT(Or, 1ull << 63);
  EXPECT_LT(And, 1ull << 63);
}

TEST(RandomTest, NextInRangeFullWidthNonzeroLo) {
  SplitMix64 Rng(19);
  // A single-value range must return that value.
  EXPECT_EQ(Rng.nextInRange(42, 42), 42u);
  // Maximal range anchored above zero still honours the lower bound.
  for (int I = 0; I < 256; ++I)
    EXPECT_GE(Rng.nextInRange(1, ~0ull), 1u);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  SplitMix64 Rng(11);
  for (int I = 0; I < 1000; ++I) {
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RandomTest, NextBelowRoughlyUniform) {
  SplitMix64 Rng(13);
  std::vector<int> Buckets(8, 0);
  constexpr int N = 80000;
  for (int I = 0; I < N; ++I)
    ++Buckets[Rng.nextBelow(8)];
  for (int Count : Buckets) {
    EXPECT_GT(Count, N / 8 - N / 80);
    EXPECT_LT(Count, N / 8 + N / 80);
  }
}

TEST(RandomTest, SplitProducesIndependentStream) {
  SplitMix64 Parent(21);
  SplitMix64 Child = Parent.split();
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += Parent.next() == Child.next();
  EXPECT_LT(Same, 2);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(StatisticsTest, EmptyStats) {
  OnlineStats Stats;
  EXPECT_EQ(Stats.count(), 0u);
  EXPECT_DOUBLE_EQ(Stats.mean(), 0.0);
}

TEST(StatisticsTest, MeanMatchesClosedForm) {
  OnlineStats Stats;
  for (double X : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    Stats.add(X);
  EXPECT_EQ(Stats.count(), 8u);
  EXPECT_DOUBLE_EQ(Stats.mean(), 5.0);
}

TEST(StatisticsTest, ArithmeticMean) {
  EXPECT_DOUBLE_EQ(arithmeticMean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
}

//===----------------------------------------------------------------------===//
// StringUtils
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(formatString("empty"), "empty");
  // Long outputs must not truncate.
  std::string Long = formatString("%0512d", 1);
  EXPECT_EQ(Long.size(), 512u);
}

TEST(StringUtilsTest, FormatWithCommas) {
  EXPECT_EQ(formatWithCommas(0), "0");
  EXPECT_EQ(formatWithCommas(999), "999");
  EXPECT_EQ(formatWithCommas(1000), "1,000");
  EXPECT_EQ(formatWithCommas(1234567), "1,234,567");
}

TEST(StringUtilsTest, FormatHuman) {
  EXPECT_EQ(formatHuman(512), "512");
  EXPECT_EQ(formatHuman(65536), "64K");
  EXPECT_EQ(formatHuman(1 << 20), "1M");
  EXPECT_EQ(formatHuman(1000), "1000"); // not a multiple of 1024
}

TEST(StringUtilsTest, StartsWith) {
  EXPECT_TRUE(startsWith("--flag", "--"));
  EXPECT_FALSE(startsWith("-", "--"));
}

TEST(StringUtilsTest, TextTableAlignsColumns) {
  TextTable Table;
  Table.setHeader({"a", "long-column"});
  Table.addRow({"xx", "1"});
  std::string Out = Table.render();
  EXPECT_NE(Out.find("a   long-column"), std::string::npos);
  EXPECT_NE(Out.find("xx  1"), std::string::npos);
  EXPECT_NE(Out.find("---"), std::string::npos);
  EXPECT_EQ(Table.rowCount(), 1u);
}

//===----------------------------------------------------------------------===//
// FlagSet
//===----------------------------------------------------------------------===//

TEST(CommandLineTest, ParsesAllTypes) {
  FlagSet Flags;
  Flags.addString("name", "d", "");
  Flags.addInt("count", 1, "");
  Flags.addDouble("ratio", 0.5, "");
  Flags.addBool("on", false, "");
  const char *Argv[] = {"prog", "--name=x",   "--count", "42",
                        "--ratio=2.5", "--on", "positional"};
  std::string Error;
  ASSERT_TRUE(Flags.parse(7, Argv, Error)) << Error;
  EXPECT_EQ(Flags.getString("name"), "x");
  EXPECT_EQ(Flags.getInt("count"), 42);
  EXPECT_DOUBLE_EQ(Flags.getDouble("ratio"), 2.5);
  EXPECT_TRUE(Flags.getBool("on"));
  ASSERT_EQ(Flags.positional().size(), 1u);
  EXPECT_EQ(Flags.positional()[0], "positional");
}

TEST(CommandLineTest, DefaultsApplyWhenUnset) {
  FlagSet Flags;
  Flags.addInt("n", 9, "");
  const char *Argv[] = {"prog"};
  std::string Error;
  ASSERT_TRUE(Flags.parse(1, Argv, Error));
  EXPECT_EQ(Flags.getInt("n"), 9);
  EXPECT_FALSE(Flags.wasSet("n"));
}

TEST(CommandLineTest, RejectsUnknownFlag) {
  FlagSet Flags;
  const char *Argv[] = {"prog", "--mystery"};
  std::string Error;
  EXPECT_FALSE(Flags.parse(2, Argv, Error));
  EXPECT_NE(Error.find("mystery"), std::string::npos);
}

TEST(CommandLineTest, RejectsBadInteger) {
  FlagSet Flags;
  Flags.addInt("n", 0, "");
  const char *Argv[] = {"prog", "--n=abc"};
  std::string Error;
  EXPECT_FALSE(Flags.parse(2, Argv, Error));
}

TEST(CommandLineTest, OutOfRangeNumbersAreRejectedNotSaturated) {
  // strtoll/strtod saturate on overflow (LLONG_MAX / +-HUGE_VAL) and only
  // report it via errno=ERANGE. Without the errno check a 20-digit period
  // "parses" as LLONG_MAX and sails past downstream validation; these all
  // must fail loudly instead.
  struct Case {
    bool IsInt;
    const char *Text;
  };
  const Case Cases[] = {
      {true, "99999999999999999999"},   // > LLONG_MAX: saturates
      {true, "-99999999999999999999"},  // < LLONG_MIN: saturates
      {true, "0x7fffffffffffffffff"},   // hex overflow (base-0 parse)
      {false, "1e999"},                 // overflow: +HUGE_VAL
      {false, "-1e999"},                // overflow: -HUGE_VAL
      {false, "1e-999"},                // underflow: denormal/zero + ERANGE
      {false, "inf"},                   // parses clean, non-finite
      {false, "-inf"},
      {false, "nan"},
  };
  for (const Case &C : Cases) {
    FlagSet Flags;
    if (C.IsInt)
      Flags.addInt("v", 0, "");
    else
      Flags.addDouble("v", 0.0, "");
    std::string Arg = std::string("--v=") + C.Text;
    const char *Argv[] = {"prog", Arg.c_str()};
    std::string Error;
    EXPECT_FALSE(Flags.parse(2, Argv, Error)) << C.Text;
    EXPECT_NE(Error.find("out of range"), std::string::npos) << C.Text;
    EXPECT_NE(Error.find(C.Text), std::string::npos) << C.Text;
  }
}

TEST(CommandLineTest, ExtremeButRepresentableValuesStillParse) {
  // The ERANGE guard must not over-reject: exact type extremes are valid.
  FlagSet Flags;
  Flags.addInt("min", 0, "");
  Flags.addInt("max", 0, "");
  Flags.addDouble("big", 0.0, "");
  Flags.addDouble("tiny", 0.0, "");
  const char *Argv[] = {"prog", "--min=-9223372036854775808",
                        "--max=9223372036854775807", "--big=1e300",
                        "--tiny=1e-300"};
  std::string Error;
  ASSERT_TRUE(Flags.parse(5, Argv, Error)) << Error;
  EXPECT_EQ(Flags.getInt("min"), INT64_MIN);
  EXPECT_EQ(Flags.getInt("max"), INT64_MAX);
  EXPECT_DOUBLE_EQ(Flags.getDouble("big"), 1e300);
  EXPECT_DOUBLE_EQ(Flags.getDouble("tiny"), 1e-300);
}

TEST(CommandLineTest, BoolAcceptsExplicitValues) {
  FlagSet Flags;
  Flags.addBool("b", true, "");
  const char *Argv[] = {"prog", "--b=false"};
  std::string Error;
  ASSERT_TRUE(Flags.parse(2, Argv, Error));
  EXPECT_FALSE(Flags.getBool("b"));
}

TEST(CommandLineTest, MissingValueIsAnError) {
  FlagSet Flags;
  Flags.addInt("n", 0, "");
  const char *Argv[] = {"prog", "--n"};
  std::string Error;
  EXPECT_FALSE(Flags.parse(2, Argv, Error));
}

TEST(CommandLineTest, UsageListsFlags) {
  FlagSet Flags;
  Flags.addInt("alpha", 3, "the alpha knob");
  std::string Usage = Flags.usage("tool");
  EXPECT_NE(Usage.find("alpha"), std::string::npos);
  EXPECT_NE(Usage.find("the alpha knob"), std::string::npos);
  EXPECT_NE(Usage.find("3"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// JSON writer
//===----------------------------------------------------------------------===//

TEST(JsonWriterTest, NestedStructureWithCommas) {
  std::string Out;
  JsonWriter Writer(Out);
  Writer.beginObject();
  Writer.member("a", uint64_t(1));
  Writer.key("b");
  Writer.beginArray();
  Writer.value(uint64_t(2));
  Writer.value("three");
  Writer.beginObject();
  Writer.member("c", true);
  Writer.endObject();
  Writer.endArray();
  Writer.member("d", false);
  Writer.endObject();
  EXPECT_EQ(Out, "{\"a\":1,\"b\":[2,\"three\",{\"c\":true}],\"d\":false}");
}

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  EXPECT_EQ(jsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(jsonEscape(std::string("x\x01y")), "x\\u0001y");
}

TEST(JsonWriterTest, DoublesRoundTripShortest) {
  std::string Out;
  JsonWriter Writer(Out);
  Writer.beginArray();
  Writer.value(0.25);
  Writer.value(1.5);
  Writer.value(1.0 / 3.0);
  Writer.endArray();
  JsonValue Document;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Out, Document, Error)) << Error;
  EXPECT_EQ(Document.elements()[0].asNumber(), 0.25);
  EXPECT_EQ(Document.elements()[1].asNumber(), 1.5);
  EXPECT_EQ(Document.elements()[2].asNumber(), 1.0 / 3.0);
}

TEST(JsonWriterTest, LargeCountersExact) {
  std::string Out;
  JsonWriter Writer(Out);
  Writer.value(uint64_t(9007199254740992ull)); // 2^53
  EXPECT_EQ(Out, "9007199254740992");
}

TEST(JsonWriterTest, IntegersAtTheirLimits) {
  std::string Out;
  JsonWriter Writer(Out);
  Writer.beginArray();
  Writer.value(UINT64_MAX);
  Writer.value(INT64_MIN);
  Writer.value(INT64_MAX);
  Writer.value(0);
  Writer.value(-1);
  Writer.value(0u);
  Writer.endArray();
  EXPECT_EQ(Out, "[18446744073709551615,-9223372036854775808,"
                 "9223372036854775807,0,-1,0]");
}

TEST(JsonWriterTest, EscapesKeysAndStringsInPlace) {
  std::string Out;
  JsonWriter Writer(Out);
  Writer.beginObject();
  Writer.member("plain", "text");
  Writer.member(std::string_view("k\"ey"), std::string("a\x01\x1f\\/\t"));
  Writer.key(std::string("v"));
  Writer.value(std::string_view("\r\n\b\f"));
  Writer.endObject();
  EXPECT_EQ(Out, "{\"plain\":\"text\",\"k\\\"ey\":\"a\\u0001\\u001f\\\\/\\t\","
                 "\"v\":\"\\r\\n\\b\\f\"}");
  EXPECT_EQ(jsonEscape(std::string_view("\x7f\xc3\xa9")), "\x7f\xc3\xa9");
}

//===----------------------------------------------------------------------===//
// JSON parser
//===----------------------------------------------------------------------===//

TEST(JsonParserTest, ParsesEveryValueKind) {
  JsonValue Document;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(
      " { \"s\": \"hi\", \"n\": -2.5e2, \"t\": true, \"f\": false, "
      "\"z\": null, \"a\": [1, 2], \"o\": {\"k\": 3} } ",
      Document, Error))
      << Error;
  EXPECT_EQ(Document.find("s")->asString(), "hi");
  EXPECT_EQ(Document.find("n")->asNumber(), -250.0);
  EXPECT_TRUE(Document.find("t")->asBool());
  EXPECT_FALSE(Document.find("f")->asBool());
  EXPECT_TRUE(Document.find("z")->isNull());
  ASSERT_EQ(Document.find("a")->size(), 2u);
  EXPECT_EQ(Document.find("a")->elements()[1].asUint(), 2u);
  EXPECT_EQ(Document.find("o")->find("k")->asUint(), 3u);
  EXPECT_EQ(Document.find("missing"), nullptr);
}

TEST(JsonParserTest, DecodesEscapes) {
  JsonValue Document;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse("\"a\\\"b\\\\c\\nd\\u0041e\"", Document,
                               Error))
      << Error;
  EXPECT_EQ(Document.asString(), "a\"b\\c\ndAe");
}

TEST(JsonParserTest, RejectsMalformedDocuments) {
  JsonValue Document;
  std::string Error;
  EXPECT_FALSE(JsonValue::parse("{\"a\":}", Document, Error));
  EXPECT_FALSE(JsonValue::parse("[1,", Document, Error));
  EXPECT_FALSE(JsonValue::parse("\"unterminated", Document, Error));
  EXPECT_FALSE(JsonValue::parse("{} trailing", Document, Error));
  EXPECT_FALSE(JsonValue::parse("tru", Document, Error));
  EXPECT_FALSE(JsonValue::parse("", Document, Error));
  EXPECT_NE(Error.find("JSON error"), std::string::npos);
}

TEST(JsonParserTest, ErrorsNameTheOffendingByte) {
  // The exact messages and offsets are part of every tool's error output.
  const std::pair<const char *, const char *> Cases[] = {
      {"", "JSON error at offset 0: unexpected end of input"},
      {"  {\"a\" 1}", "JSON error at offset 7: expected ':' after key"},
      {"{\"a\":1,}", "JSON error at offset 7: expected object key"},
      {"{,}", "JSON error at offset 1: expected object key"},
      {"[1 2]", "JSON error at offset 3: expected ',' or ']' in array"},
      {"{\"a\":1 \"b\"}", "JSON error at offset 7: expected ',' or '}' in object"},
      {"[1,]", "JSON error at offset 3: expected a value"},
      {"+1", "JSON error at offset 0: expected a value"},
      {"[1e5.5]", "JSON error at offset 6: malformed number"},
      {"-", "JSON error at offset 1: malformed number"},
      {"tru", "JSON error at offset 0: expected 'true'"},
      {"[nul]", "JSON error at offset 1: expected 'null'"},
      {"\"abc", "JSON error at offset 4: unterminated string"},
      {"\"a\\", "JSON error at offset 3: unterminated string"},
      {"\"\\u12", "JSON error at offset 3: truncated \\u escape"},
      {"\"\\u12zz\"", "JSON error at offset 6: bad hex digit in \\u escape"},
      {"\"\\q\"", "JSON error at offset 3: unknown escape character"},
      {"{} x", "JSON error at offset 3: trailing characters after document"},
  };
  for (const auto &[Input, Message] : Cases) {
    JsonValue Document;
    std::string Error;
    EXPECT_FALSE(JsonValue::parse(Input, Document, Error)) << Input;
    EXPECT_EQ(Error, Message) << Input;
  }
  // Depth: 128 nested containers hold a scalar; a 129th level does not.
  JsonValue Document;
  std::string Error;
  EXPECT_TRUE(JsonValue::parse(std::string(128, '[') + "1" +
                                   std::string(128, ']'),
                               Document, Error))
      << Error;
  EXPECT_FALSE(JsonValue::parse(std::string(129, '[') + "1" +
                                    std::string(129, ']'),
                                Document, Error));
  EXPECT_EQ(Error, "JSON error at offset 129: nesting too deep");
}

TEST(JsonParserTest, RoundTripsWriterOutput) {
  std::string Out;
  JsonWriter Writer(Out);
  Writer.beginObject();
  Writer.member("name", "weird\"chars\\\n");
  Writer.member("count", uint64_t(1234567890123ull));
  Writer.member("ratio", 0.125);
  Writer.endObject();
  JsonValue Document;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Out, Document, Error)) << Error;
  EXPECT_EQ(Document.find("name")->asString(), "weird\"chars\\\n");
  EXPECT_EQ(Document.find("count")->asUint(), 1234567890123ull);
  EXPECT_EQ(Document.find("ratio")->asNumber(), 0.125);
}

//===----------------------------------------------------------------------===//
// Whole-file reads and writes
//===----------------------------------------------------------------------===//

TEST(FileIOTest, WriteThenReadRoundTripsBytesAndReplaces) {
  std::string Path =
      (std::filesystem::temp_directory_path() /
       ("cheetah-fileio-" + std::to_string(::getpid()) + ".bin"))
          .string();
  std::string Bytes;
  for (int I = 0; I < 200000; ++I)
    Bytes += static_cast<char>(I * 7919 % 256); // NULs included
  std::string Error, Read = "stale";
  ASSERT_TRUE(writeFile(Path, Bytes, Error)) << Error;
  bool Missing = true;
  ASSERT_TRUE(readFile(Path, Read, Error, &Missing)) << Error;
  EXPECT_EQ(Read, Bytes);
  EXPECT_FALSE(Missing);

  // A shorter write replaces the file; an empty one empties it.
  ASSERT_TRUE(writeFile(Path, "short", Error)) << Error;
  ASSERT_TRUE(readFile(Path, Read, Error)) << Error;
  EXPECT_EQ(Read, "short");
  ASSERT_TRUE(writeFile(Path, "", Error)) << Error;
  ASSERT_TRUE(readFile(Path, Read, Error)) << Error;
  EXPECT_EQ(Read, "");
  std::filesystem::remove(Path);
  EXPECT_FALSE(readFile(Path, Read, Error, &Missing));
  EXPECT_TRUE(Missing);
}

TEST(FileIOTest, FailuresNameTheFile) {
  std::string Dir = std::filesystem::temp_directory_path().string();
  std::string MissingDir =
      Dir + "/cheetah-fileio-missing-" + std::to_string(::getpid());
  std::string Missing = MissingDir + "/x.json";
  std::string Out, Error;
  bool Absent = false;
  EXPECT_FALSE(readFile(Missing, Out, Error, &Absent));
  EXPECT_EQ(Error, "cannot open '" + Missing + "' for reading");
  EXPECT_TRUE(Absent);
  // A write into a missing directory fails and creates nothing.
  EXPECT_FALSE(writeFile(Missing, "x", Error));
  EXPECT_EQ(Error, "cannot open '" + Missing + "' for writing");
  EXPECT_FALSE(std::filesystem::exists(MissingDir));
  // A directory exists but reads as no document.
  EXPECT_FALSE(readFile(Dir, Out, Error, &Absent));
  EXPECT_EQ(Error, "failed reading '" + Dir + "'");
  EXPECT_FALSE(Absent);
}

/// A fresh empty directory under the system temp directory, removed with
/// everything in it when the test ends.
struct ScratchDir {
  std::filesystem::path Path;

  explicit ScratchDir(const std::string &Name)
      : Path(std::filesystem::temp_directory_path() /
             (Name + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directory(Path);
  }
  ~ScratchDir() { std::filesystem::remove_all(Path); }
  ScratchDir(const ScratchDir &) = delete;
  ScratchDir &operator=(const ScratchDir &) = delete;

  /// Names of the entries in the directory, sorted.
  std::vector<std::string> entries() const {
    std::vector<std::string> Names;
    for (const auto &Entry : std::filesystem::directory_iterator(Path))
      Names.push_back(Entry.path().filename().string());
    std::sort(Names.begin(), Names.end());
    return Names;
  }
};

TEST(FileIOTest, ReplacingKeepsTheModeAndLeavesNoTempFile) {
  ScratchDir Dir("cheetah-fileio-replace");
  std::string Path = (Dir.Path / "store.json").string();
  using std::filesystem::perms;
  const perms Mode = perms::owner_read | perms::owner_write | perms::group_read;
  std::string Error, Read;
  ASSERT_TRUE(writeFile(Path, "first", Error)) << Error;
  std::filesystem::permissions(Path, Mode);
  ASSERT_TRUE(writeFile(Path, "second, longer", Error)) << Error;
  ASSERT_TRUE(readFile(Path, Read, Error)) << Error;
  EXPECT_EQ(Read, "second, longer");
  EXPECT_EQ(std::filesystem::status(Path).permissions(), Mode);
  EXPECT_EQ(Dir.entries(), std::vector<std::string>{"store.json"});
}

TEST(FileIOTest, AWriterKilledMidWriteLeavesTheOldOrTheNewBytes) {
  // A child rewrites a multi-megabyte file in a loop, alternating two
  // contents, and is SIGKILLed at a random moment, 50 times. Whatever the
  // moment, the file must hold one of the two contents whole: a write
  // that truncated the file first would leave a prefix behind.
  ScratchDir Dir("cheetah-fileio-kill");
  std::string Path = (Dir.Path / "store.json").string();
  std::string Old(3 << 20, 'o'), New((2 << 20) + 12345, 'n');
  std::string Error, Read;
  ASSERT_TRUE(writeFile(Path, Old, Error)) << Error;
  SplitMix64 Rng(0x5EED);
  unsigned Torn = 0, SawNew = 0;
  for (int Kill = 0; Kill < 50; ++Kill) {
    pid_t Child = ::fork();
    ASSERT_GE(Child, 0);
    if (Child == 0) {
      std::string Ignored;
      for (uint64_t Round = 0;; ++Round)
        writeFile(Path, Round % 2 ? Old : New, Ignored);
    }
    ::usleep(static_cast<useconds_t>(Rng.nextBelow(50000)));
    ::kill(Child, SIGKILL);
    int Status = 0;
    ASSERT_EQ(::waitpid(Child, &Status, 0), Child);
    ASSERT_TRUE(readFile(Path, Read, Error)) << Error;
    if (Read != Old && Read != New)
      ++Torn;
    SawNew += Read == New;
    // A killed writer may leave its temp file; the next writer does not
    // need it.
    for (const std::string &Name : Dir.entries())
      if (Name != "store.json")
        std::filesystem::remove(Dir.Path / Name);
  }
  EXPECT_EQ(Torn, 0u) << "kills that left a partial file";
  EXPECT_GT(SawNew, 0u) << "no write completed before a kill";
}

//===----------------------------------------------------------------------===//
// JSON reader
//===----------------------------------------------------------------------===//

TEST(JsonReaderTest, YieldsTokensInDocumentOrder) {
  using Token = JsonReader::Token;
  std::string Text = R"( {"a": [1, "x\n", true, null], "bA": {}} )";
  JsonReader Reader(Text);
  EXPECT_EQ(Reader.next(), Token::BeginObject);
  ASSERT_EQ(Reader.next(), Token::Key);
  EXPECT_EQ(Reader.string(), "a");
  // Text without escapes is a view into the document itself.
  EXPECT_EQ(Reader.string().data(), Text.data() + Text.find('a'));
  EXPECT_EQ(Reader.next(), Token::BeginArray);
  ASSERT_EQ(Reader.next(), Token::Number);
  EXPECT_EQ(Reader.number(), 1.0);
  ASSERT_EQ(Reader.next(), Token::String);
  EXPECT_EQ(Reader.string(), "x\n");
  ASSERT_EQ(Reader.next(), Token::Bool);
  EXPECT_TRUE(Reader.boolean());
  EXPECT_EQ(Reader.next(), Token::Null);
  EXPECT_EQ(Reader.next(), Token::EndArray);
  ASSERT_EQ(Reader.next(), Token::Key);
  EXPECT_EQ(Reader.string(), "bA");
  EXPECT_EQ(Reader.next(), Token::BeginObject);
  EXPECT_EQ(Reader.next(), Token::EndObject);
  EXPECT_EQ(Reader.next(), Token::EndObject);
  EXPECT_EQ(Reader.next(), Token::End);
  EXPECT_EQ(Reader.next(), Token::End);
}

TEST(JsonReaderTest, SkipConsumesWholeValuesAndErrorsStick) {
  using Token = JsonReader::Token;
  JsonReader Reader(R"({"skip": {"a": [1, {"b": [2]}]}, "n": 3, "keep": 4})");
  EXPECT_EQ(Reader.next(), Token::BeginObject);
  EXPECT_EQ(Reader.next(), Token::Key);
  EXPECT_TRUE(Reader.skip(Reader.next()));
  EXPECT_EQ(Reader.next(), Token::Key);
  EXPECT_TRUE(Reader.skip(Reader.next())); // a scalar: nothing more
  ASSERT_EQ(Reader.next(), Token::Key);
  EXPECT_EQ(Reader.string(), "keep");
  ASSERT_EQ(Reader.next(), Token::Number);
  EXPECT_EQ(Reader.number(), 4.0);
  EXPECT_EQ(Reader.next(), Token::EndObject);
  EXPECT_EQ(Reader.next(), Token::End);

  JsonReader Bad("[1, [2, }]");
  EXPECT_EQ(Bad.next(), Token::BeginArray);
  EXPECT_EQ(Bad.next(), Token::Number);
  EXPECT_FALSE(Bad.skip(Bad.next()));
  EXPECT_EQ(Bad.error(), "JSON error at offset 8: expected a value");
  EXPECT_EQ(Bad.next(), Token::Error);
  EXPECT_EQ(Bad.next(), Token::Error);
}

TEST(JsonReaderTest, ReadMembersAndElementsWalkOneLevel) {
  using Token = JsonReader::Token;
  JsonReader Reader(R"({"a": [1, {"x": 2}, "s"], "b": {"c": true}, "d": 3})");
  bool IsObject = false;
  std::vector<std::string> Keys;
  std::vector<Token> Firsts;
  EXPECT_TRUE(Reader.readDocument(IsObject, [&](std::string_view Key) {
    Keys.emplace_back(Key);
    Token T = Reader.next();
    if (T != Token::BeginArray)
      return Reader.skip(T);
    return Reader.readElements([&](size_t Index, Token First) {
      EXPECT_EQ(Index, Firsts.size());
      Firsts.push_back(First);
      return Reader.skip(First);
    });
  }));
  EXPECT_TRUE(IsObject);
  EXPECT_EQ(Keys, (std::vector<std::string>{"a", "b", "d"}));
  EXPECT_EQ(Firsts, (std::vector<Token>{Token::Number, Token::BeginObject,
                                        Token::String}));

  // Any other root is read past whole; syntax errors anywhere fail.
  JsonReader Array("[1, {}]");
  EXPECT_TRUE(Array.readDocument(IsObject, [](std::string_view) {
    ADD_FAILURE() << "an array has no members";
    return false;
  }));
  EXPECT_FALSE(IsObject);
  for (const char *Broken : {R"({"a": [1,]})", R"({"a": 1} x)", "[1", ""}) {
    JsonReader Reader(Broken);
    EXPECT_FALSE(Reader.readDocument(
        IsObject, [&](std::string_view) { return Reader.skip(Reader.next()); }))
        << Broken;
    EXPECT_NE(Reader.error().find("JSON error at offset"), std::string::npos);
  }
}

/// Bit-exact double comparison: tells -0 from 0.
bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Parses \p Text as a one-number document.
bool parseNumber(const std::string &Text, double &Out) {
  JsonValue Document;
  std::string Error;
  if (!JsonValue::parse(Text, Document, Error) ||
      Document.kind() != JsonValue::Kind::Number)
    return false;
  Out = Document.asNumber();
  return true;
}

TEST(JsonReaderTest, NumberTable) {
  const double Inf = std::numeric_limits<double>::infinity();
  const std::pair<std::string, double> Accepted[] = {
      {"0", 0.0},
      {"-0", -0.0},
      {"1.5", 1.5},
      {"-2.5e2", -250.0},
      {"1E+5", 1e5},
      {"00012", 12.0},
      {".5", 0.5},
      {"1.", 1.0},
      {"-.5", -0.5},
      {"0.1", 0.1},
      {"123456789012345", 123456789012345.0},
      {"9007199254740993", 9007199254740992.0}, // rounds to even
      {"18446744073709551615", 18446744073709551616.0},
      {"1.7976931348623157e308", 1.7976931348623157e308},
      {"4.9e-324", 4.9406564584124654e-324},
      {"1e999", Inf},
      {"-1e999", -Inf},
      {"1" + std::string(400, '0'), Inf},
      {"1e-999", 0.0},
      {"-1e-999", -0.0},
      {"0." + std::string(400, '0') + "1", 0.0},
      {"2.4703282292062327e-324", 0.0},
  };
  for (const auto &[Text, Want] : Accepted) {
    double Got = 0;
    ASSERT_TRUE(parseNumber(Text, Got)) << Text;
    EXPECT_TRUE(sameBits(Got, Want)) << Text << " gave " << Got;
  }
  for (const char *Text : {"+1", "1e", "1e+", "-", ".", "e5", "1.2.3", "--1",
                           "-+1", "1-2", "0x10", "inf", "-inf", "nan"}) {
    double Got = 0;
    EXPECT_FALSE(parseNumber(Text, Got)) << Text;
  }
}

TEST(JsonReaderTest, NumbersMatchStrtodInTheCLocale) {
  // Every string of up to five characters over the number alphabet: the
  // reader accepts exactly what strtod consumed whole (bar a leading '+',
  // which JSON forbids), with the same bits.
  ASSERT_STREQ(std::setlocale(LC_NUMERIC, nullptr), "C");
  const std::string Alphabet = "019-+.e";
  std::vector<std::string> Level = {""};
  for (int Length = 1; Length <= 5; ++Length) {
    std::vector<std::string> Longer;
    for (const std::string &Prefix : Level)
      for (char C : Alphabet)
        Longer.push_back(Prefix + C);
    for (const std::string &Text : Longer) {
      char *End = nullptr;
      double Want = std::strtod(Text.c_str(), &End);
      bool WantOk = Text[0] != '+' && End == Text.c_str() + Text.size();
      double Got = 0;
      bool GotOk = parseNumber(Text, Got);
      ASSERT_EQ(GotOk, WantOk) << Text;
      if (WantOk) {
        ASSERT_TRUE(sameBits(Got, Want)) << Text;
      }
    }
    Level = std::move(Longer);
  }
}

/// Switches LC_NUMERIC for the scope of a test and restores it after.
class NumericLocale {
public:
  NumericLocale() : Saved(std::setlocale(LC_NUMERIC, nullptr)) {}
  ~NumericLocale() { std::setlocale(LC_NUMERIC, Saved.c_str()); }
  bool trySet(const char *Name) {
    return std::setlocale(LC_NUMERIC, Name) &&
           *std::localeconv()->decimal_point == ',';
  }

private:
  std::string Saved;
};

TEST(JsonReaderTest, NumbersIgnoreACommaDecimalLocale) {
  // A profiled host process may have set a comma-decimal locale; strtod
  // would then reject "1.5" as a malformed number.
  NumericLocale Locale;
  const char *Found = nullptr;
  for (const char *Name : {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8",
                           "fr_FR.utf8", "fr_FR", "nl_NL.UTF-8", "ru_RU.UTF-8"})
    if (Locale.trySet(Name)) {
      Found = Name;
      break;
    }
  if (!Found)
    GTEST_SKIP() << "no comma-decimal locale (de_DE, fr_FR, nl_NL, ru_RU) "
                    "is installed";
  JsonValue Document;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse("[1.5, -2.25e1, 1e999]", Document, Error))
      << Found << ": " << Error;
  EXPECT_EQ(Document.elements()[0].asNumber(), 1.5);
  EXPECT_EQ(Document.elements()[1].asNumber(), -22.5);
  EXPECT_TRUE(std::isinf(Document.elements()[2].asNumber()));
  std::string Out;
  JsonWriter(Out).value(1.5);
  EXPECT_EQ(Out, "1.5");
}

//===----------------------------------------------------------------------===//
// Kind-checked field access
//===----------------------------------------------------------------------===//

TEST(JsonFieldTest, UintRejectsNegativeAndOutOfRange) {
  JsonValue Document;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(
      R"({"max": 18446744073709549568, "frac": 2.9, "zero": -0,)"
      R"( "neg": -1, "big": 1e20, "inf": 1e999, "two64": 18446744073709551616,)"
      R"( "rounds_up": 18446744073709551615, "s": "7"})",
      Document, Error))
      << Error;
  uint64_t Value = 0;
  // The largest double below 2^64 is still a counter; fractions truncate.
  ASSERT_TRUE(jsonFieldUint(Document, "max", Value, Error)) << Error;
  EXPECT_EQ(Value, 18446744073709549568ull);
  ASSERT_TRUE(jsonFieldUint(Document, "frac", Value, Error)) << Error;
  EXPECT_EQ(Value, 2u);
  ASSERT_TRUE(jsonFieldUint(Document, "zero", Value, Error)) << Error;
  EXPECT_EQ(Value, 0u);

  const std::pair<const char *, const char *> Rejected[] = {
      {"neg", "field 'neg' is negative"},
      {"big", "field 'big' is out of range"},
      {"inf", "field 'inf' is out of range"},
      {"two64", "field 'two64' is out of range"},
      {"rounds_up", "field 'rounds_up' is out of range"},
      {"s", "field 's' missing or not a number"},
      {"missing", "field 'missing' missing or not a number"},
  };
  for (const auto &[Name, Message] : Rejected) {
    EXPECT_FALSE(jsonFieldUint(Document, Name, Value, Error)) << Name;
    EXPECT_EQ(Error, Message);
  }
}

TEST(JsonFieldTest, KindMismatchesNameTheField) {
  JsonValue Document;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(R"({"s": "x", "b": true, "d": 1e999})",
                               Document, Error))
      << Error;
  std::string Text;
  bool Flag = false;
  double Number = 0;
  EXPECT_TRUE(jsonFieldString(Document, "s", Text, Error));
  EXPECT_EQ(Text, "x");
  EXPECT_FALSE(jsonFieldString(Document, "b", Text, Error));
  EXPECT_EQ(Error, "field 'b' missing or not a string");
  EXPECT_TRUE(jsonFieldBool(Document, "b", Flag, Error));
  EXPECT_TRUE(Flag);
  EXPECT_FALSE(jsonFieldBool(Document, "s", Flag, Error));
  EXPECT_EQ(Error, "field 's' missing or not a boolean");
  // A double field may be infinite; only counters need a range.
  EXPECT_TRUE(jsonFieldDouble(Document, "d", Number, Error));
  EXPECT_TRUE(std::isinf(Number));
  EXPECT_FALSE(jsonFieldDouble(Document, "s", Number, Error));
  EXPECT_EQ(Error, "field 's' missing or not a number");
}

TEST(JsonFieldTest, StreamedFieldsKeepTheFirstOccurrenceAndTheMessages) {
  using Token = JsonReader::Token;
  std::string Text =
      R"({"n": 7, "n": "x", "s": "\u0041b", "b": false, "o": {"k": 1},)"
      R"( "big": 1e20, "neg": -1, "arr": [1, 2]})";
  JsonValue Tree;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Text, Tree, Error)) << Error;

  JsonReader Reader(Text);
  std::map<std::string, JsonField> Fields;
  std::string S;
  int Decoded = 0;
  bool IsObject = false;
  ASSERT_TRUE(Reader.readDocument(IsObject, [&](std::string_view Key) {
    JsonField &Field = Fields[std::string(Key)];
    if (Key == "s")
      return Field.read(Reader, &S);
    return Field.read(Reader, Token::BeginArray, [&] {
      ++Decoded;
      return Reader.skip(Token::BeginArray);
    });
  })) << Reader.error();
  EXPECT_EQ(S, "Ab");
  EXPECT_EQ(Decoded, 1); // the container callback ran for "arr" only
  EXPECT_TRUE(Fields["n"].is(Token::Number));
  EXPECT_EQ(Fields["n"].number(), 7.0); // the later "x" is ignored
  EXPECT_TRUE(Fields["o"].is(Token::BeginObject));
  EXPECT_FALSE(Fields["missing"].seen());

  // Every check gives jsonField*'s verdict and message.
  for (const char *Name : {"n", "s", "b", "o", "big", "neg", "missing"}) {
    uint64_t TreeUint = 0, StreamUint = 0;
    bool TreeFlag = false, StreamFlag = false;
    std::string TreeText, TreeError, StreamError;
    EXPECT_EQ(Fields[Name].toUint(Name, StreamUint, StreamError),
              jsonFieldUint(Tree, Name, TreeUint, TreeError))
        << Name;
    EXPECT_EQ(StreamError, TreeError);
    EXPECT_EQ(StreamUint, TreeUint);
    StreamError.clear();
    TreeError.clear();
    EXPECT_EQ(Fields[Name].toBool(Name, StreamFlag, StreamError),
              jsonFieldBool(Tree, Name, TreeFlag, TreeError))
        << Name;
    EXPECT_EQ(StreamError, TreeError);
    EXPECT_EQ(StreamFlag, TreeFlag);
    StreamError.clear();
    TreeError.clear();
    EXPECT_EQ(Fields[Name].checkString(Name, StreamError),
              jsonFieldString(Tree, Name, TreeText, TreeError))
        << Name;
    EXPECT_EQ(StreamError, TreeError);
  }
}

} // namespace
