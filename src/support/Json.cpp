//===- support/Json.cpp - Minimal JSON writer and reader ------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/Assert.h"
#include "support/StringUtils.h"

#include <charconv>
#include <cmath>
#include <limits>

using namespace cheetah;

/// 2^64: the first double no uint64_t can hold.
static constexpr double TwoPow64 = 18446744073709551616.0;

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

/// Appends \p Text to \p Out with JSON string escaping, copying the runs
/// between escaped characters in one piece.
static void appendEscaped(std::string &Out, std::string_view Text) {
  static constexpr char Hex[] = "0123456789abcdef";
  size_t Run = 0;
  for (size_t I = 0; I < Text.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(Text[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(Text.data() + Run, I - Run);
    Run = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default: {
      const char Escape[] = {'\\', 'u', '0', '0', Hex[C >> 4], Hex[C & 15]};
      Out.append(Escape, sizeof(Escape));
    }
    }
  }
  Out.append(Text.data() + Run, Text.size() - Run);
}

std::string cheetah::jsonEscape(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size());
  appendEscaped(Out, Text);
  return Out;
}

void JsonWriter::separate() {
  if (PendingKey) {
    // The value after key() never takes a comma of its own.
    PendingKey = false;
    return;
  }
  if (!NeedComma.empty()) {
    if (NeedComma.back())
      Out += ',';
    NeedComma.back() = true;
  }
}

void JsonWriter::quoted(std::string_view Text) {
  Out += '"';
  appendEscaped(Out, Text);
  Out += '"';
}

void JsonWriter::beginObject() {
  separate();
  Out += '{';
  NeedComma.push_back(false);
}

void JsonWriter::endObject() {
  CHEETAH_ASSERT(!NeedComma.empty() && !PendingKey, "misnested endObject");
  NeedComma.pop_back();
  Out += '}';
}

void JsonWriter::beginArray() {
  separate();
  Out += '[';
  NeedComma.push_back(false);
}

void JsonWriter::endArray() {
  CHEETAH_ASSERT(!NeedComma.empty() && !PendingKey, "misnested endArray");
  NeedComma.pop_back();
  Out += ']';
}

void JsonWriter::key(std::string_view Name) {
  CHEETAH_ASSERT(!PendingKey, "key() twice without a value");
  separate();
  quoted(Name);
  Out += ':';
  PendingKey = true;
}

void JsonWriter::value(std::string_view Text) {
  separate();
  quoted(Text);
}

void JsonWriter::value(double Number) {
  separate();
  if (!std::isfinite(Number)) {
    // JSON has no NaN/Inf; null is the conventional stand-in.
    Out += "null";
    return;
  }
  // Shortest exact representation, locale-independent — printf %g honors
  // LC_NUMERIC and would emit "1,5" inside a host application that set a
  // European locale (a profiler inside that process cannot control it).
  char Buffer[32];
  auto [End, Ec] = std::to_chars(Buffer, Buffer + sizeof(Buffer), Number);
  CHEETAH_ASSERT(Ec == std::errc(), "double did not fit to_chars buffer");
  Out.append(Buffer, End);
}

void JsonWriter::value(uint64_t Number) {
  separate();
  char Buffer[20];
  auto [End, Ec] = std::to_chars(Buffer, Buffer + sizeof(Buffer), Number);
  Out.append(Buffer, End);
}

void JsonWriter::value(int64_t Number) {
  separate();
  char Buffer[20];
  auto [End, Ec] = std::to_chars(Buffer, Buffer + sizeof(Buffer), Number);
  Out.append(Buffer, End);
}

void JsonWriter::value(bool Flag) {
  separate();
  Out += Flag ? "true" : "false";
}

void JsonWriter::null() {
  separate();
  Out += "null";
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

JsonReader::Token JsonReader::fail(const char *Message) {
  Error = formatString("JSON error at offset %zu: %s",
                       static_cast<size_t>(Pos - Begin), Message);
  State = Expect::Failed;
  return Token::Error;
}

void JsonReader::skipSpace() {
  while (Pos != Limit &&
         (*Pos == ' ' || *Pos == '\t' || *Pos == '\n' || *Pos == '\r'))
    ++Pos;
}

JsonReader::Token JsonReader::next() {
  // Whitespace is skipped before every structural check, so each error
  // names the first significant byte it could not accept.
  skipSpace();
  switch (State) {
  case Expect::Value:
    return value();
  case Expect::FirstElement:
    if (Pos != Limit && *Pos == ']')
      return closeContainer(Token::EndArray);
    return value();
  case Expect::FirstMember:
    if (Pos != Limit && *Pos == '}')
      return closeContainer(Token::EndObject);
    return member();
  case Expect::Separator:
    if (Depth == 0) {
      if (Pos != Limit)
        return fail("trailing characters after document");
      State = Expect::Done;
      return Token::End;
    }
    if (InObject[Depth - 1]) {
      if (Pos != Limit && *Pos == '}')
        return closeContainer(Token::EndObject);
      if (Pos == Limit || *Pos != ',')
        return fail("expected ',' or '}' in object");
      ++Pos;
      skipSpace();
      return member();
    }
    if (Pos != Limit && *Pos == ']')
      return closeContainer(Token::EndArray);
    if (Pos == Limit || *Pos != ',')
      return fail("expected ',' or ']' in array");
    ++Pos;
    skipSpace();
    return value();
  case Expect::Done:
    return Token::End;
  case Expect::Failed:
    return Token::Error;
  }
  CHEETAH_UNREACHABLE("bad JsonReader state");
}

JsonReader::Token JsonReader::member() {
  if (Pos == Limit || *Pos != '"')
    return fail("expected object key");
  if (!scanString())
    return Token::Error;
  skipSpace();
  if (Pos == Limit || *Pos != ':')
    return fail("expected ':' after key");
  ++Pos;
  State = Expect::Value;
  return Token::Key;
}

bool JsonReader::skipContainer() {
  for (unsigned Outer = Depth - 1; Depth > Outer;)
    if (next() == Token::Error)
      return false;
  return true;
}

JsonReader::Token JsonReader::closeContainer(Token T) {
  ++Pos;
  --Depth;
  State = Expect::Separator;
  return T;
}

JsonReader::Token JsonReader::value() {
  // Depth counts the containers enclosing this value.
  if (Depth > MaxDepth)
    return fail("nesting too deep");
  if (Pos == Limit)
    return fail("unexpected end of input");
  switch (*Pos) {
  case '{':
    ++Pos;
    InObject[Depth++] = true;
    State = Expect::FirstMember;
    return Token::BeginObject;
  case '[':
    ++Pos;
    InObject[Depth++] = false;
    State = Expect::FirstElement;
    return Token::BeginArray;
  case '"':
    if (!scanString())
      return Token::Error;
    State = Expect::Separator;
    return Token::String;
  case 't':
    BoolValue = true;
    return literal("true", Token::Bool);
  case 'f':
    BoolValue = false;
    return literal("false", Token::Bool);
  case 'n':
    return literal("null", Token::Null);
  default:
    return scanNumber();
  }
}

JsonReader::Token JsonReader::literal(const char *Word, Token T) {
  std::string_view Expected(Word);
  if (static_cast<size_t>(Limit - Pos) < Expected.size() ||
      std::string_view(Pos, Expected.size()) != Expected)
    return fail(formatString("expected '%s'", Word).c_str());
  Pos += Expected.size();
  State = Expect::Separator;
  return T;
}

bool JsonReader::scanString() {
  const char *Start = ++Pos; // opening quote
  while (Pos != Limit && *Pos != '"' && *Pos != '\\')
    ++Pos;
  if (Pos != Limit && *Pos == '"') {
    // No escapes: the token is a view into the input.
    Text = std::string_view(Start, Pos - Start);
    ++Pos;
    return true;
  }
  Unescaped.assign(Start, Pos);
  while (Pos != Limit) {
    char C = *Pos++;
    if (C == '"') {
      Text = Unescaped;
      return true;
    }
    if (C != '\\') {
      Unescaped += C;
      continue;
    }
    if (Pos == Limit)
      break;
    char Escape = *Pos++;
    switch (Escape) {
    case '"':
    case '\\':
    case '/':
      Unescaped += Escape;
      break;
    case 'b':
      Unescaped += '\b';
      break;
    case 'f':
      Unescaped += '\f';
      break;
    case 'n':
      Unescaped += '\n';
      break;
    case 'r':
      Unescaped += '\r';
      break;
    case 't':
      Unescaped += '\t';
      break;
    case 'u': {
      if (Limit - Pos < 4) {
        fail("truncated \\u escape");
        return false;
      }
      unsigned Code = 0;
      for (int I = 0; I < 4; ++I) {
        char H = *Pos++;
        Code <<= 4;
        if (H >= '0' && H <= '9')
          Code |= H - '0';
        else if (H >= 'a' && H <= 'f')
          Code |= H - 'a' + 10;
        else if (H >= 'A' && H <= 'F')
          Code |= H - 'A' + 10;
        else {
          fail("bad hex digit in \\u escape");
          return false;
        }
      }
      // UTF-8 encode the BMP code point (surrogate pairs unsupported —
      // Cheetah never emits them; decode as-is for robustness).
      if (Code < 0x80) {
        Unescaped += static_cast<char>(Code);
      } else if (Code < 0x800) {
        Unescaped += static_cast<char>(0xC0 | (Code >> 6));
        Unescaped += static_cast<char>(0x80 | (Code & 0x3F));
      } else {
        Unescaped += static_cast<char>(0xE0 | (Code >> 12));
        Unescaped += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
        Unescaped += static_cast<char>(0x80 | (Code & 0x3F));
      }
      break;
    }
    default:
      fail("unknown escape character");
      return false;
    }
  }
  fail("unterminated string");
  return false;
}

/// The value strtod gives a number outside the double range, which
/// from_chars reports as an error instead: ±inf on overflow, ±0 on
/// underflow. The two lie hundreds of decimal orders apart, so the decimal
/// exponent of the leading digit of \p First..\p Last (a complete number
/// token) tells them apart.
static double outOfRangeValue(const char *First, const char *Last) {
  bool Negative = *First == '-';
  const char *P = First + Negative;
  int64_t Magnitude = 0;
  bool Significant = false, Fraction = false;
  for (; P != Last && *P != 'e' && *P != 'E'; ++P) {
    if (*P == '.') {
      Fraction = true;
      continue;
    }
    if (!Significant && *P == '0') {
      // A leading zero lowers the magnitude only after the point.
      Magnitude -= Fraction;
      continue;
    }
    Significant = true;
    Magnitude += !Fraction;
  }
  if (P != Last) {
    ++P; // 'e' or 'E', followed by at least one digit
    bool NegativeExponent = *P == '-';
    if (*P == '-' || *P == '+')
      ++P;
    int64_t Exponent = 0;
    for (; P != Last; ++P)
      if (Exponent < (int64_t(1) << 50)) // saturate: only the sign matters
        Exponent = Exponent * 10 + (*P - '0');
    Magnitude += NegativeExponent ? -Exponent : Exponent;
  }
  double Value = Magnitude > 0 ? std::numeric_limits<double>::infinity() : 0.0;
  return Negative ? -Value : Value;
}

static bool isDigit(char C) { return C >= '0' && C <= '9'; }

/// Whether \p P..\p Last spells a number as RFC 8259 has it: an optional
/// minus, then a lone 0 or a nonzero digit and more digits, then
/// optionally a '.' and at least one digit, then optionally an 'e' or 'E',
/// an optional sign and at least one digit. strtod and from_chars also
/// take "007", ".5" and "1.", which JSON forbids.
static bool isJsonNumber(const char *P, const char *Last) {
  auto Digits = [&] {
    const char *First = P;
    while (P != Last && isDigit(*P))
      ++P;
    return P != First;
  };
  if (P != Last && *P == '-')
    ++P;
  if (P != Last && *P == '0')
    ++P;
  else if (!Digits())
    return false;
  if (P != Last && *P == '.') {
    ++P;
    if (!Digits())
      return false;
  }
  if (P != Last && (*P == 'e' || *P == 'E')) {
    ++P;
    if (P != Last && (*P == '+' || *P == '-'))
      ++P;
    if (!Digits())
      return false;
  }
  return P == Last;
}

JsonReader::Token JsonReader::scanNumber() {
  auto InNumber = [](char C) {
    return isDigit(C) || C == '.' || C == 'e' || C == 'E' || C == '+' ||
           C == '-';
  };
  const char *Start = Pos;
  // JSON numbers never start with '+' (only exponents may carry it).
  if (*Pos == '+')
    return fail("expected a value");
  // Fast path: a plain integer below 10^15 converts to a double exactly,
  // so it needs no decimal-to-binary rounding. A leading zero takes the
  // slow path, which refuses it.
  uint64_t Integer = 0;
  while (Pos != Limit && isDigit(*Pos))
    Integer = Integer * 10 + (*Pos++ - '0');
  size_t Digits = static_cast<size_t>(Pos - Start);
  if (Digits != 0 && Digits <= 15 && (*Start != '0' || Digits == 1) &&
      (Pos == Limit || !InNumber(*Pos))) {
    NumberValue = static_cast<double>(Integer);
    State = Expect::Separator;
    return Token::Number;
  }
  while (Pos != Limit && InNumber(*Pos))
    ++Pos;
  if (Pos == Start)
    return fail("expected a value");
  if (!isJsonNumber(Start, Pos))
    return fail("malformed number");
  // from_chars, unlike strtod, ignores LC_NUMERIC: a host that set a
  // comma-decimal locale must not turn "1.5" into a malformed number.
  auto [End, Ec] = std::from_chars(Start, Pos, NumberValue);
  if (Ec == std::errc::invalid_argument || End != Pos)
    return fail("malformed number");
  if (Ec == std::errc::result_out_of_range)
    NumberValue = outOfRangeValue(Start, Pos);
  State = Expect::Separator;
  return Token::Number;
}

//===----------------------------------------------------------------------===//
// Document tree
//===----------------------------------------------------------------------===//

bool JsonValue::build(JsonReader &Reader, JsonReader::Token First) {
  using Token = JsonReader::Token;
  switch (First) {
  case Token::BeginObject:
    NodeKind = Kind::Object;
    for (;;) {
      Token T = Reader.next();
      if (T == Token::EndObject)
        return true;
      if (T != Token::Key)
        return false;
      Members.emplace_back(std::string(Reader.string()), JsonValue());
      if (!Members.back().second.build(Reader, Reader.next()))
        return false;
    }
  case Token::BeginArray:
    NodeKind = Kind::Array;
    for (;;) {
      Token T = Reader.next();
      if (T == Token::EndArray)
        return true;
      if (!Elements.emplace_back().build(Reader, T))
        return false;
    }
  case Token::String:
    NodeKind = Kind::String;
    StringValue = Reader.string();
    return true;
  case Token::Number:
    NodeKind = Kind::Number;
    NumberValue = Reader.number();
    return true;
  case Token::Bool:
    NodeKind = Kind::Bool;
    BoolValue = Reader.boolean();
    return true;
  case Token::Null:
    return true;
  default:
    return false; // Token::Error: the reader holds the message
  }
}

bool JsonValue::parse(std::string_view Text, JsonValue &Result,
                      std::string &Error) {
  Result = JsonValue();
  JsonReader Reader(Text);
  if (Result.build(Reader, Reader.next()) &&
      Reader.next() == JsonReader::Token::End)
    return true;
  Error = Reader.error();
  return false;
}

bool JsonValue::asBool() const {
  CHEETAH_ASSERT(NodeKind == Kind::Bool, "not a bool");
  return BoolValue;
}

double JsonValue::asNumber() const {
  CHEETAH_ASSERT(NodeKind == Kind::Number, "not a number");
  return NumberValue;
}

uint64_t JsonValue::asUint() const {
  double N = asNumber();
  CHEETAH_ASSERT(N >= 0, "negative number read as unsigned");
  CHEETAH_ASSERT(N < TwoPow64, "number beyond uint64 read as unsigned");
  // Integer tokens below 2^53 parse exactly; truncation is the identity on
  // them, whereas adding 0.5 would round odd values >= 2^52 up by one.
  return static_cast<uint64_t>(N);
}

const std::string &JsonValue::asString() const {
  CHEETAH_ASSERT(NodeKind == Kind::String, "not a string");
  return StringValue;
}

const std::vector<JsonValue> &JsonValue::elements() const {
  CHEETAH_ASSERT(NodeKind == Kind::Array, "not an array");
  return Elements;
}

const JsonValue *JsonValue::find(std::string_view Name) const {
  if (NodeKind != Kind::Object)
    return nullptr;
  for (const auto &[Key, Value] : Members)
    if (Key == Name)
      return &Value;
  return nullptr;
}

size_t JsonValue::size() const {
  return NodeKind == Kind::Object ? Members.size() : Elements.size();
}

//===----------------------------------------------------------------------===//
// Kind-checked field access
//===----------------------------------------------------------------------===//

bool cheetah::jsonNumberToUint(double Number, const char *Name,
                               uint64_t &Out, std::string &Error) {
  if (Number < 0) {
    Error = formatString("field '%s' is negative", Name);
    return false;
  }
  if (Number >= TwoPow64) {
    Error = formatString("field '%s' is out of range", Name);
    return false;
  }
  Out = static_cast<uint64_t>(Number);
  return true;
}

/// The error of a member that is absent or of the wrong kind, \p What
/// naming the kind expected ("a string").
static bool kindMismatch(const char *Name, const char *What,
                         std::string &Error) {
  Error = formatString("field '%s' missing or not %s", Name, What);
  return false;
}

bool cheetah::jsonFieldString(const JsonValue &Object, const char *Name,
                              std::string &Out, std::string &Error) {
  const JsonValue *Field = Object.find(Name);
  if (!Field || Field->kind() != JsonValue::Kind::String)
    return kindMismatch(Name, "a string", Error);
  Out = Field->asString();
  return true;
}

bool cheetah::jsonFieldUint(const JsonValue &Object, const char *Name,
                            uint64_t &Out, std::string &Error) {
  const JsonValue *Field = Object.find(Name);
  if (!Field || Field->kind() != JsonValue::Kind::Number)
    return kindMismatch(Name, "a number", Error);
  return jsonNumberToUint(Field->asNumber(), Name, Out, Error);
}

bool cheetah::jsonFieldBool(const JsonValue &Object, const char *Name,
                            bool &Out, std::string &Error) {
  const JsonValue *Field = Object.find(Name);
  if (!Field || Field->kind() != JsonValue::Kind::Bool)
    return kindMismatch(Name, "a boolean", Error);
  Out = Field->asBool();
  return true;
}

bool cheetah::jsonFieldDouble(const JsonValue &Object, const char *Name,
                              double &Out, std::string &Error) {
  const JsonValue *Field = Object.find(Name);
  if (!Field || Field->kind() != JsonValue::Kind::Number)
    return kindMismatch(Name, "a number", Error);
  Out = Field->asNumber();
  return true;
}

//===----------------------------------------------------------------------===//
// Streaming member capture
//===----------------------------------------------------------------------===//

bool JsonField::checkString(const char *Name, std::string &Error) const {
  return Kind == JsonReader::Token::String ||
         kindMismatch(Name, "a string", Error);
}

bool JsonField::toUint(const char *Name, uint64_t &Out,
                       std::string &Error) const {
  if (Kind != JsonReader::Token::Number)
    return kindMismatch(Name, "a number", Error);
  return jsonNumberToUint(Number, Name, Out, Error);
}

bool JsonField::toBool(const char *Name, bool &Out, std::string &Error) const {
  if (Kind != JsonReader::Token::Bool)
    return kindMismatch(Name, "a boolean", Error);
  Out = Flag;
  return true;
}
