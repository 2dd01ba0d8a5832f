//===- support/Json.h - Minimal JSON writer and reader ----------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dependency-free JSON toolkit sized for Cheetah's needs: a streaming
/// writer the report pipeline uses to serialize findings incrementally
/// (one finding at a time, no document tree in memory), a pull reader that
/// holds the one JSON grammar, and a small document tree built on that
/// reader for the tests and multi-run tooling that read reports back. Both
/// directions cover the full JSON grammar and are locale-independent;
/// numbers are stored as doubles (exact for the counter magnitudes Cheetah
/// emits, < 2^53).
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_SUPPORT_JSON_H
#define CHEETAH_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cheetah {

/// \returns \p Text with JSON string escaping applied (quotes, backslash,
/// control characters), without surrounding quotes.
std::string jsonEscape(std::string_view Text);

/// Streaming JSON emitter appending to a caller-owned string. Handles
/// comma placement and string escaping; the caller provides structure via
/// begin/end calls. Misnesting is a programming error (asserted). Keys,
/// strings and integers are written straight into the output, so emitting
/// a scalar allocates nothing beyond the output's own growth.
class JsonWriter {
public:
  explicit JsonWriter(std::string &Out) : Out(Out) {}

  /// Value emitters, usable at the top level, as array elements, or after
  /// key().
  void beginObject();
  void endObject();
  void beginArray();
  void endArray();
  void value(std::string_view Text);
  /// Without this overload a string literal would pick value(bool).
  void value(const char *Text) { value(std::string_view(Text)); }
  void value(double Number);
  void value(uint64_t Number);
  void value(int64_t Number);
  void value(int Number) { value(static_cast<int64_t>(Number)); }
  void value(unsigned Number) { value(static_cast<uint64_t>(Number)); }
  void value(bool Flag);
  void null();

  /// Emits an object member key; the next emitted value belongs to it.
  void key(std::string_view Name);

  /// key() + value() in one call.
  template <typename T> void member(std::string_view Name, const T &Value) {
    key(Name);
    value(Value);
  }

private:
  void separate();
  void quoted(std::string_view Text);

  std::string &Out;
  /// One frame per open object/array: whether a separator is needed before
  /// the next value at that level.
  std::vector<bool> NeedComma;
  bool PendingKey = false;
};

/// Pull reader over a JSON document, one token per next() call. Keys and
/// strings come back as views — into the input when they hold no escapes,
/// else into a buffer the reader reuses — so reading allocates nothing per
/// token. The reader checks the whole grammar as it goes: malformed input
/// yields Token::Error with a `JSON error at offset N: ...` message,
/// nesting deeper than 128 levels is an error, and so are characters after
/// the document.
class JsonReader {
public:
  enum class Token : uint8_t {
    BeginObject,
    EndObject,
    BeginArray,
    EndArray,
    /// An object member name; the member's value is the next token.
    Key,
    String,
    Number,
    Bool,
    Null,
    /// The document ended cleanly; returned from then on.
    End,
    /// A syntax error (see error()); returned from then on.
    Error
  };

  explicit JsonReader(std::string_view Document)
      : Begin(Document.data()), Pos(Document.data()),
        Limit(Document.data() + Document.size()) {}

  Token next();

  /// Consumes the rest of the value whose first token was \p First: the
  /// whole container for BeginObject/BeginArray, nothing for a scalar.
  /// \returns false on a syntax error.
  bool skip(Token First) {
    if (First == Token::BeginObject || First == Token::BeginArray)
      return skipContainer();
    return First != Token::Error;
  }

  /// The Key or String token's decoded text; valid until the next call.
  std::string_view string() const { return Text; }
  /// The Number token's value.
  double number() const { return NumberValue; }
  /// The Bool token's value.
  bool boolean() const { return BoolValue; }
  /// After Token::Error: what went wrong, and where.
  const std::string &error() const { return Error; }

private:
  static constexpr unsigned MaxDepth = 128;

  /// What the next token may be.
  enum class Expect : uint8_t {
    Value,        // the document or a member value
    FirstElement, // an element or ']'
    FirstMember,  // a key or '}'
    Separator,    // ',' and the next element or key, the container's
                  // close, or the end of input
    Done,
    Failed,
  };

  /// skip() after BeginObject/BeginArray: reads to the matching close.
  bool skipContainer();
  Token fail(const char *Message);
  void skipSpace();
  Token value();
  /// A key and its ':'.
  Token member();
  Token closeContainer(Token T);
  bool scanString();
  Token scanNumber();
  Token literal(const char *Word, Token T);

  const char *Begin;
  const char *Pos;
  const char *Limit;
  Expect State = Expect::Value;
  /// Open containers; InObject[I] says whether the I-th (outermost first)
  /// is an object. value() refuses any value nested deeper than MaxDepth,
  /// so at most MaxDepth + 1 are open.
  unsigned Depth = 0;
  bool InObject[MaxDepth + 1] = {};
  std::string_view Text;
  std::string Unescaped;
  double NumberValue = 0.0;
  bool BoolValue = false;
  std::string Error;
};

/// A parsed JSON document node.
class JsonValue {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  /// Parses \p Text into \p Result. On failure returns false and describes
  /// the problem (with byte offset) in \p Error.
  static bool parse(std::string_view Text, JsonValue &Result,
                    std::string &Error);

  Kind kind() const { return NodeKind; }
  bool isNull() const { return NodeKind == Kind::Null; }
  bool isObject() const { return NodeKind == Kind::Object; }
  bool isArray() const { return NodeKind == Kind::Array; }

  /// Typed accessors; the node must have the matching kind.
  bool asBool() const;
  double asNumber() const;
  /// asNumber() truncated to uint64 — counters round-trip exactly below
  /// 2^53. The number must lie in [0, 2^64).
  uint64_t asUint() const;
  const std::string &asString() const;
  const std::vector<JsonValue> &elements() const;

  /// Object member lookup (the first member of that name); nullptr when
  /// absent (or not an object).
  const JsonValue *find(const std::string &Name) const;
  /// Number of object members / array elements.
  size_t size() const;

private:
  /// Fills *this from the value whose first token \p First was just read.
  bool build(JsonReader &Reader, JsonReader::Token First);

  Kind NodeKind = Kind::Null;
  bool BoolValue = false;
  double NumberValue = 0.0;
  std::string StringValue;
  std::vector<JsonValue> Elements;
  /// Object members in document order (schema stability is part of the
  /// report contract, so order is preserved rather than sorted).
  std::vector<std::pair<std::string, JsonValue>> Members;
};

/// The counter a JSON number denotes: \p Number truncated to uint64.
/// \returns false with a descriptive \p Error naming field \p Name when
/// the number is negative or at least 2^64 (inf included) — casting those
/// would be undefined behaviour. The one rule for every reader of untrusted
/// documents, tree-based (jsonFieldUint) or streaming.
bool jsonNumberToUint(double Number, const char *Name, uint64_t &Out,
                      std::string &Error);

/// Kind-checked object-member accessors for code reading untrusted
/// documents (the diff/history tooling): unlike JsonValue's typed
/// accessors, which assert on kind mismatches, these turn every
/// structural surprise — missing member, wrong kind, a counter that is
/// negative or out of range — into a descriptive \p Error and a false
/// return.
bool jsonFieldString(const JsonValue &Object, const char *Name,
                     std::string &Out, std::string &Error);
bool jsonFieldUint(const JsonValue &Object, const char *Name, uint64_t &Out,
                   std::string &Error);
bool jsonFieldBool(const JsonValue &Object, const char *Name, bool &Out,
                   std::string &Error);
bool jsonFieldDouble(const JsonValue &Object, const char *Name, double &Out,
                     std::string &Error);

} // namespace cheetah

#endif // CHEETAH_SUPPORT_JSON_H
