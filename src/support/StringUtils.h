//===- support/StringUtils.h - String formatting helpers -------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-into-std::string helpers and human-readable number formatting used
/// by the reporting module and the benchmark harnesses. Library code writes
/// reports into strings rather than streams so callers choose the sink.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_SUPPORT_STRINGUTILS_H
#define CHEETAH_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <vector>

namespace cheetah {

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats \p N with thousands separators, e.g. 1234567 -> "1,234,567".
std::string formatWithCommas(uint64_t N);

/// Formats \p N as a compact human-readable quantity, e.g. 65536 -> "64K".
std::string formatHuman(uint64_t N);

/// \returns true if \p Text begins with \p Prefix.
bool startsWith(const std::string &Text, const std::string &Prefix);

/// A simple column-aligned text table, used by every benchmark harness to
/// print paper-style rows.
class TextTable {
public:
  /// Sets the header row.
  void setHeader(std::vector<std::string> Columns);

  /// Appends a data row; its width may not exceed the header's.
  void addRow(std::vector<std::string> Columns);

  /// Renders the table with padded columns and a separator rule.
  std::string render() const;

  /// Number of data rows added.
  size_t rowCount() const { return Rows.size(); }

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

} // namespace cheetah

#endif // CHEETAH_SUPPORT_STRINGUTILS_H
