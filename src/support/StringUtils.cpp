//===- support/StringUtils.cpp - String formatting helpers ---------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include "support/Assert.h"

#include <cstdarg>
#include <cstdio>

using namespace cheetah;

std::string cheetah::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  CHEETAH_ASSERT(Needed >= 0, "vsnprintf failed");
  std::string Result(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Result;
}

std::string cheetah::formatWithCommas(uint64_t N) {
  std::string Digits = std::to_string(N);
  std::string Result;
  int Count = 0;
  for (auto It = Digits.rbegin(); It != Digits.rend(); ++It) {
    if (Count != 0 && Count % 3 == 0)
      Result.push_back(',');
    Result.push_back(*It);
    ++Count;
  }
  return std::string(Result.rbegin(), Result.rend());
}

std::string cheetah::formatHuman(uint64_t N) {
  static const char *Suffixes[] = {"", "K", "M", "G", "T"};
  int Index = 0;
  while (N >= 1024 && N % 1024 == 0 && Index < 4) {
    N /= 1024;
    ++Index;
  }
  return std::to_string(N) + Suffixes[Index];
}

bool cheetah::startsWith(const std::string &Text, const std::string &Prefix) {
  return Text.size() >= Prefix.size() &&
         Text.compare(0, Prefix.size(), Prefix) == 0;
}

void TextTable::setHeader(std::vector<std::string> Columns) {
  Header = std::move(Columns);
}

void TextTable::addRow(std::vector<std::string> Columns) {
  CHEETAH_ASSERT(Columns.size() <= Header.size() || Header.empty(),
                 "row wider than header");
  Rows.push_back(std::move(Columns));
}

std::string TextTable::render() const {
  // Compute column widths over header and all rows.
  size_t NumCols = Header.size();
  for (const auto &Row : Rows)
    NumCols = std::max(NumCols, Row.size());
  std::vector<size_t> Widths(NumCols, 0);
  auto Measure = [&](const std::vector<std::string> &Row) {
    for (size_t I = 0; I < Row.size(); ++I)
      Widths[I] = std::max(Widths[I], Row[I].size());
  };
  Measure(Header);
  for (const auto &Row : Rows)
    Measure(Row);

  std::string Out;
  auto Emit = [&](const std::vector<std::string> &Row) {
    for (size_t I = 0; I < Row.size(); ++I) {
      Out += Row[I];
      if (I + 1 < Row.size())
        Out.append(Widths[I] - Row[I].size() + 2, ' ');
    }
    Out.push_back('\n');
  };
  if (!Header.empty()) {
    Emit(Header);
    size_t RuleWidth = 0;
    for (size_t I = 0; I < Widths.size(); ++I)
      RuleWidth += Widths[I] + (I + 1 < Widths.size() ? 2 : 0);
    Out.append(RuleWidth, '-');
    Out.push_back('\n');
  }
  for (const auto &Row : Rows)
    Emit(Row);
  return Out;
}
