//===- tests/ReportVersions.h - Older renderings of one report --*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a `cheetah-report-v6` document into the v5 and v4 documents the
/// same run would have produced, for the tests that read mixed versions.
/// v6 differs from v5 only in leaving the word and line tables of
/// insignificant findings empty, and v5 from v4 in the table totals (and
/// in cutting the tables). So downgradeToV5 relabels the schema and puts
/// one row into every empty table, as a v5 producer would have written
/// rows for an insignificant finding, and downgradeToV4 then drops
/// `words_total` and `lines_total`. No reader looks at a table row, so
/// every downgrade must read back as the document it came from.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_TESTS_REPORTVERSIONS_H
#define CHEETAH_TESTS_REPORTVERSIONS_H

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>

namespace cheetah {
namespace test {

/// \p Text with its schema string \p From, which must be present, replaced
/// by \p To.
inline std::string relabelSchema(std::string Text, std::string_view From,
                                 std::string_view To) {
  size_t Pos = Text.find(From);
  EXPECT_NE(Pos, std::string::npos) << From;
  if (Pos == std::string::npos)
    return Text;
  return Text.replace(Pos, From.size(), To);
}

/// \p Text, a v6 report, as the v5 document of the same run: the schema
/// string, and a row in every table an insignificant finding left empty.
inline std::string downgradeToV5(std::string Text) {
  constexpr std::string_view Tables[][2] = {
      {R"("words":[])",
       R"("words":[{"offset":0,"reads":1,"writes":0,"cycles":9,)"
       R"("first_thread":0,"multi_thread":false}])"},
      {R"("lines":[])",
       R"("lines":[{"offset":0,"reads":1,"writes":0,"cycles":9,)"
       R"("first_node":0,"multi_node":false}])"}};
  for (const auto &[Empty, Row] : Tables)
    for (size_t At = Text.find(Empty); At != std::string::npos;
         At = Text.find(Empty, At))
      Text.replace(At, Empty.size(), Row);
  return relabelSchema(std::move(Text), "cheetah-report-v6",
                       "cheetah-report-v5");
}

/// \p Text, a v6 report, as the v4 document of the same run: the v5 one
/// without words_total/lines_total members.
inline std::string downgradeToV4(std::string Text) {
  Text = downgradeToV5(std::move(Text));
  for (std::string_view Member : {R"("words_total":)", R"("lines_total":)"})
    for (size_t At = Text.find(Member); At != std::string::npos;
         At = Text.find(Member))
      Text.erase(At, Text.find(',', At) - At + 1);
  return relabelSchema(std::move(Text), "cheetah-report-v5",
                       "cheetah-report-v4");
}

} // namespace test
} // namespace cheetah

#endif // CHEETAH_TESTS_REPORTVERSIONS_H
