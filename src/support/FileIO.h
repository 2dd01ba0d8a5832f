//===- support/FileIO.h - Whole-file reads and writes -----------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole-file reads and writes behind the tools and the trace and
/// topology loaders. A read sizes its buffer from the file once and fills
/// it in one call; every failure comes back as a message naming the file.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_SUPPORT_FILEIO_H
#define CHEETAH_SUPPORT_FILEIO_H

#include <string>
#include <string_view>

namespace cheetah {

/// Reads all of \p Path into \p Out. \returns false with \p Error when the
/// file cannot be opened or read; \p Missing, when given, then says whether
/// nothing exists at \p Path (as opposed to a file that cannot be read).
bool readFile(const std::string &Path, std::string &Out, std::string &Error,
              bool *Missing = nullptr);

/// Replaces the contents of \p Path with \p Text. \returns false with
/// \p Error when the file cannot be opened or fully written.
bool writeFile(const std::string &Path, std::string_view Text,
               std::string &Error);

/// writeFile(), with "" or "-" naming standard output.
bool writeFileOrStdout(const std::string &Path, std::string_view Text,
                       std::string &Error);

} // namespace cheetah

#endif // CHEETAH_SUPPORT_FILEIO_H
