//===- support/FileIO.cpp - Whole-file reads and writes -------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"

#include <cerrno>
#include <cstdio>

#include <sys/stat.h>

using namespace cheetah;

bool cheetah::readFile(const std::string &Path, std::string &Out,
                       std::string &Error, bool *Missing) {
  if (Missing)
    *Missing = false;
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    if (Missing)
      *Missing = errno == ENOENT;
    Error = "cannot open '" + Path + "' for reading";
    return false;
  }
  Out.clear();
  // Size the buffer once and read a regular file in one call. Anything
  // else — a pipe, or a directory, whose seek offsets are no size — goes
  // through the chunked loop below.
  struct stat Info;
  if (::fstat(::fileno(File), &Info) == 0 && S_ISREG(Info.st_mode) &&
      Info.st_size > 0) {
    Out.resize(static_cast<size_t>(Info.st_size));
    Out.resize(std::fread(Out.data(), 1, Out.size(), File));
  }
  char Buffer[1 << 16];
  size_t Read;
  while ((Read = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Out.append(Buffer, Read);
  bool Ok = !std::ferror(File);
  std::fclose(File);
  if (!Ok)
    Error = "failed reading '" + Path + "'";
  return Ok;
}

bool cheetah::writeFile(const std::string &Path, std::string_view Text,
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

bool cheetah::writeFileOrStdout(const std::string &Path, std::string_view Text,
                                std::string &Error) {
  if (!Path.empty() && Path != "-")
    return writeFile(Path, Text, Error);
  if (std::fwrite(Text.data(), 1, Text.size(), stdout) != Text.size()) {
    Error = "short write to standard output";
    return false;
  }
  return true;
}
