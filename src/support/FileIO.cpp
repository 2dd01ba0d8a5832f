//===- support/FileIO.cpp - Whole-file reads and writes -------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"

#include <cerrno>
#include <cstdio>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

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
  // A regular file, or nothing yet, is replaced whole: the bytes go to a
  // temp file beside it, reach the disk, and the temp file is renamed over
  // the target. A reader, or a restart after a kill at any point, finds
  // the old bytes or the new ones, never a truncated file. Anything else
  // at the path (a symlink such as /dev/stdout, a device, a FIFO) cannot
  // be replaced and is written in place.
  struct stat Target {};
  bool Exists = ::lstat(Path.c_str(), &Target) == 0;
  bool Replace = !Exists || S_ISREG(Target.st_mode);
  std::string Temp =
      Replace ? Path + ".tmp" + std::to_string(::getpid()) : Path;
  int Fd = ::open(Temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0666);
  if (Fd < 0) {
    Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  bool Written = true;
  std::string_view Rest = Text;
  while (Written && !Rest.empty()) {
    ssize_t Wrote = ::write(Fd, Rest.data(), Rest.size());
    if (Wrote > 0)
      Rest.remove_prefix(static_cast<size_t>(Wrote));
    else // Only an interrupted write is retried.
      Written = Wrote < 0 && errno == EINTR;
  }
  // The temp file takes the target's mode, and reaches the disk before
  // the rename can expose it.
  if (Replace && Written && Exists)
    Written = ::fchmod(Fd, Target.st_mode & 07777) == 0;
  if (Replace && Written)
    Written = ::fsync(Fd) == 0;
  Written = ::close(Fd) == 0 && Written;
  if (!Written) {
    if (Replace)
      ::unlink(Temp.c_str());
    Error = "short write to '" + Path + "'";
    return false;
  }
  if (Replace && ::rename(Temp.c_str(), Path.c_str()) != 0) {
    ::unlink(Temp.c_str());
    Error = "cannot replace '" + Path + "'";
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
