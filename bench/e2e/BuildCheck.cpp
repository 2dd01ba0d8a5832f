//===- bench/e2e/BuildCheck.cpp - Refuse to time unoptimized builds -------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The only translation unit that sees the build-type definitions, so the
/// CMake project can link the same harness into a deliberately mislabelled
/// binary and test that the refusal fires.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#ifndef CHEETAH_BENCH_BUILD_TYPE
#define CHEETAH_BENCH_BUILD_TYPE ""
#endif
#ifndef CHEETAH_BENCH_SANITIZE
#define CHEETAH_BENCH_SANITIZE ""
#endif

using namespace cheetah;

const char *cheetah::bench::buildType() { return CHEETAH_BENCH_BUILD_TYPE; }

bool cheetah::bench::checkTimedBuild(std::string &Error) {
  std::string Type = CHEETAH_BENCH_BUILD_TYPE;
  std::string Sanitizer = CHEETAH_BENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  if (Sanitizer.empty())
    Sanitizer = "compiler-instrumented";
#endif
  if (Type != "Release") {
    Error = "refusing to time a '" + Type +
            "' build: timings need CMAKE_BUILD_TYPE=Release";
    return false;
  }
  if (!Sanitizer.empty()) {
    Error = "refusing to time a build instrumented with the '" + Sanitizer +
            "' sanitizer";
    return false;
  }
  return true;
}
