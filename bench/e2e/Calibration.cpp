//===- bench/e2e/Calibration.cpp - Host speed calibration kernel ----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed kernel the benchmark times after every round to measure how fast
/// the host runs single-threaded code right now. On a shared host that
/// speed drifts by 15-25% over minutes; scaling single-threaded phases by
/// it cancels the drift. It lives in a library of its own, built with
/// fixed flags and without the profiler's build flags, so no change to the
/// profiler or its build can speed the kernel up or slow it down.
///
//===----------------------------------------------------------------------===//

#include <chrono>
#include <cstdint>
#include <vector>

namespace cheetah {
namespace bench {

double calibrationMs() {
  // Random read-modify-writes over 16 MiB: beyond L2, like the report and
  // store work whose speed it stands in for.
  constexpr size_t Slots = size_t(1) << 21;
  static std::vector<uint64_t> Table(Slots);
  auto Start = std::chrono::steady_clock::now();
  uint64_t X = 0x9e3779b97f4a7c15ull;
  for (uint64_t I = 0; I < 400000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    Table[X & (Slots - 1)] += I;
  }
  auto End = std::chrono::steady_clock::now();
  // Keeps the loop observable so the compiler cannot drop it.
  static volatile uint64_t Sink;
  Sink = Table[X & (Slots - 1)];
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

} // namespace bench
} // namespace cheetah
