//===- support/Statistics.h - Streaming and batch statistics ----*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small statistics utilities used by the assessment engine and the benchmark
/// harnesses: a streaming mean and an arithmetic mean.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_SUPPORT_STATISTICS_H
#define CHEETAH_SUPPORT_STATISTICS_H

#include <cstdint>
#include <vector>

namespace cheetah {

/// Streaming mean accumulator (Welford's update).
class OnlineStats {
public:
  /// Adds one observation.
  void add(double X);

  /// Number of observations added so far.
  uint64_t count() const { return N; }

  /// Arithmetic mean; 0 when empty.
  double mean() const { return N ? Mean : 0.0; }

private:
  uint64_t N = 0;
  double Mean = 0.0;
};

/// \returns the arithmetic mean of \p Values; 0 for empty input.
double arithmeticMean(const std::vector<double> &Values);

} // namespace cheetah

#endif // CHEETAH_SUPPORT_STATISTICS_H
