//===- support/Statistics.cpp - Streaming and batch statistics -----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Statistics.h"

using namespace cheetah;

void OnlineStats::add(double X) {
  ++N;
  double Delta = X - Mean;
  Mean += Delta / static_cast<double>(N);
}

double cheetah::arithmeticMean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}
