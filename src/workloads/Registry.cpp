//===- workloads/Registry.cpp - Workload registry --------------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/Workload.h"

#include "workloads/Workloads.h"

using namespace cheetah;
using namespace cheetah::workloads;

std::vector<std::unique_ptr<Workload>>
cheetah::workloads::createAllWorkloads() {
  std::vector<std::unique_ptr<Workload>> All;
  appendPhoenixWorkloads(All);
  appendParsecWorkloads(All);
  appendMicroWorkloads(All);
  appendNumaWorkloads(All);
  return All;
}

std::unique_ptr<Workload>
cheetah::workloads::createWorkload(const std::string &Name) {
  for (auto &Workload : createAllWorkloads())
    if (Workload->name() == Name)
      return std::move(Workload);
  return nullptr;
}
