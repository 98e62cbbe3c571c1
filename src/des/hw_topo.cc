#include "des/hw_topo.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

namespace sqlb::des {
namespace {

/// Reads a small non-negative integer from a sysfs file; -1 on any failure.
long ReadSysfsLong(const char* path) {
#if defined(__linux__)
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return -1;
  long value = -1;
  if (std::fscanf(f, "%ld", &value) != 1) value = -1;
  std::fclose(f);
  return value;
#else
  (void)path;
  return -1;
#endif
}

}  // namespace

HwTopology HwTopology::Detect() {
  HwTopology topo;
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  topo.cpus.reserve(hardware);

  bool any_detected = false;
  for (unsigned cpu = 0; cpu < hardware; ++cpu) {
    char path[128];
    CpuInfo info;
    info.cpu = cpu;
    std::snprintf(path, sizeof(path),
                  "/sys/devices/system/cpu/cpu%u/topology/physical_package_id",
                  cpu);
    const long socket = ReadSysfsLong(path);
    std::snprintf(path, sizeof(path),
                  "/sys/devices/system/cpu/cpu%u/topology/core_id", cpu);
    const long core = ReadSysfsLong(path);
    if (socket >= 0 && core >= 0) {
      info.socket = static_cast<unsigned>(socket);
      info.core_id = static_cast<unsigned>(core);
      any_detected = true;
    } else {
      // Flat fallback: every CPU its own core on socket 0.
      info.socket = 0;
      info.core_id = cpu;
    }
    topo.cpus.push_back(info);
  }
  topo.detected = any_detected;

  // SMT rank: among the logical CPUs sharing one (socket, core), rank by
  // CPU number. Sockets counted along the way.
  std::map<std::pair<unsigned, unsigned>, unsigned> siblings_seen;
  unsigned max_socket = 0;
  for (CpuInfo& info : topo.cpus) {
    info.smt_rank = siblings_seen[{info.socket, info.core_id}]++;
    max_socket = std::max(max_socket, info.socket);
  }
  topo.num_sockets = static_cast<std::size_t>(max_socket) + 1;
  return topo;
}

std::vector<unsigned> HwTopology::PlacementOrder(bool skip_cpu0) const {
  std::vector<CpuInfo> order = cpus;
  std::stable_sort(order.begin(), order.end(),
                   [](const CpuInfo& a, const CpuInfo& b) {
                     if (a.smt_rank != b.smt_rank) {
                       return a.smt_rank < b.smt_rank;
                     }
                     if (a.socket != b.socket) return a.socket < b.socket;
                     if (a.core_id != b.core_id) return a.core_id < b.core_id;
                     return a.cpu < b.cpu;
                   });
  std::vector<unsigned> result;
  result.reserve(order.size());
  for (const CpuInfo& info : order) {
    if (skip_cpu0 && info.cpu == 0) continue;
    result.push_back(info.cpu);
  }
  return result;
}

unsigned HwTopology::SocketOf(unsigned cpu) const {
  for (const CpuInfo& info : cpus) {
    if (info.cpu == cpu) return info.socket;
  }
  return 0;
}

std::size_t UsableCpuCount() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int count = CPU_COUNT(&mask);
    if (count > 0) return static_cast<std::size_t>(count);
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace sqlb::des
