#ifndef SQLB_DES_HW_TOPO_H_
#define SQLB_DES_HW_TOPO_H_

#include <cstddef>
#include <vector>

/// \file
/// Host CPU topology for placement-aware worker pinning. A blind
/// round-robin over logical CPUs 1..hw-1 would, on a multi-socket or SMT
/// host, interleave lane workers across sockets and double them onto
/// hyperthread siblings before physical cores are exhausted. This module
/// reads the kernel's topology export
/// (/sys/devices/system/cpu/cpu*/topology) and orders logical CPUs so
/// that:
///
///  1. every physical core is used once before any SMT sibling (smt_rank
///     ascending), and
///  2. within one SMT rank, CPUs fill socket by socket (adjacent lane
///     workers land on one socket and share its cache/memory controller —
///     with the pool's static lane schedule, a lane's arena pages are
///     first-touched and re-touched from the same socket every epoch).
///
/// Detection degrades gracefully: when /sys is absent (non-Linux,
/// containers with masked sysfs) every CPU reports socket 0 / distinct
/// cores, and the placement order collapses to that plain round-robin
/// sequence.

namespace sqlb::des {

/// One logical CPU's position in the machine.
struct CpuInfo {
  unsigned cpu = 0;       // logical CPU number (cpuN)
  unsigned socket = 0;    // physical_package_id
  unsigned core_id = 0;   // core_id within the socket
  unsigned smt_rank = 0;  // 0 = first sibling of its core, 1 = second, ...
};

/// The detected host topology.
struct HwTopology {
  std::vector<CpuInfo> cpus;
  std::size_t num_sockets = 1;
  /// True when /sys topology files were readable; false = flat fallback
  /// (socket 0, core_id = cpu, smt_rank 0 for every CPU).
  bool detected = false;

  /// Reads /sys/devices/system/cpu/cpu*/topology for every online CPU.
  static HwTopology Detect();

  /// Logical CPU numbers in pinning order: sorted by (smt_rank, socket,
  /// core_id, cpu), optionally skipping CPU 0 (left to the unpinned
  /// calling thread). Empty when the host has <= 1 usable CPU.
  std::vector<unsigned> PlacementOrder(bool skip_cpu0) const;

  /// Socket of a logical CPU (0 when unknown).
  unsigned SocketOf(unsigned cpu) const;
};

/// CPUs the calling thread may run on (its sched_getaffinity mask; threads
/// it starts inherit the mask), else hardware_concurrency; at least 1.
std::size_t UsableCpuCount();

}  // namespace sqlb::des

#endif  // SQLB_DES_HW_TOPO_H_
