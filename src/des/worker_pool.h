#ifndef SQLB_DES_WORKER_POOL_H_
#define SQLB_DES_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

/// \file
/// Fixed worker-thread pool behind the epoch-stepped parallel execution mode
/// (Simulator::RunUntilParallel). One pool is raised per run and reused for
/// every epoch, so the per-barrier cost is a condition-variable round trip,
/// not thread creation.

namespace sqlb::des {

struct WorkerPoolOptions {
  /// Placement-aware pinning (des/hw_topo.h): each spawned worker is pinned
  /// to one CPU along the detected topology's placement order — every
  /// physical core before any SMT sibling, one socket filled before the
  /// next, CPU 0 left to the calling thread — so a lane worker stops
  /// migrating and adjacent workers share a socket's cache and memory
  /// controller. When /sys topology is unreadable the order is a plain
  /// round-robin over CPUs 1..hw-1. Opt-in and Linux-only — silently inert
  /// on other platforms and on hosts with a single CPU. The calling thread
  /// is never pinned (it belongs to the application).
  bool topology_aware = false;

  /// Deterministic index->thread schedule for ParallelFor: index i always
  /// runs on pool thread i % concurrency (the caller is thread 0) instead
  /// of atomic work-stealing. With topology-aware pinning this keeps every
  /// lane on the same socket across epochs, so its first-touch arena pages
  /// stay local; without it, page homing decays as lanes migrate between
  /// sockets. Costs load balance when per-index work is uneven.
  bool static_schedule = false;
};

/// A fixed set of worker threads executing index-based parallel-for jobs.
///
/// `concurrency` is the total number of threads that work on a job,
/// including the calling thread: a pool of concurrency C spawns C - 1
/// workers, and ParallelFor(n, fn) runs fn(0) ... fn(n-1) across all C.
/// With concurrency <= 1 no thread is spawned and jobs run inline, which
/// keeps the parallel code path exercisable (and deterministic to test)
/// on a single-core host.
class WorkerPool {
 public:
  explicit WorkerPool(std::size_t concurrency,
                      const WorkerPoolOptions& options = {});
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Threads participating in each job (callers + workers), >= 1.
  std::size_t concurrency() const { return workers_.size() + 1; }

  /// Workers successfully pinned to a core (0 when pinning is off, not
  /// supported on this platform, or every pthread_setaffinity_np failed).
  std::size_t pinned_workers() const { return pinned_workers_; }

  /// Runs fn(i) for i in [0, count), potentially concurrently, and returns
  /// once every call finished. Indices are handed out atomically, so an
  /// uneven per-index cost still balances. Must not be called reentrantly
  /// from inside a job.
  void ParallelFor(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Socket each pool thread was pinned to (index 0 = the calling thread,
  /// always socket 0 / unpinned; workers follow). Used by tests and by
  /// NUMA-aware callers that want to home per-lane memory.
  const std::vector<unsigned>& thread_sockets() const {
    return thread_sockets_;
  }

 private:
  void WorkerLoop(std::size_t rank);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for a new generation
  std::condition_variable done_cv_;  // caller waits for workers to finish
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_count_ = 0;
  std::uint64_t generation_ = 0;
  std::size_t active_workers_ = 0;
  bool shutdown_ = false;
  std::atomic<std::size_t> next_index_{0};
  std::vector<std::thread> workers_;
  std::size_t pinned_workers_ = 0;
  bool static_schedule_ = false;
  std::vector<unsigned> thread_sockets_;
};

}  // namespace sqlb::des

#endif  // SQLB_DES_WORKER_POOL_H_
