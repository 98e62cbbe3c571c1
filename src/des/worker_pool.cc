#include "des/worker_pool.h"

#include "des/hw_topo.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace sqlb::des {
namespace {

/// Pins `thread` to `core` (Linux). Returns false when unsupported or the
/// kernel refused (cpuset restrictions, core offline) — callers degrade to
/// unpinned workers, never fail the run.
bool PinThreadToCore(std::thread& thread, std::size_t core) {
#if defined(__linux__)
  cpu_set_t cpuset;
  CPU_ZERO(&cpuset);
  CPU_SET(core % CPU_SETSIZE, &cpuset);
  return pthread_setaffinity_np(thread.native_handle(), sizeof(cpuset),
                                &cpuset) == 0;
#else
  (void)thread;
  (void)core;
  return false;
#endif
}

}  // namespace

WorkerPool::WorkerPool(std::size_t concurrency,
                       const WorkerPoolOptions& options)
    : static_schedule_(options.static_schedule) {
  const std::size_t spawned = concurrency > 1 ? concurrency - 1 : 0;
  workers_.reserve(spawned);
  thread_sockets_.assign(spawned + 1, 0);  // slot 0 = the calling thread
  const unsigned hardware = std::thread::hardware_concurrency();

  // Topology-aware placement order, computed once. Empty when the mode is
  // off or the host has a single CPU: then no worker is pinned.
  std::vector<unsigned> placement;
  HwTopology topo;
  if (options.topology_aware && hardware > 1) {
    topo = HwTopology::Detect();
    placement = topo.PlacementOrder(/*skip_cpu0=*/true);
  }

  for (std::size_t i = 0; i < spawned; ++i) {
    const std::size_t rank = i + 1;  // rank 0 is the caller
    workers_.emplace_back([this, rank] { WorkerLoop(rank); });
    if (!placement.empty()) {
      const unsigned cpu = placement[i % placement.size()];
      if (PinThreadToCore(workers_.back(), cpu)) {
        ++pinned_workers_;
        thread_sockets_[rank] = topo.SocketOf(cpu);
      }
    }
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void WorkerPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  if (workers_.empty() || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    job_count_ = count;
    next_index_.store(0, std::memory_order_relaxed);
    active_workers_ = workers_.size();
    ++generation_;
  }
  work_cv_.notify_all();

  // The caller is one of the pool's threads: rank 0. Under the static
  // schedule it owns indices i with i % concurrency == 0; otherwise it
  // grabs indices from the shared counter like everyone.
  if (static_schedule_) {
    const std::size_t stride = concurrency();
    for (std::size_t i = 0; i < count; i += stride) fn(i);
  } else {
    std::size_t i;
    while ((i = next_index_.fetch_add(1, std::memory_order_relaxed)) < count) {
      fn(i);
    }
  }

  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return active_workers_ == 0; });
  job_ = nullptr;
}

void WorkerPool::WorkerLoop(std::size_t rank) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    std::size_t count = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this, seen_generation] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      job = job_;
      count = job_count_;
    }
    if (static_schedule_) {
      // Fixed stride by thread rank: index i always runs on the same
      // thread across epochs, so a lane's memory stays where it was
      // first touched.
      const std::size_t stride = workers_.size() + 1;
      for (std::size_t i = rank; i < count; i += stride) (*job)(i);
    } else {
      std::size_t i;
      while ((i = next_index_.fetch_add(1, std::memory_order_relaxed)) <
             count) {
        (*job)(i);
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_workers_ == 0) done_cv_.notify_one();
    }
  }
}

}  // namespace sqlb::des
