#include "des/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "des/simulator.h"

namespace sqlb::des {
namespace {

TEST(WorkerPoolTest, SingleThreadPoolRunsInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.concurrency(), 1u);
  std::vector<int> hits(16, 0);
  pool.ParallelFor(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(WorkerPoolTest, EveryIndexRunsExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.concurrency(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPoolTest, PoolIsReusableAcrossJobs) {
  WorkerPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(64, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 50L * (63 * 64 / 2));
}

TEST(WorkerPoolTest, EmptyAndTinyJobsAreSafe) {
  WorkerPool pool(2);
  pool.ParallelFor(0, [&](std::size_t) { FAIL(); });
  int calls = 0;
  pool.ParallelFor(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(WorkerPoolTest, CoreAffinityIsOptInAndDegradesGracefully) {
  // Off by default: no worker is pinned.
  WorkerPool unpinned(4);
  EXPECT_EQ(unpinned.pinned_workers(), 0u);

  WorkerPoolOptions options;
  options.topology_aware = true;
  WorkerPool pinned(4, options);
  // At most the 3 spawned workers can pin; the exact count depends on the
  // host (single core, cpuset-restricted container, non-Linux platform all
  // legitimately degrade to fewer — construction must never fail).
  EXPECT_LE(pinned.pinned_workers(), 3u);
  if (std::thread::hardware_concurrency() <= 1) {
    EXPECT_EQ(pinned.pinned_workers(), 0u);
  }

  // Pinned or not, the pool still runs every index exactly once.
  std::vector<std::atomic<int>> hits(256);
  pinned.ParallelFor(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(LaneGroupTest, SyncDrainsEveryLaneToTheBarrier) {
  Simulator a, b;
  std::vector<double> fired;
  a.ScheduleAt(1.0, [&](Simulator&) { fired.push_back(1.0); });
  a.ScheduleAt(5.0, [&](Simulator&) { fired.push_back(5.0); });
  b.ScheduleAt(2.0, [&](Simulator&) { fired.push_back(2.0); });
  b.ScheduleAt(9.0, [&](Simulator&) { fired.push_back(9.0); });

  WorkerPool pool(1);  // deterministic interleaving for the test
  std::vector<SimTime> merges;
  std::vector<BarrierKind> kinds;
  LaneGroup group({&a, &b}, &pool, [&](SimTime t, BarrierKind kind) {
    merges.push_back(t);
    kinds.push_back(kind);
  });

  group.SyncTo(4.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(a.Now(), 4.0);
  EXPECT_EQ(b.Now(), 4.0);

  group.DrainAll();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 5.0, 9.0}));
  ASSERT_EQ(merges.size(), 2u);
  EXPECT_EQ(merges[0], 4.0);
  EXPECT_EQ(kinds, (std::vector<BarrierKind>{BarrierKind::kEpoch,
                                             BarrierKind::kEpoch}));
  EXPECT_EQ(group.epoch_syncs(), 2u);
  EXPECT_EQ(group.rebalance_syncs(), 0u);
}

TEST(LaneGroupTest, RebalanceBarriersReportTheirKindToTheMergeHook) {
  Simulator coordinator, lane;
  std::vector<std::string> order;
  lane.ScheduleAt(2.0, [&](Simulator&) { order.push_back("lane@2"); });
  lane.ScheduleAt(4.0, [&](Simulator&) { order.push_back("lane@4"); });
  coordinator.ScheduleBarrierAt(
      3.0, [&](Simulator&) { order.push_back("rebalance@3"); },
      BarrierKind::kRebalance);

  WorkerPool pool(1);
  std::vector<BarrierKind> kinds;
  LaneGroup group({&lane}, &pool,
                  [&](SimTime, BarrierKind kind) { kinds.push_back(kind); });
  coordinator.RunUntilParallel(5.0, group);

  // The rebalance barrier at 3 drains the lane first (lane@2 fires), and
  // the merge hook learns it may re-partition; the closing sync at 5 is a
  // plain epoch.
  EXPECT_EQ(order,
            (std::vector<std::string>{"lane@2", "rebalance@3", "lane@4"}));
  EXPECT_EQ(kinds, (std::vector<BarrierKind>{BarrierKind::kRebalance,
                                             BarrierKind::kEpoch}));
  EXPECT_EQ(group.rebalance_syncs(), 1u);
  EXPECT_EQ(group.epoch_syncs(), 1u);
}

TEST(RunUntilParallelTest, BarriersSyncLanesBeforeFiring) {
  Simulator coordinator, lane;
  std::vector<std::string> order;
  lane.ScheduleAt(3.0, [&](Simulator&) { order.push_back("lane@3"); });
  lane.ScheduleAt(7.0, [&](Simulator&) { order.push_back("lane@7"); });
  coordinator.ScheduleAt(
      5.0, [&](Simulator&) { order.push_back("barrier@5"); },
      /*barrier=*/true);
  coordinator.ScheduleAt(6.0,
                         [&](Simulator&) { order.push_back("plain@6"); });

  WorkerPool pool(1);
  LaneGroup group({&lane}, &pool, nullptr);
  coordinator.RunUntilParallel(10.0, group);

  // The barrier at 5 sees the lane drained to 5 (lane@3 fired); the plain
  // event at 6 does not sync, so lane@7 only fires at the closing sync.
  EXPECT_EQ(order, (std::vector<std::string>{"lane@3", "barrier@5", "plain@6",
                                             "lane@7"}));
  EXPECT_EQ(coordinator.Now(), 10.0);
  EXPECT_EQ(lane.Now(), 10.0);
}

}  // namespace
}  // namespace sqlb::des
