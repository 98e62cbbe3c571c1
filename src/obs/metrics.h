#ifndef SQLB_OBS_METRICS_H_
#define SQLB_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

/// \file
/// The metrics half of the observability layer (src/obs/): named counters,
/// gauges and fixed-geometry log-scale latency histograms, grouped into a
/// MetricsRegistry.
///
/// Registries are built for deterministic parallel simulation, not for a
/// concurrent scrape path: every lane of the sharded tier owns one registry
/// (single writer, no atomics, no shared cache lines) and the run-level
/// snapshot is produced by folding the per-lane registries in a fixed order
/// at the end of the run. Because every histogram shares one global bucket
/// geometry, the fold is an elementwise add — associative and commutative
/// on the integer state (bucket counts, value counts, min/max), which is
/// what makes the merged snapshot independent of how the work was split
/// across lanes (pinned in tests/obs/metrics_test.cc).

namespace sqlb::obs {

/// Monotonic event count. Plain state, single-writer by construction.
class Counter {
 public:
  void Inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void Merge(const Counter& other) { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value. Merge keeps the other's value when
/// this gauge was never set (per-lane gauges are disjoint by naming
/// convention, so a fold never overwrites a live value).
class Gauge {
 public:
  void Set(double v) {
    value_ = v;
    set_ = true;
  }
  double value() const { return value_; }
  bool set() const { return set_; }
  void Merge(const Gauge& other) {
    if (!set_ && other.set_) {
      value_ = other.value_;
      set_ = true;
    }
  }

 private:
  double value_ = 0.0;
  bool set_ = false;
};

/// Fixed-geometry log-scale histogram over positive values.
///
/// All instances share one bucket layout — kBuckets buckets log-spaced over
/// [kMinValue, kMaxValue), with everything below the range folded into
/// bucket 0 and everything at or above it into the last bucket — so Merge
/// is an elementwise add of bucket counts plus exact min/max/count
/// combination: associative and commutative on everything a Quantile
/// readout consumes. The per-bucket relative resolution is
/// (kMaxValue/kMinValue)^(1/kBuckets) - 1 (~11% at the defaults), which is
/// the quantile error bound.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 256;
  static constexpr double kMinValue = 1e-6;
  static constexpr double kMaxValue = 1e6;

  void Record(double value);
  void Merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  /// The q-quantile (0 <= q <= 1) estimated from the bucket counts:
  /// geometric interpolation inside the target bucket, clamped to the exact
  /// observed [min, max]. 0 when empty.
  double Quantile(double q) const;

  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }

  /// Bucket index `value` falls into (range clamped).
  static std::size_t BucketIndex(double value);
  /// Lower/upper value bound of bucket `i`.
  static double BucketLowerBound(std::size_t i);
  static double BucketUpperBound(std::size_t i);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Named counters, gauges and histograms. Lookup is by name (std::map, so
/// every iteration — merges, JSON dumps — runs in one deterministic order);
/// hot paths call Get* once and keep the reference, which stays valid for
/// the registry's lifetime (map nodes are stable).
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name) { return counters_[name]; }
  Gauge& GetGauge(const std::string& name) { return gauges_[name]; }
  Histogram& GetHistogram(const std::string& name) {
    return histograms_[name];
  }

  /// Read-only lookups that do not create the metric: the zero-state value
  /// when absent, so reporting code never mutates the registry.
  std::uint64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;
  /// Quantile of `name`, 0 when the histogram is absent or empty.
  double HistogramQuantile(const std::string& name, double q) const;

  /// Folds `other` into this registry (counters add, gauges fill-if-unset,
  /// histograms merge elementwise). The per-lane fold of the sharded tier.
  void MergeFrom(const MetricsRegistry& other);

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Renders the whole registry as one JSON object:
  /// {"counters": {name: value}, "gauges": {name: value},
  ///  "histograms": {name: {count, sum, min, max, mean, p50, p90, p99,
  ///                        p999, buckets: [[lower_bound, count], ...]}}}
  /// (bucket list holds only the non-empty buckets). Key order is the map
  /// order — deterministic across runs.
  std::string ToJson() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

// ---------------------------------------------------------------------------
// Canonical metric names across the mediation stack. Every layer that
// records into a registry names its metrics from this list, so benches,
// tests and the JSON snapshot all read one vocabulary.
// ---------------------------------------------------------------------------

// Latency histograms (seconds, simulated time).
inline constexpr const char kMetricResponseTime[] = "rt.response_seconds";
inline constexpr const char kMetricBatchWait[] = "batch.wait_seconds";
inline constexpr const char kMetricHandoffDrain[] = "handoff.drain_seconds";
inline constexpr const char kMetricGossipStaleness[] =
    "gossip.staleness_seconds";
// Mediation cost proxy: candidates characterized + scored per query
// (Algorithm 1's per-query work is proportional to |P_q|).
inline constexpr const char kMetricMediationCandidates[] =
    "mediation.candidates_per_query";
// Availability penalty per re-issued query: re-issue time minus original
// issue time (the time the query spent bound to a mediator that died).
inline constexpr const char kMetricReissueDelay[] =
    "failover.reissue_delay_seconds";

// Counters.
inline constexpr const char kMetricBatchFlushes[] = "batch.flushes";
inline constexpr const char kMetricBatchedQueries[] = "batch.queries";
inline constexpr const char kMetricReroutes[] = "route.reroutes";
inline constexpr const char kMetricRerouteRescues[] = "route.rescues";
inline constexpr const char kMetricStaleFallbacks[] = "route.stale_fallbacks";
inline constexpr const char kMetricEpochLaggedReports[] =
    "gossip.epoch_lagged_reports";
inline constexpr const char kMetricRebalancesDamped[] = "rebalance.damped";
inline constexpr const char kMetricRingRebalances[] = "rebalance.applied";
inline constexpr const char kMetricHandoffsStarted[] = "handoff.started";
inline constexpr const char kMetricHandoffsCompleted[] = "handoff.completed";
inline constexpr const char kMetricHandoffsCancelled[] = "handoff.cancelled";

// Failover accounting (runtime/faults.h). The reissued total satisfies
// completed + infeasible + reissued == issued under any kill schedule.
inline constexpr const char kMetricShardCrashes[] = "failover.shard_crashes";
inline constexpr const char kMetricReissuedQueries[] =
    "failover.reissued_queries";
// Per-reason re-issue counters: "failover.reissued.in_flight",
// "failover.reissued.intake" (the ReissueReasonName suffix is appended).
inline constexpr const char kMetricReissuedPrefix[] = "failover.reissued.";
// Providers a survivor adopted from a snapshot (baselines restored) vs
// re-admitted fresh (crashed before their first snapshot).
inline constexpr const char kMetricRestoredProviders[] =
    "failover.restored_providers";
inline constexpr const char kMetricOrphanedProviders[] =
    "failover.orphaned_providers";
// Drain-retry ticks where a dead shard's provider still had in-flight work.
inline constexpr const char kMetricFailoverDrainTicks[] =
    "failover.drain_ticks";
// Completions suppressed because their dispatching incarnation crashed.
inline constexpr const char kMetricDroppedCompletions[] =
    "failover.dropped_completions";
// Crash-consistent snapshots exported at barriers.
inline constexpr const char kMetricSnapshots[] = "failover.snapshots";

// Message substrate (msg/network.h) — surfaced so network loss is visible
// to the single-source-of-truth metrics layer.
inline constexpr const char kMetricNetSent[] = "net.sent";
inline constexpr const char kMetricNetDelivered[] = "net.delivered";
inline constexpr const char kMetricNetDropped[] = "net.dropped";
inline constexpr const char kMetricNetInjectedDrops[] = "net.injected_drops";
inline constexpr const char kMetricNetInjectedDelays[] =
    "net.injected_delays";
// Ring-epoch re-announcements to shards whose gossiped epoch lags (the
// retry half of "gossip retry + epoch-lagged fallback").
inline constexpr const char kMetricGossipRingRetries[] =
    "gossip.ring_retries";
// Load-report messages put on the wire per run (every hop counts one:
// origin sends and hierarchical relay forwards alike). The scale gate
// bounds this at O(M log M) per gossip round.
inline constexpr const char kMetricGossipLoadMessages[] =
    "gossip.load_messages";
// Hierarchical-topology relay traffic: reports forwarded hop-by-hop
// through aggregator shards, and reports dropped because their relay
// shard was dead at delivery time (the origin keeps reporting; the next
// round's tree routes around the corpse).
inline constexpr const char kMetricGossipRelayForwards[] =
    "gossip.relay_forwards";
inline constexpr const char kMetricGossipRelayDrops[] =
    "gossip.relay_drops";

// Per-shard gauges (the shard index is appended: "batch.window.0", ...).
inline constexpr const char kMetricBatchWindowPrefix[] = "batch.window.";

// Wall-clock serving tier (runtime/serving_mediator.h): enqueue ->
// mediation wall latency, folded over the per-producer histograms at Stop.
inline constexpr const char kMetricServingIntakeWall[] =
    "serving.intake_wall_seconds";
// Idle-parking accounting of the serving mediator groups: how many times a
// group thread parked on its condvar after its poll window passed with no
// work, and how many wakeups found the queues still empty (a produce that
// raced the park, or a notification for work another pass already
// drained). Folded over every group at Stop.
inline constexpr const char kMetricServingIdleParks[] = "serving.idle_parks";
inline constexpr const char kMetricServingSpuriousWakes[] =
    "serving.spurious_wakes";
// CPU time the mediator group threads used (CLOCK_THREAD_CPUTIME_ID, read
// by each thread as its loop exits), summed over the groups at Stop: the
// cost side of polling instead of parking.
inline constexpr const char kMetricServingMediatorCpu[] =
    "serving.mediator_cpu_ns";

}  // namespace sqlb::obs

#endif  // SQLB_OBS_METRICS_H_
