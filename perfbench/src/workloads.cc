#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <thread>
#include <unordered_map>

#ifdef __linux__
#include <sched.h>
#endif

#include "due_join.h"
#include "layers.h"
#include "model/characterization.h"
#include "obs/metrics.h"
#include "runtime/scenario_engine.h"
#include "shard/shard_router.h"
#include "workload/population.h"

namespace perfbench {
namespace {

using Samples = std::map<std::string, std::vector<double>>;

// --- Workload constants -----------------------------------------------------
//
// The Table-2 population (200 consumers, 400 providers) has 20,571 units/s of
// capacity; queries average 140 units, so it serves 146.9 queries per
// simulated second.

// serve-steady: one generator submits a Poisson schedule at a fixed absolute
// rate, well below the knee of two mediator threads. time_scale 272 turns
// 20,000 wall q/s into 73.5 simulated q/s: providers at half capacity.
constexpr double kSteadyRate = 20000.0;
constexpr double kSteadyTimeScale = 272.0;
constexpr double kSteadyRepSeconds = 2.0;

// serve-flood: kFloodQueries per repetition through SubmitMany, at most
// kFloodWindow unmediated at any time (the intake bound is 65,536 per shard,
// so intake never refuses). time_scale is pinned because it moves
// throughput: at 100k q/s the providers run at 3.4% of capacity.
constexpr double kFloodTimeScale = 2e4;
constexpr std::size_t kFloodQueries = 100000;
constexpr std::uint64_t kFloodWindow = 8192;
constexpr std::size_t kFloodChunk = 256;

// des-paper: the paper's 30 -> 100 % ramp over a shortened horizon, one
// scenario per pass.
constexpr double kPaperHorizon = 200.0;
constexpr std::uint64_t kPaperScenarios = 1;

// des-churn: 8 locality-routed shards on 2 strict-parity workers at 0.95
// load; shard 0 is emptied at H/3 and refilled at 2H/3 with rebalancing on;
// seeded random kills plus one fixed kill. One scenario's mean response time
// spreads about 30% (quartiles over median) across seeds, because at 0.95
// load the shards the seed leaves short of capacity queue without bound; a
// pass therefore averages kChurnScenarios scenarios, which brings the
// spread under 10%.
constexpr double kChurnHorizon = 600.0;
constexpr std::uint64_t kChurnScenarios = 12;
constexpr double kChurnLoad = 0.95;
constexpr std::size_t kChurnShards = 8;
constexpr std::size_t kChurnWorkers = 2;
constexpr int kChurnRandomKills = 3;

// Set-ups: a burst after every repetition, each set-up on the next CPU in
// turn, lasting kSetupShare of the repetition's time (at least kMinSetups,
// at most kMaxSetups); setup_s is the first decile of all. A millisecond
// set-up timed in one place swings up to 1.7x between processes on a shared
// host, and its median moved by a third between two sets of runs hours
// apart; bursts spread over the run and over every CPU, and the fast tail,
// even that out.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 400;
constexpr double kSetupShare = 0.05;
// No repetition starts past this many seconds, whatever --seconds says, so
// a run always ends well inside its time limit.
constexpr double kMaxMeasureSeconds = 120.0;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"decision_p50_us", "us"},
    {"serve_qps", "1/s"},       {"sim_qps", "1/s"},
    {"sim_response_s", "sim_s"}, {"cons_allocsat", "ratio"},
    {"success_frac", "ratio"},  {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"gen.late_p50_us", "us"},
    {"gen.late_max_us", "us"},
    {"workload.population_s", "s"},
    {"sqlb.create_s", "s"},
    {"sqlb.start_s", "s"},
    {"sqlb.run_s", "s"},
    {"sqlb.drain_s", "s"},
    {"sqlb.stop_s", "s"},
    {"sqlb.replay_s", "s"},
    {"intake.submit_ns", "ns"},
    {"intake.refused", "count"},
    {"serving.queue_wait_p50_us", "us"},
    {"serving.parks_per_query", "1/query"},
    {"serving.spurious_wake_frac", "ratio"},
    {"serving.mean_burst", "queries"},
    {"serving.batch_wait_p50_s", "sim_s"},
    {"serving.decision_p99_us", "us"},
    {"serving.decision_p999_us", "us"},
    {"serving.sim_response_s", "sim_s"},
    {"score.ns_per_query", "ns"},
    {"score.calls_per_query", "1/query"},
    {"score.share", "ratio"},
    {"mediation.residual_ns_per_query", "ns"},
    {"mediation.candidates_p50", "count"},
    {"shard.handoffs", "count"},
    {"shard.gossip_messages", "count"},
    {"faults.crashes", "count"},
    {"faults.reissued", "count"},
    {"faults.snapshots", "count"},
    {"mem.agent_bytes_per_provider", "B"},
    {"obs.trace_overhead", "ratio"},
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank quantile of an ascending vector.
double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double SecondsBetween(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The first decile (nearest rank) of repeated timings of identical work,
/// such as set-ups or the passes of one deterministic scenario. Interference
/// from the shared host only ever adds time, and on this kind of host it
/// comes in stretches: a whole CPU runs 1.5x slower for seconds, and the
/// share of such stretches differs between runs and hours, which moves a
/// median by that much. The fast tail is what the program itself costs.
/// With fewer than ten samples this is the minimum.
double FirstDecile(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return SortedQuantile(values, 0.1);
}

/// Peak resident set of this process (VmHWM), MiB. Each run is its own
/// process, so this is the workload's own peak.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool IsServing(Workload workload) {
  return workload == Workload::kServeSteady ||
         workload == Workload::kServeFlood;
}

/// Threads that mediate: serving groups, DES workers, or the one thread.
std::size_t MediationThreads(const sqlb::Config& config) {
  switch (config.mode) {
    case sqlb::Mode::kServing:
      return config.serving.mediator_threads;
    case sqlb::Mode::kSharded:
      return std::max<std::size_t>(1, config.sharded.worker_threads);
    case sqlb::Mode::kMono:
      break;
  }
  return 1;
}

/// The driving thread plus every mediator or worker thread the program runs.
std::size_t ThreadsUsed(const sqlb::Config& config) {
  switch (config.mode) {
    case sqlb::Mode::kServing:
      return 1 + config.serving.mediator_threads;
    case sqlb::Mode::kSharded:
      return 1 + config.sharded.worker_threads;
    case sqlb::Mode::kMono:
      break;
  }
  return 1;
}

/// Uniform double in [0, 1) from the top 53 bits.
double Uniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

std::mt19937_64 RepRng(std::uint64_t seed, std::uint64_t rep) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(rep)};
  return std::mt19937_64(seq);
}

/// Moves the driving thread to the next CPU the process may use, `per_cpu`
/// pins per CPU (a traced run's untraced/traced pair of passes shares one),
/// and restores the original mask on Release() or when destroyed. On a
/// shared host each CPU's speed drifts on its own (neighbours on the host's
/// sibling threads), while a lone busy thread stays wherever the scheduler
/// first put it; rotating samples every CPU alike. Threads started while
/// pinned inherit the one-CPU mask, so release before starting any. Inert
/// off Linux.
class CpuRotation {
 public:
  explicit CpuRotation(std::size_t per_cpu) : per_cpu_(per_cpu) {
#ifdef __linux__
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
#endif
  }
  ~CpuRotation() { Release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void PinNext() {
#ifdef __linux__
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[(next_++ / per_cpu_) % cpus_.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
#endif
  }

  void Release() {
#ifdef __linux__
    if (pinned_) sched_setaffinity(0, sizeof(original_), &original_);
    pinned_ = false;
#endif
  }

 private:
  std::size_t per_cpu_;
#ifdef __linux__
  cpu_set_t original_;
#endif
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  bool pinned_ = false;
};

struct Context {
  RunOptions options;
  sqlb::Config config;
  MethodHub hub;
  RunReport* report = nullptr;
  /// Spans of the traced repetitions (trace mode only).
  SpanLog* log = nullptr;
  /// Simulation workloads: the scenarios of one pass, and the first pass's
  /// outputs, which every later pass must reproduce exactly.
  std::vector<sqlb::Config> scenarios;
  std::string reference;
  /// The serving population, rebuilt once for the allocation-quality check.
  std::unique_ptr<sqlb::Population> population;
  std::uint64_t rep = 0;
};

/// Per-call score samples of a traced repetition (nothing when untimed).
void AddScoreSamples(Context& ctx, std::size_t first, std::size_t end,
                     double mediation_wall_s, std::uint64_t queries,
                     Samples* samples) {
  const ScoreStats score = ctx.hub.Total(first, end);
  if (score.queries == 0 || queries == 0) return;
  const double thread_seconds =
      mediation_wall_s * static_cast<double>(MediationThreads(ctx.config));
  const double q = static_cast<double>(queries);
  (*samples)["score.ns_per_query"].push_back(score.seconds / q * 1e9);
  (*samples)["score.calls_per_query"].push_back(
      static_cast<double>(score.calls) / q);
  (*samples)["score.share"].push_back(Ratio(score.seconds, thread_seconds));
  (*samples)["mediation.residual_ns_per_query"].push_back(
      (thread_seconds - score.seconds) / q * 1e9);
  (*samples)["mediation.candidates_p50"].push_back(score.CandidatesP50());
  if (ctx.log != nullptr) {
    for (std::size_t i = first; i < end; ++i) {
      const ScoreStats& stats = *ctx.hub.stats()[i];
      for (const auto& span : stats.spans) {
        ctx.log->AddForeign("score", 1 + static_cast<int>(stats.shard),
                            span.first, span.second);
      }
    }
  }
}

// --- Set-up -------------------------------------------------------------------

/// Population + Create (+ RegisterProducer + Start when serving): from
/// nothing to ready for work. The service is stopped and destroyed after.
/// Each set-up runs on the next CPU in turn; Start runs unpinned, so the
/// mediator threads it starts may use every CPU.
void SetupOnce(Context& ctx, CpuRotation& cpus, Samples* samples) {
  SpanLog* log = ctx.log;
  cpus.PinNext();
  ScopedSpan root(log, "setup");
  const sqlb::runtime::SystemConfig& scenario = ctx.config.scenario();
  const std::int64_t t0 = NowNs();
  {
    ScopedSpan span(log, "workload.population");
    const sqlb::Population population(scenario.population, scenario.seed);
  }
  const std::int64_t t1 = NowNs();
  sqlb::Status status;
  std::unique_ptr<sqlb::Service> service;
  {
    ScopedSpan span(log, "sqlb.create");
    service =
        sqlb::Service::Create(ctx.config, ctx.hub.Factory(false), &status);
  }
  const std::int64_t t2 = NowNs();
  cpus.Release();
  if (service == nullptr) {
    ctx.report->Fail("Service::Create: " + status.ToString());
    return;
  }
  const std::int64_t t3 = NowNs();
  std::int64_t t4 = t3;
  if (IsServing(ctx.options.workload)) {
    {
      ScopedSpan span(log, "sqlb.start");
      service->RegisterProducer();
      service->Start();
    }
    t4 = NowNs();
    ScopedSpan span(log, "sqlb.stop");
    service->Stop();
  }
  {
    ScopedSpan span(log, "sqlb.teardown");
    service.reset();
  }
  (*samples)["workload.population_s"].push_back(SecondsBetween(t0, t1));
  (*samples)["sqlb.create_s"].push_back(SecondsBetween(t1, t2));
  (*samples)["sqlb.start_s"].push_back(SecondsBetween(t3, t4));
  (*samples)["setup_s"].push_back(SecondsBetween(t0, t2) +
                                  SecondsBetween(t3, t4));
}

// --- Simulation workloads -------------------------------------------------------

/// Samples key of one scenario's Run() wall time, one sample per pass.
std::string ScenarioRunKey(std::size_t scenario) {
  return "scenario" + std::to_string(scenario) + ".run_s";
}

DesOutputs Summarize(const sqlb::shard::ShardedRunResult& result) {
  DesOutputs out;
  out.issued = result.run.queries_issued;
  out.completed = result.run.queries_completed;
  out.infeasible = result.run.queries_infeasible;
  out.reissued = result.run.queries_reissued;
  out.response_s = result.run.response_time.mean();
  const sqlb::des::TimeSeries* allocsat = result.run.series.Find(
      sqlb::runtime::ScenarioEngine::kSeriesConsAllocSatMean);
  if (allocsat != nullptr && !allocsat->samples.empty()) {
    out.allocsat = allocsat->samples.back().second;
  }
  return out;
}

/// Every run of one build with one seed must reproduce the simulation
/// outputs exactly: the first run pins them, later runs compare.
void CheckPin(Context& ctx, const std::string& text) {
  if (ctx.options.pin_dir.empty()) return;
  const std::string path = ctx.options.pin_dir + "/" +
                           WorkloadName(ctx.options.workload) + "-" +
                           std::to_string(ctx.options.seed) + ".txt";
  std::ifstream in(path);
  if (in) {
    std::stringstream pinned;
    pinned << in.rdbuf();
    if (pinned.str() != text) {
      ctx.report->Fail("simulation outputs differ from an earlier run of "
                       "this build: " + text + " vs " + pinned.str());
    }
    return;
  }
  std::ofstream out(path);
  out << text;
}

/// One pass over the workload's scenarios: Create + Run each and check it.
/// Quality figures are means over the scenarios; rates use the pass totals.
void DesPass(Context& ctx, bool timed, Samples* samples) {
  SpanLog* log = timed ? ctx.log : nullptr;
  ScopedSpan rep(log, "rep");
  const std::size_t mark = ctx.hub.size();
  std::vector<DesOutputs> outputs;
  std::map<std::string, double> sums;
  double run_s = 0.0;
  for (std::size_t i = 0; i < ctx.scenarios.size(); ++i) {
    const sqlb::Config& config = ctx.scenarios[i];
    sqlb::Status status;
    std::unique_ptr<sqlb::Service> service;
    {
      ScopedSpan span(log, "sqlb.create");
      service = sqlb::Service::Create(config, ctx.hub.Factory(timed), &status);
    }
    if (service == nullptr) {
      ctx.report->Fail("Service::Create: " + status.ToString());
      return;
    }
    sqlb::shard::ShardedRunResult result;
    {
      ScopedSpan span(log, "sqlb.run");
      const std::int64_t start = NowNs();
      result = service->Run();
      const double seconds = SecondsBetween(start, NowNs());
      run_s += seconds;
      (*samples)[ScenarioRunKey(i)].push_back(seconds);
    }
    ScopedSpan verify(log, "verify");
    const DesOutputs out = Summarize(result);
    if (out.completed + out.infeasible + out.reissued != out.issued) {
      ctx.report->Fail("completed + infeasible + reissued != issued (" +
                       out.ToString() + ")");
    }
    if (out.issued == 0 || out.allocsat <= 0.0) {
      ctx.report->Fail("simulation produced no queries or no allocsat series");
    }
    outputs.push_back(out);
    const std::uint64_t presented = out.issued - out.reissued;
    ctx.report->attempted += presented;
    ctx.report->failed += out.infeasible;
    sums["issued"] += static_cast<double>(out.issued);
    sums["sim_response_s"] += out.response_s;
    sums["cons_allocsat"] += out.allocsat;
    sums["success_frac"] +=
        1.0 - Ratio(static_cast<double>(out.infeasible + out.reissued),
                    static_cast<double>(presented));
    sums["shard.handoffs"] += static_cast<double>(result.handoffs_completed);
    sums["shard.gossip_messages"] +=
        static_cast<double>(result.gossip_load_messages);
    sums["faults.crashes"] += static_cast<double>(result.shard_crashes);
    sums["faults.reissued"] += static_cast<double>(result.reissued_queries);
    sums["faults.snapshots"] += static_cast<double>(result.snapshots_taken);
    sums["mem.agent_bytes_per_provider"] +=
        Ratio(static_cast<double>(result.agent_state_bytes),
              static_cast<double>(config.scenario().population.num_providers));
    verify.Close();
    ScopedSpan span(log, "sqlb.teardown");
    service.reset();
  }

  std::string text;
  for (const DesOutputs& out : outputs) text += out.ToString() + "\n";
  if (ctx.reference.empty()) {
    ctx.reference = text;
    CheckPin(ctx, text);
  } else if (text != ctx.reference) {
    ctx.report->Fail("simulation outputs differ between repetitions:\n" +
                     text + "vs\n" + ctx.reference);
  }

  const double scenarios = static_cast<double>(ctx.scenarios.size());
  const double issued = sums["issued"];
  (*samples)["issued"].push_back(issued);
  (*samples)["sqlb.run_s"].push_back(run_s / scenarios);
  (*samples)["overhead_basis"].push_back(run_s);
  for (const char* name :
       {"sim_response_s", "cons_allocsat", "success_frac", "shard.handoffs",
        "shard.gossip_messages", "faults.crashes", "faults.reissued",
        "faults.snapshots", "mem.agent_bytes_per_provider"}) {
    (*samples)[name].push_back(sums[name] / scenarios);
  }
  AddScoreSamples(ctx, mark, ctx.hub.size(), run_s,
                  static_cast<std::uint64_t>(issued), samples);
  std::printf("pass %" PRIu64 "%s: %zu scenario(s), %.0f queries in %.3f s, "
              "rt %.6f, allocsat %.6f\n",
              ctx.rep, timed ? " (traced)" : "", ctx.scenarios.size(), issued,
              run_s, sums["sim_response_s"] / scenarios,
              sums["cons_allocsat"] / scenarios);
}

// --- Serving workloads ----------------------------------------------------------

/// Consumer allocation satisfaction (Definitions 3 and 4 over Eqs. 1-2) of
/// a recorded serving run: per consumer, mean satisfaction over mean
/// adequation across every query it issued, averaged over the consumers.
/// A query's candidate set is its shard's whole provider partition (the
/// serving population is captive).
double ServingAllocSat(const sqlb::Population& population,
                       const sqlb::runtime::ServingTrace& trace,
                       std::size_t shards) {
  const std::size_t consumers = population.num_consumers();
  const std::size_t providers = population.num_providers();
  std::unordered_map<sqlb::QueryId, std::size_t> record_of;
  record_of.reserve(trace.decisions.size());
  const auto& records = trace.decisions.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    record_of[records[i].query] = i;
  }
  // Adequation depends only on (consumer, shard): the candidate set is the
  // shard's whole partition, provider p on shard p % shards.
  std::vector<double> adequation(consumers * shards, -1.0);
  std::vector<double> satisfaction_sum(consumers, 0.0);
  std::vector<double> adequation_sum(consumers, 0.0);
  std::vector<std::uint64_t> count(consumers, 0);
  std::vector<double> intentions;
  for (const sqlb::Query& query : trace.queries) {
    const std::uint32_t c = query.consumer.index();
    const std::size_t s = c % shards;
    double& adq = adequation[c * shards + s];
    if (adq < 0.0) {
      intentions.clear();
      for (std::size_t p = s; p < providers; p += shards) {
        intentions.push_back(population.ConsumerPreference(
            query.consumer, sqlb::ProviderId(static_cast<std::uint32_t>(p))));
      }
      adq = sqlb::QueryAdequation(intentions);
    }
    intentions.clear();
    const auto found = record_of.find(query.id);
    if (found != record_of.end()) {
      for (std::uint32_t p : records[found->second].providers) {
        intentions.push_back(
            population.ConsumerPreference(query.consumer, sqlb::ProviderId(p)));
      }
    }
    satisfaction_sum[c] += sqlb::QuerySatisfaction(intentions, query.n);
    adequation_sum[c] += adq;
    ++count[c];
  }
  double sum = 0.0;
  std::size_t active = 0;
  for (std::size_t c = 0; c < consumers; ++c) {
    if (count[c] == 0) continue;
    const double n = static_cast<double>(count[c]);
    sum += sqlb::AllocationSatisfaction(satisfaction_sum[c] / n,
                                        adequation_sum[c] / n);
    ++active;
  }
  return active > 0 ? sum / static_cast<double>(active) : 0.0;
}

struct PresentStats {
  double submit_seconds = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t refused = 0;
  /// How late each Submit started against its due time, microseconds.
  std::vector<double> late_us;
};

std::vector<PresentedRequest> SteadySchedule(const Context& ctx) {
  const auto& population = ctx.config.scenario().population;
  const std::uint64_t consumers = population.num_consumers;
  const std::uint64_t classes = population.query_class_units.size();
  std::mt19937_64 rng = RepRng(ctx.options.seed, ctx.rep);
  std::vector<PresentedRequest> requests;
  requests.reserve(static_cast<std::size_t>(kSteadyRate * kSteadyRepSeconds *
                                            1.1));
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - Uniform(rng)) / kSteadyRate;
    if (t >= kSteadyRepSeconds) break;
    PresentedRequest request;
    request.consumer = static_cast<std::uint32_t>(rng() % consumers);
    request.class_index = static_cast<std::uint32_t>(rng() % classes);
    request.due = t;
    requests.push_back(request);
  }
  return requests;
}

std::vector<PresentedRequest> FloodRequests(const Context& ctx) {
  const auto& population = ctx.config.scenario().population;
  const std::uint64_t consumers = population.num_consumers;
  const std::uint64_t classes = population.query_class_units.size();
  std::mt19937_64 rng = RepRng(ctx.options.seed, ctx.rep);
  std::vector<PresentedRequest> requests(kFloodQueries);
  for (PresentedRequest& request : requests) {
    request.consumer = static_cast<std::uint32_t>(rng() % consumers);
    request.class_index = static_cast<std::uint32_t>(rng() % classes);
  }
  return requests;
}

/// Open loop: each request is submitted at its due time (relative due
/// times become absolute NowNs() seconds), never retried.
PresentStats PresentSteady(sqlb::Service& service,
                           sqlb::runtime::ServingProducer* producer,
                           std::vector<PresentedRequest>* requests) {
  PresentStats stats;
  stats.late_us.reserve(requests->size());
  const std::int64_t base = NowNs() + 1000000;
  for (PresentedRequest& request : *requests) {
    const std::int64_t due =
        base + static_cast<std::int64_t>(request.due * 1e9);
    for (;;) {
      const std::int64_t now = NowNs();
      if (now >= due) break;
      if (due - now > 200000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 100000));
      }
    }
    const std::int64_t call = NowNs();
    request.accepted =
        service.Submit(producer, request.consumer, request.class_index);
    const std::int64_t ret = NowNs();
    request.due = static_cast<double>(due) * 1e-9;
    request.submit_return = static_cast<double>(ret) * 1e-9;
    stats.submit_seconds += SecondsBetween(call, ret);
    ++stats.calls;
    if (!request.accepted) ++stats.refused;
    stats.late_us.push_back(static_cast<double>(call - due) * 1e-3);
  }
  return stats;
}

/// Offline batch: chunks go through SubmitMany as fast as the outstanding
/// window allows; the generator waits on mediated() rather than retrying a
/// refusal, and a refused request is counted once.
PresentStats PresentFlood(sqlb::Service& service,
                          sqlb::runtime::ServingProducer* producer,
                          std::vector<PresentedRequest>* requests) {
  PresentStats stats;
  std::vector<sqlb::runtime::ServingRequest> chunk(kFloodChunk);
  std::size_t next = 0;
  while (next < requests->size()) {
    const std::uint64_t outstanding =
        producer->submitted() - producer->mediated();
    if (outstanding + kFloodChunk > kFloodWindow) {
      // The window still holds tens of milliseconds of work, so sleeping
      // costs the mediators nothing; spinning here would take a CPU that a
      // mediator may share with it on the host.
      std::this_thread::yield();
      continue;
    }
    const std::size_t count = std::min(kFloodChunk, requests->size() - next);
    for (std::size_t j = 0; j < count; ++j) {
      chunk[j].consumer = (*requests)[next + j].consumer;
      chunk[j].class_index = (*requests)[next + j].class_index;
    }
    const std::int64_t due = NowNs();
    const std::size_t accepted =
        service.SubmitMany(producer, chunk.data(), count);
    const std::int64_t ret = NowNs();
    for (std::size_t j = 0; j < count; ++j) {
      PresentedRequest& request = (*requests)[next + j];
      request.due = static_cast<double>(due) * 1e-9;
      request.submit_return = static_cast<double>(ret) * 1e-9;
      request.accepted = j < accepted;
    }
    stats.submit_seconds += SecondsBetween(due, ret);
    ++stats.calls;
    stats.refused += count - accepted;
    next += count;
  }
  return stats;
}

void ServingRep(Context& ctx, bool timed, Samples* samples) {
  const bool flood = ctx.options.workload == Workload::kServeFlood;
  std::vector<PresentedRequest> requests =
      flood ? FloodRequests(ctx) : SteadySchedule(ctx);
  SpanLog* log = timed ? ctx.log : nullptr;
  ScopedSpan rep(log, "rep");
  const std::size_t mark = ctx.hub.size();
  sqlb::Status status;
  std::unique_ptr<sqlb::Service> service;
  {
    ScopedSpan span(log, "sqlb.create");
    service =
        sqlb::Service::Create(ctx.config, ctx.hub.Factory(timed), &status);
  }
  if (service == nullptr) {
    ctx.report->Fail("Service::Create: " + status.ToString());
    return;
  }
  sqlb::runtime::ServingProducer* producer = nullptr;
  {
    ScopedSpan span(log, "sqlb.start");
    producer = service->RegisterProducer();
    service->Start();
  }
  const std::int64_t present_start = NowNs();
  PresentStats present;
  {
    ScopedSpan span(log, "gen.present");
    present = flood ? PresentFlood(*service, producer, &requests)
                    : PresentSteady(*service, producer, &requests);
    if (log != nullptr) {
      log->AddAggregate("intake.submit", span.id(), present.submit_seconds,
                        present.calls);
    }
  }
  std::int64_t t0 = NowNs();
  {
    ScopedSpan span(log, "sqlb.drain");
    service->Drain();
  }
  std::int64_t t1 = NowNs();
  const double drain_s = SecondsBetween(t0, t1);
  const double present_to_drain_s = SecondsBetween(present_start, t1);
  sqlb::runtime::ServingReport report;
  {
    ScopedSpan span(log, "sqlb.stop");
    report = service->Stop();
  }
  t0 = NowNs();
  const double stop_s = SecondsBetween(t1, t0);
  const std::size_t replay_mark = ctx.hub.size();
  // The replay oracle re-drives the whole repetition through the DES, which
  // costs about as much as serving it: the first repetition and the first
  // traced one are replayed, the rest are checked without it.
  const bool replayed = ctx.rep < 2;
  sqlb::runtime::ServingReplayResult replay;
  if (replayed) {
    ScopedSpan span(log, "sqlb.replay");
    replay = service->Replay();
  }
  t1 = NowNs();
  const double replay_s = SecondsBetween(t0, t1);

  ScopedSpan verify(log, "verify");
  const std::uint64_t presented = requests.size();
  const sqlb::runtime::RunResult& run = report.run;
  if (report.submitted + report.shed != presented ||
      report.shed != present.refused) {
    ctx.report->Fail("intake accounting: submitted + shed != presented");
  }
  if (report.served != report.submitted) {
    ctx.report->Fail("served " + std::to_string(report.served) +
                     " != submitted " + std::to_string(report.submitted));
  }
  if (run.queries_completed + run.queries_infeasible + run.queries_reissued !=
          run.queries_issued ||
      run.queries_issued != report.served) {
    ctx.report->Fail("serving: completed + infeasible + reissued != issued");
  }
  std::string diff;
  if (replayed &&
      !service->trace().decisions.IdenticalTo(replay.decisions, &diff)) {
    ctx.report->Fail("replay decision log differs: " + diff);
  }
  if (replayed && (replay.run.queries_completed +
                       replay.run.queries_infeasible +
                       replay.run.queries_reissued !=
                   replay.run.queries_issued ||
                   replay.run.queries_issued != run.queries_issued)) {
    ctx.report->Fail("replay: completed + infeasible + reissued != issued");
  }
  std::vector<double> latency;
  std::string error;
  if (!JoinDueTimes(requests, service->trace(), ctx.config.serving.time_scale,
                    &latency, &error)) {
    ctx.report->Fail("due-time join: " + error);
  }
  std::vector<double> decision_us;
  decision_us.reserve(latency.size());
  for (std::size_t i = 0; i < latency.size(); ++i) {
    if (requests[i].accepted) decision_us.push_back(latency[i] * 1e6);
  }
  std::sort(decision_us.begin(), decision_us.end());
  std::sort(present.late_us.begin(), present.late_us.end());
  const double allocsat = ServingAllocSat(*ctx.population, service->trace(),
                                          ctx.config.serving.shards);

  ctx.report->attempted += presented;
  ctx.report->failed += present.refused + run.queries_infeasible;
  const double served = static_cast<double>(report.served);
  // The flood has no schedule to wait against (a request is due when the
  // window admits it, so its latency is the window over the throughput):
  // there, as in the simulation workloads, the figure is the wall time one
  // decision costs.
  (*samples)["decision_p50_us"].push_back(
      flood ? present_to_drain_s / served * 1e6
            : SortedQuantile(decision_us, 0.5));
  (*samples)["serving.decision_p99_us"].push_back(
      SortedQuantile(decision_us, 0.99));
  (*samples)["serving.decision_p999_us"].push_back(
      SortedQuantile(decision_us, 0.999));
  (*samples)["gen.late_p50_us"].push_back(SortedQuantile(present.late_us, 0.5));
  (*samples)["gen.late_max_us"].push_back(
      present.late_us.empty() ? 0.0 : present.late_us.back());
  (*samples)["serve_qps"].push_back(served / present_to_drain_s);
  (*samples)["sim_qps"].push_back(Ratio(served, report.wall_seconds));
  (*samples)["sim_response_s"].push_back(run.response_time.mean());
  (*samples)["serving.sim_response_s"].push_back(run.response_time.mean());
  (*samples)["cons_allocsat"].push_back(allocsat);
  (*samples)["success_frac"].push_back(
      1.0 - Ratio(static_cast<double>(present.refused + run.queries_infeasible),
                  static_cast<double>(presented)));
  (*samples)["sqlb.drain_s"].push_back(drain_s);
  (*samples)["sqlb.stop_s"].push_back(stop_s);
  if (replayed) (*samples)["sqlb.replay_s"].push_back(replay_s);
  (*samples)["intake.submit_ns"].push_back(
      present.submit_seconds / static_cast<double>(presented) * 1e9);
  (*samples)["intake.refused"].push_back(static_cast<double>(present.refused));
  (*samples)["serving.queue_wait_p50_us"].push_back(
      report.intake_wall.Quantile(0.5) * 1e6);
  (*samples)["serving.parks_per_query"].push_back(
      Ratio(static_cast<double>(report.idle_parks), served));
  (*samples)["serving.spurious_wake_frac"].push_back(
      Ratio(static_cast<double>(report.spurious_wakes),
            static_cast<double>(report.idle_parks)));
  (*samples)["serving.mean_burst"].push_back(
      Ratio(served, static_cast<double>(report.bursts)));
  const sqlb::obs::Histogram* batch_wait =
      run.metrics.FindHistogram(sqlb::obs::kMetricBatchWait);
  (*samples)["serving.batch_wait_p50_s"].push_back(
      batch_wait != nullptr ? batch_wait->Quantile(0.5) : 0.0);
  (*samples)["overhead_basis"].push_back(
      flood ? present_to_drain_s : SortedQuantile(decision_us, 0.5));
  AddScoreSamples(ctx, mark, replay_mark, report.wall_seconds, report.served,
                  samples);
  std::printf("rep %" PRIu64 "%s: %" PRIu64 " presented, %.0f q/s to drain, "
              "decision p50 %.2f us p99 %.2f us, refused %" PRIu64 ", rt %.4f\n",
              ctx.rep, timed ? " (traced)" : "", presented,
              served / present_to_drain_s, SortedQuantile(decision_us, 0.5),
              SortedQuantile(decision_us, 0.99), present.refused,
              run.response_time.mean());
  verify.Close();
  {
    ScopedSpan span(log, "sqlb.teardown");
    service.reset();
  }
}

void PrintMetric(const Metric& metric) {
  std::printf("metric %-34s %.6g %s\n", metric.name.c_str(), metric.value,
              metric.unit.c_str());
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kServeSteady:
      return "serve-steady";
    case Workload::kServeFlood:
      return "serve-flood";
    case Workload::kDesPaper:
      return "des-paper";
    case Workload::kDesChurn:
      return "des-churn";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* workload) {
  for (Workload w : {Workload::kServeSteady, Workload::kServeFlood,
                     Workload::kDesPaper, Workload::kDesChurn}) {
    if (name == WorkloadName(w)) {
      *workload = w;
      return true;
    }
  }
  return false;
}

sqlb::Config MakeConfig(Workload workload, std::uint64_t seed) {
  sqlb::Config config;
  sqlb::runtime::SystemConfig& scenario = config.scenario();
  scenario.seed = seed;
  switch (workload) {
    case Workload::kServeSteady:
    case Workload::kServeFlood:
      config.mode = sqlb::Mode::kServing;
      scenario.record_series = false;
      // The default 500 simulated seconds would discard most of a
      // repetition (a 2 s steady repetition is 544 simulated seconds).
      scenario.stats_warmup = 50.0;
      config.serving.shards = 4;
      config.serving.mediator_threads = 2;
      config.serving.batch_window = 0.0;
      if (workload == Workload::kServeSteady) {
        config.serving.time_scale = kSteadyTimeScale;
      } else {
        config.serving.time_scale = kFloodTimeScale;
        config.serving.max_burst = 256;
      }
      break;
    case Workload::kDesPaper:
      config.mode = sqlb::Mode::kMono;
      scenario.workload = sqlb::runtime::WorkloadSpec::Ramp(0.3, 1.0);
      scenario.duration = kPaperHorizon;
      scenario.stats_warmup = 0.05 * kPaperHorizon;
      break;
    case Workload::kDesChurn: {
      config.mode = sqlb::Mode::kSharded;
      scenario.workload = sqlb::runtime::WorkloadSpec::Constant(kChurnLoad);
      scenario.duration = kChurnHorizon;
      scenario.stats_warmup = 0.1 * kChurnHorizon;
      scenario.agent_pool.enabled = true;
      config.sharded.router.num_shards = kChurnShards;
      config.sharded.router.policy = sqlb::shard::RoutingPolicy::kLocality;
      config.sharded.parity = sqlb::shard::ParityMode::kStrict;
      config.sharded.worker_threads = kChurnWorkers;
      config.sharded.rerouting_enabled = false;  // parallel lanes need it off
      config.sharded.rebalance_enabled = true;
      scenario.provider_churn = sqlb::shard::ShardChurnSchedule(
          config.sharded.router, /*shard=*/0,
          scenario.population.num_providers, kChurnHorizon / 3.0,
          2.0 * kChurnHorizon / 3.0);
      // A fixed number of seeded kills (a Poisson count would make the
      // workload's size vary with the seed), plus one fixed kill.
      std::mt19937_64 rng = RepRng(seed, ~0ull);
      sqlb::runtime::FaultSchedule faults;
      const double first = scenario.stats_warmup;
      const double last = kChurnHorizon - 100.0;
      for (int k = 0; k < kChurnRandomKills; ++k) {
        faults.Append(sqlb::runtime::FaultSchedule::KillAt(
            first + (last - first) * Uniform(rng),
            static_cast<std::uint32_t>(rng() % kChurnShards)));
      }
      faults.Append(
          sqlb::runtime::FaultSchedule::KillAt(kChurnHorizon / 2.0, 3));
      scenario.shard_faults = faults;
      break;
    }
  }
  return config;
}

bool DesOutputs::operator==(const DesOutputs& other) const {
  return issued == other.issued && completed == other.completed &&
         infeasible == other.infeasible && reissued == other.reissued &&
         response_s == other.response_s && allocsat == other.allocsat;
}

std::string DesOutputs::ToString() const {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "issued %" PRIu64 " completed %" PRIu64 " infeasible %" PRIu64
                " reissued %" PRIu64 " rt %a allocsat %a",
                issued, completed, infeasible, reissued, response_s,
                allocsat);
  return buffer;
}

DesOutputs RunSimulation(const sqlb::Config& config,
                         const sqlb::Service::MethodFactory& factory) {
  std::unique_ptr<sqlb::Service> service =
      sqlb::Service::Create(config, factory);
  return Summarize(service->Run());
}

RunReport RunWorkload(const RunOptions& options) {
  RunReport report;
  Context ctx;
  ctx.options = options;
  // A simulation pass runs scenarios seed * K + i, i < K.
  const std::uint64_t scenarios =
      options.workload == Workload::kDesPaper   ? kPaperScenarios
      : options.workload == Workload::kDesChurn ? kChurnScenarios
                                                : 1;
  for (std::uint64_t i = 0; i < scenarios; ++i) {
    ctx.scenarios.push_back(
        MakeConfig(options.workload, options.seed * scenarios + i));
  }
  ctx.config = ctx.scenarios.front();
  ctx.report = &report;
  SpanLog log;
  if (options.trace) ctx.log = &log;

  const sqlb::Status valid = ctx.config.Validate();
  if (!valid.ok()) {
    report.Fail("invalid config: " + valid.ToString());
    return report;
  }
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const std::size_t threads = ThreadsUsed(ctx.config);
  std::printf("workload %s seed %" PRIu64 ": %zu threads used, "
              "hardware_threads %u\n",
              WorkloadName(options.workload), options.seed, threads,
              hardware_threads);
  if (threads > hardware_threads) {
    report.Fail("the workload needs " + std::to_string(threads) +
                " threads but the host has " +
                std::to_string(hardware_threads));
  }
  const sqlb::runtime::SystemConfig& scenario = ctx.config.scenario();
  if (IsServing(options.workload)) {
    ctx.population = std::make_unique<sqlb::Population>(scenario.population,
                                                        scenario.seed);
    const double capacity_qps = ctx.population->total_capacity() /
                                ctx.population->mean_query_units();
    if (options.workload == Workload::kServeSteady) {
      std::printf("offered %.0f q/s, time_scale %.0f: providers at %.3f of "
                  "simulated capacity\n",
                  kSteadyRate, kSteadyTimeScale,
                  kSteadyRate / kSteadyTimeScale / capacity_qps);
    } else {
      std::printf("%zu queries per repetition, window %" PRIu64
                  ", time_scale %.0f (capacity %.1f simulated q/s)\n",
                  kFloodQueries, kFloodWindow, kFloodTimeScale, capacity_qps);
    }
  }


  // Measured repetitions; traced runs alternate untraced and traced ones
  // so obs.trace_overhead compares like with like.
  Samples untraced;
  Samples traced;
  Samples setup;
  int setup_root = -1;
  CpuRotation setup_cpus(1);
  // Only a run that is one thread end to end may be pinned: threads the
  // program starts would inherit the one-CPU mask.
  std::optional<CpuRotation> rotation;
  if (ctx.config.mode == sqlb::Mode::kMono) rotation.emplace(2);
  const std::int64_t start = NowNs();
  int first_traced_root = -1;
  while (report.correct()) {
    const double elapsed = SecondsBetween(start, NowNs());
    const bool enough = ctx.rep >= (options.trace ? 2u : 1u) &&
                        elapsed >= options.seconds;
    if (enough || (ctx.rep > 0 && elapsed >= kMaxMeasureSeconds)) break;
    const bool timed = options.trace && ctx.rep % 2 == 1;
    if (timed && first_traced_root < 0) {
      first_traced_root = static_cast<int>(log.size());
    }
    Samples* samples = timed ? &traced : &untraced;
    const std::int64_t rep_start = NowNs();
    if (IsServing(options.workload)) {
      ServingRep(ctx, timed, samples);
    } else {
      if (rotation) rotation->PinNext();
      DesPass(ctx, timed, samples);
    }
    ++ctx.rep;
    if (setup_root < 0) setup_root = static_cast<int>(log.size());
    const std::int64_t burst_start = NowNs();
    const double burst_s = kSetupShare * SecondsBetween(rep_start, burst_start);
    for (int k = 0; k < kMaxSetups && report.correct(); ++k) {
      if (k >= kMinSetups && SecondsBetween(burst_start, NowNs()) >= burst_s) {
        break;
      }
      SetupOnce(ctx, setup_cpus, &setup);
    }
  }
  rotation.reset();
  // A simulation pass repeats identical work, so each scenario costs the
  // first decile of its passes, and the rates follow from their sum.
  if (!IsServing(options.workload) && !untraced["issued"].empty()) {
    double run_s = 0.0;
    for (std::size_t i = 0; i < ctx.scenarios.size(); ++i) {
      run_s += FirstDecile(untraced[ScenarioRunKey(i)]);
    }
    const double issued = untraced["issued"].front();
    untraced["sim_qps"] = {issued / run_s};
    untraced["serve_qps"] = {issued / run_s};
    untraced["decision_p50_us"] = {run_s / issued * 1e6};
  }
  {
    std::vector<double> sorted = setup["setup_s"];
    std::sort(sorted.begin(), sorted.end());
    std::printf("set-up: %zu runs, min %.6f s, p10 %.6f s, median %.6f s\n",
                sorted.size(), sorted.empty() ? 0.0 : sorted.front(),
                SortedQuantile(sorted, 0.1), SortedQuantile(sorted, 0.5));
  }

  for (const MetricSpec& spec : kEndToEnd) {
    if (options.trace) break;
    Metric metric{spec.name, 0.0, spec.unit};
    if (metric.name == "setup_s") {
      metric.value = FirstDecile(setup["setup_s"]);
    } else if (metric.name == "peak_rss_mb") {
      metric.value = PeakRssMb();
    } else {
      metric.value = Median(untraced[metric.name]);
    }
    if (!(std::isfinite(metric.value) && metric.value > 0.0) &&
        report.correct()) {
      report.Fail("end-to-end metric " + metric.name + " is not positive");
    }
    report.metrics.push_back(metric);
  }
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      Metric metric{spec.name, 0.0, spec.unit};
      if (metric.name == "obs.trace_overhead") {
        metric.value = Ratio(Median(traced["overhead_basis"]),
                             Median(untraced["overhead_basis"])) -
                       1.0;
      } else if (setup.count(metric.name) != 0) {
        metric.value = FirstDecile(setup[metric.name]);
      } else {
        metric.value = Median(traced[metric.name]);
      }
      report.metrics.push_back(metric);
    }
    if (setup_root >= 0) {
      std::printf("\nset-up layers (first set-up):\n");
      log.PrintLayerTable(setup_root);
    }
    if (first_traced_root >= 0) {
      std::printf("\nrepetition layers (first traced repetition):\n");
      const double untimed = log.PrintLayerTable(first_traced_root);
      if (untimed > 0.05) {
        std::printf("closure warning: %.1f%% of the repetition is untimed\n",
                    100.0 * untimed);
      }
      const double score = Median(traced["score.share"]);
      std::printf("mediation threads: score %.2f%% + residual %.2f%% = 100%% "
                  "of %zu thread(s)\n",
                  100.0 * score, 100.0 * (1.0 - score),
                  MediationThreads(ctx.config));
    }
    if (!options.trace_file.empty()) {
      if (log.Write(options.trace_file)) {
        std::printf("spans written to %s\n", options.trace_file.c_str());
      } else {
        report.Fail("cannot write " + options.trace_file);
      }
    }
  }
  std::printf("\n");
  for (const Metric& metric : report.metrics) PrintMetric(metric);
  for (const std::string& failure : report.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  return report;
}

}  // namespace perfbench
