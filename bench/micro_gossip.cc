// Microbenchmarks: gossip dissemination topologies (shard/gossip_topology.h)
// over the real message runtime (msg/network.h). One "round" is every live
// shard getting its load report to the router: the k-ary hierarchical tree
// relays O(M log M) messages, direct is the M-message legacy baseline.
// Items processed = messages, so the items/sec column is dissemination
// throughput and the per-iteration wall time is the kernel + network cost
// of one round.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "des/simulator.h"
#include "msg/network.h"
#include "shard/gossip_topology.h"

namespace sqlb::shard {
namespace {

constexpr std::uint32_t kLoadReportKind = 1;
constexpr std::size_t kFanout = 4;

/// A shard node that relays hierarchically: reports addressed to it hop one
/// level up the rank tree (rank 0 forwards to the sink). Mirrors the
/// ShardedMediationSystem::RelayLoadReport path without the mediation tier.
struct RelayNode : msg::Node {
  std::size_t rank = 0;
  NodeId sink;
  const std::vector<NodeId>* addresses = nullptr;
  std::uint64_t* message_count = nullptr;

  void OnMessage(msg::Network& network, const msg::Message& message) override {
    msg::Message forward;
    forward.from = message.to;
    forward.to = rank == 0 ? sink
                           : (*addresses)[GossipParentRank(rank, kFanout)];
    forward.kind = kLoadReportKind;
    forward.correlation = message.correlation;
    forward.payload = message.payload;
    ++*message_count;
    network.Send(std::move(forward));
  }
};

/// The router's gossip sink: counts arrivals, forwards nothing.
struct SinkNode : msg::Node {
  std::uint64_t received = 0;
  void OnMessage(msg::Network&, const msg::Message&) override { ++received; }
};

struct GossipFixture {
  des::Simulator sim;
  msg::Network network;
  std::vector<RelayNode> shards;
  SinkNode sink;
  std::vector<NodeId> addresses;
  NodeId sink_address;
  std::uint64_t messages = 0;

  explicit GossipFixture(std::size_t m)
      : network(sim, msg::LatencyModel{0.005, 0.0}, Rng(7)) {
    shards.resize(m);
    for (std::size_t r = 0; r < m; ++r) {
      addresses.push_back(network.Register(&shards[r]));
    }
    sink_address = network.Register(&sink);
    for (std::size_t r = 0; r < m; ++r) {
      shards[r].rank = r;
      shards[r].sink = sink_address;
      shards[r].addresses = &addresses;
      shards[r].message_count = &messages;
    }
  }

  void SendReport(std::size_t from, NodeId to) {
    msg::Message message;
    message.from = addresses[from];
    message.to = to;
    message.kind = kLoadReportKind;
    message.correlation = from;
    ++messages;
    network.Send(std::move(message));
  }
};

/// One hierarchical round: each shard sends one hop up the k-ary tree;
/// relays forward at delivery time until the root hands off to the sink.
void BM_GossipHierarchical(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  GossipFixture fx(m);
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    fx.messages = 0;
    for (std::size_t r = 0; r < m; ++r) {
      fx.SendReport(r, r == 0 ? fx.sink_address
                              : fx.addresses[GossipParentRank(r, kFanout)]);
    }
    fx.sim.RunAll();  // drains every relay hop
    benchmark::DoNotOptimize(fx.messages);
    ++rounds;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      rounds * HierarchicalMessagesPerRound(m, kFanout)));
  state.counters["msgs_per_round"] =
      static_cast<double>(HierarchicalMessagesPerRound(m, kFanout));
}

/// The legacy direct baseline: M reports straight to the sink.
void BM_GossipDirect(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  GossipFixture fx(m);
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    for (std::size_t r = 0; r < m; ++r) {
      fx.SendReport(r, fx.sink_address);
    }
    fx.sim.RunAll();
    ++rounds;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds * m));
  state.counters["msgs_per_round"] = static_cast<double>(m);
}

BENCHMARK(BM_GossipDirect)->Arg(8)->Arg(64)->Arg(256);
BENCHMARK(BM_GossipHierarchical)->Arg(8)->Arg(64)->Arg(256);

}  // namespace
}  // namespace sqlb::shard

#include "micro_main.h"
SQLB_MICRO_BENCH_MAIN("micro_gossip")
