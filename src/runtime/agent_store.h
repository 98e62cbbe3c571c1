#ifndef SQLB_RUNTIME_AGENT_STORE_H_
#define SQLB_RUNTIME_AGENT_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "mem/agent_arena.h"

/// \file
/// Structure-of-arrays storage for the provider population's hot state —
/// the agent-side extension of the SoA CandidateColumns work: backlog,
/// utilization sums, event-revision stamps and membership flags live in
/// dense per-field columns owned by the scenario engine, and ProviderAgent
/// becomes a compatibility view over one slot. The mediation tier's stamp
/// sweeps (prefetch + hit check over every candidate) then walk contiguous
/// arrays instead of one scattered ~14 KB object per provider, and the
/// engine can account residency (bytes_per_provider) exactly.

namespace sqlb::runtime {

class AgentStore {
 public:
  /// `core_slot` value of a provider that is currently no core's member.
  static constexpr std::uint32_t kNoCoreSlot = 0xffffffffu;

  explicit AgentStore(const mem::AgentPoolConfig& config = {});

  AgentStore(const AgentStore&) = delete;
  AgentStore& operator=(const AgentStore&) = delete;

  /// Sizes every column for `count` providers, in the fresh-agent state
  /// (active, idle, zero revisions, no core membership). When pooling is
  /// enabled a single arena is configured; the sharded driver re-configures
  /// one per shard before any agent allocates.
  void Resize(std::size_t count);

  std::size_t count() const { return backlog_units_.size(); }
  const mem::AgentPoolConfig& config() const { return config_; }
  bool pooled() const { return config_.enabled; }

  // --- Hot columns (indexed by provider slot = global provider index) ------

  double& backlog_units(std::size_t i) { return backlog_units_[i]; }
  double& total_allocated_units(std::size_t i) {
    return total_allocated_units_[i];
  }
  std::uint64_t& load_revision(std::size_t i) { return load_revision_[i]; }
  std::uint64_t& char_revision(std::size_t i) { return char_revision_[i]; }
  std::uint64_t& util_revision(std::size_t i) { return util_revision_[i]; }
  double& util_sum(std::size_t i) { return util_sum_[i]; }
  SimTime& util_last_time(std::size_t i) { return util_last_time_[i]; }

  bool active(std::size_t i) const { return (flags_[i] & kActive) != 0; }
  void set_active(std::size_t i, bool v) {
    flags_[i] = static_cast<std::uint8_t>(v ? flags_[i] | kActive
                                            : flags_[i] & ~kActive);
  }
  bool in_service(std::size_t i) const {
    return (flags_[i] & kInService) != 0;
  }
  void set_in_service(std::size_t i, bool v) {
    flags_[i] = static_cast<std::uint8_t>(v ? flags_[i] | kInService
                                            : flags_[i] & ~kInService);
  }

  /// Dense per-core slot of this provider in its owning mediation core
  /// (kNoCoreSlot while unowned); lets each core keep member-indexed
  /// characterization state instead of population-indexed arrays.
  std::uint32_t& core_slot(std::size_t i) { return core_slot_[i]; }

  // --- Per-lane arenas (pooled mode only) ----------------------------------

  /// Recreates the arenas, one per lane. Must run before any agent
  /// allocates pooled chunks (the sharded driver calls it with the shard
  /// count right after engine construction).
  void ConfigureArenas(std::size_t lanes);
  /// The lane's arena, or nullptr when pooling is disabled.
  mem::AgentArena* arena(std::size_t lane);
  std::size_t arena_count() const { return arenas_.size(); }

  /// Bytes of column storage (the SoA share of bytes_per_provider).
  std::size_t columns_bytes() const;
  /// Bytes currently reserved across every arena.
  std::size_t arena_bytes_reserved() const;
  /// High-water bytes reserved across every arena.
  std::size_t arena_peak_bytes() const;

 private:
  static constexpr std::uint8_t kActive = 1;
  static constexpr std::uint8_t kInService = 2;

  mem::AgentPoolConfig config_;
  std::vector<double> backlog_units_;
  std::vector<double> total_allocated_units_;
  std::vector<double> util_sum_;
  std::vector<SimTime> util_last_time_;
  std::vector<std::uint64_t> load_revision_;
  std::vector<std::uint64_t> char_revision_;
  std::vector<std::uint64_t> util_revision_;
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint32_t> core_slot_;
  std::vector<std::unique_ptr<mem::AgentArena>> arenas_;
};

}  // namespace sqlb::runtime

#endif  // SQLB_RUNTIME_AGENT_STORE_H_
