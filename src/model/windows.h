#ifndef SQLB_MODEL_WINDOWS_H_
#define SQLB_MODEL_WINDOWS_H_

#include <cstddef>
#include <cstdint>

#include "common/ring_buffer.h"
#include "mem/paged_ring.h"

/// \file
/// Sliding "k last interactions" state behind the long-run characterization
/// of Section 3:
///
///  - ConsumerWindow tracks the consumer's k last *issued* queries (IQ^k_c):
///    one (adequation, satisfaction) pair per query (Eqs. 1-2).
///  - ProviderWindow tracks the provider's k last *proposed* queries
///    (PQ^k_p): the shown intention, the private preference, and whether the
///    provider actually performed the query (SQ^k_p is the performed
///    subset). Two value channels let the same window answer both the
///    mediator-visible, intention-based question (Figure 4(a)) and the
///    private, preference-based one (Figure 4(b)).
///
/// Both windows blend an initial prior (the paper initializes satisfaction
/// at 0.5, Section 6.1) while evidence is scarce; see DESIGN.md fidelity
/// decision 4. Raw (unblended) Definition 1/2/4/5 values remain available
/// for tests and analysis.

namespace sqlb {

/// Tunables shared by both window types.
struct WindowConfig {
  /// Window capacity k (paper: 200 for consumers, 500 for providers).
  std::size_t capacity = 200;
  /// Initial prior value blended in while the window fills.
  double prior = 0.5;
  /// Pseudo-count weight of the prior for the provider's performed-subset
  /// satisfaction (Def. 5), whose sample count is not bounded below: with
  /// weight w, satisfaction = (sum + w * prior) / (count + w). The default
  /// 0 keeps Definition 5 exact whenever the performed subset is
  /// non-empty; a positive weight smooths the inherently tiny-sample
  /// estimate for applications that want it.
  ///
  /// When the performed subset is empty, Satisfaction() holds its last
  /// known value instead of Definition 5's literal 0 (the paper
  /// initializes satisfaction at 0.5 and lets it "evolve with the k last
  /// queries" — a provider between two allocations keeps its opinion; a
  /// hard 0 would make every provider maximally dissatisfied every few
  /// seconds and drown the evaluation's other departure causes).
  /// RawSatisfaction() keeps the literal Definition 5 behaviour.
  double satisfaction_prior_weight = 0.0;
};

/// Window over the consumer's k last issued queries.
class ConsumerWindow {
 public:
  explicit ConsumerWindow(const WindowConfig& config);

  /// Records one completed allocation: the per-query adequation (Eq. 1) and
  /// satisfaction (Eq. 2), both already in [0, 1].
  void Record(double adequation, double satisfaction);

  /// Definition 1 with prior blending while the window is not yet full.
  double Adequation() const;
  /// Definition 2 with prior blending while the window is not yet full.
  double Satisfaction() const;
  /// Definition 3: Satisfaction() / Adequation().
  double AllocationSatisfactionValue() const;

  /// Unblended Definition 1 (0 when empty).
  double RawAdequation() const;
  /// Unblended Definition 2 (0 when empty).
  double RawSatisfaction() const;

  /// Total queries ever recorded (not capped at k); drives the departure
  /// check cadence (every full window turnover).
  std::uint64_t recorded() const { return recorded_; }
  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return entries_.capacity(); }

 private:
  struct Entry {
    double adequation;
    double satisfaction;
  };

  WindowConfig config_;
  RingBuffer<Entry> entries_;
  double adequation_sum_ = 0.0;
  double satisfaction_sum_ = 0.0;
  std::uint64_t recorded_ = 0;
};

/// Window over the provider's k last proposed queries.
class ProviderWindow {
 public:
  /// `lazy` selects the pooled backing mode of the entry ring: eager
  /// (default) allocates every chunk up front like the legacy RingBuffer
  /// sized its vector; lazy materializes chunks on first write, from the
  /// pool wired via set_chunk_pool() (heap until one is wired). The two
  /// modes run the identical Record/eviction arithmetic.
  explicit ProviderWindow(const WindowConfig& config, bool lazy = false);

  /// Wires the slab pool lazy chunks come from (the owning lane's arena);
  /// resident chunks keep their original owner.
  void set_chunk_pool(mem::SlabPool* pool) { entries_.set_pool(pool); }

  /// Bytes of entry-ring storage currently resident.
  std::size_t resident_bytes() const { return entries_.resident_bytes(); }

  /// Records one proposed query: the intention the provider showed, its
  /// private preference (both on the [-1, 1] scale; clamped), and whether
  /// the mediator allocated the query to this provider.
  void Record(double shown_intention, double preference, bool performed);

  /// Prefetch hint for a bulk notify sweep: pulls the ring slot the next
  /// Record will touch (PagedRing::PrefetchPushSlot).
  void PrefetchRecordSlot() const { entries_.PrefetchPushSlot(); }

  /// The two value channels of the window.
  enum class Channel {
    kIntention,   // mediator-visible (Figures 4(a), Eq. 6)
    kPreference,  // private (Figures 4(b)-(c), Def. 8's self-balance)
  };

  /// Definition 4 over the chosen channel, prior-blended while filling.
  double Adequation(Channel channel) const;
  /// Definition 5 over the performed subset (prior pseudo-count blended
  /// when configured); holds its last known value while the performed
  /// subset is empty (see WindowConfig::satisfaction_prior_weight).
  double Satisfaction(Channel channel) const;
  /// Definition 6: Satisfaction / Adequation on the chosen channel.
  double AllocationSatisfactionValue(Channel channel) const;

  /// Unblended Definition 4 (0 when the window is empty, as in the paper).
  double RawAdequation(Channel channel) const;
  /// Unblended Definition 5 (0 when no query was performed, as in paper).
  double RawSatisfaction(Channel channel) const;

  /// The running unit sums behind Definitions 4-5: over every entry, and
  /// over the performed ones.
  double Sum(Channel channel) const {
    return channel == Channel::kIntention ? intention_sum_ : preference_sum_;
  }
  double PerformedSum(Channel channel) const {
    return channel == Channel::kIntention ? perf_intention_sum_
                                          : perf_preference_sum_;
  }

  /// Queries ever proposed / performed (not capped at k).
  std::uint64_t proposed() const { return proposed_; }
  std::uint64_t performed() const { return performed_total_; }

  /// Bumped whenever the performed-subset aggregates change (a performed
  /// query was recorded, or a performed entry was evicted) — i.e. exactly
  /// when Satisfaction() can change on either channel. Recording a
  /// *non-performed* proposal leaves the revision alone: the mediation
  /// tier's characterization cache uses this to skip satisfaction reads for
  /// the (common) candidates a query proposed to but did not select.
  std::uint64_t satisfaction_revision() const { return sat_revision_; }
  /// Performed entries currently inside the window (|SQ^k_p|).
  std::size_t performed_in_window() const { return performed_in_window_; }
  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return entries_.capacity(); }

 private:
  // 16 bytes: the performed flag rides in the sign bit of the intention
  // unit. IntentionToUnit returns a value in [+0, 1] (at -1 it gives
  // (-1 + 1) / 2 = +0.0, never -0.0), so a performed entry stores -unit,
  // std::signbit reads the flag and std::fabs the unit back exactly.
  struct Entry {
    double signed_intention_unit;  // -unit when performed, else +unit
    double preference_unit;        // (clamped preference + 1) / 2
  };

  WindowConfig config_;
  mem::PagedRing<Entry> entries_;
  double intention_sum_ = 0.0;        // over all entries
  double preference_sum_ = 0.0;       // over all entries
  double perf_intention_sum_ = 0.0;   // over performed entries
  double perf_preference_sum_ = 0.0;  // over performed entries
  std::size_t performed_in_window_ = 0;
  std::uint64_t proposed_ = 0;
  std::uint64_t performed_total_ = 0;
  std::uint64_t sat_revision_ = 0;
  // Last known satisfaction per channel, served while the performed
  // subset is empty (mutable: refreshed on read, which is side-effect-free
  // w.r.t. the observable value).
  mutable double last_satisfaction_[2] = {0.5, 0.5};
};

}  // namespace sqlb

#endif  // SQLB_MODEL_WINDOWS_H_
