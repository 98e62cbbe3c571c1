#include "model/windows.h"

#include <cmath>

#include "common/math_util.h"
#include "common/status.h"
#include "model/characterization.h"

namespace sqlb {

ConsumerWindow::ConsumerWindow(const WindowConfig& config)
    : config_(config), entries_(config.capacity) {
  SQLB_CHECK(config.prior >= 0.0 && config.prior <= 1.0,
             "window prior must lie in [0, 1]");
}

void ConsumerWindow::Record(double adequation, double satisfaction) {
  SQLB_CHECK(adequation >= 0.0 && adequation <= 1.0,
             "per-query adequation must lie in [0, 1] (Eq. 1)");
  SQLB_CHECK(satisfaction >= 0.0 && satisfaction <= 1.0,
             "per-query satisfaction must lie in [0, 1] (Eq. 2)");
  Entry evicted;
  if (entries_.Push(Entry{adequation, satisfaction}, &evicted)) {
    adequation_sum_ -= evicted.adequation;
    satisfaction_sum_ -= evicted.satisfaction;
  }
  adequation_sum_ += adequation;
  satisfaction_sum_ += satisfaction;
  ++recorded_;
}

double ConsumerWindow::Adequation() const {
  const double k = static_cast<double>(entries_.capacity());
  const double m = static_cast<double>(entries_.size());
  // (sum + (k - m) * prior) / k: pseudo-entries at the prior fill the
  // window until real evidence displaces them. Clamped against the tiny
  // negative drift a running add/subtract sum can accumulate.
  return Clamp((adequation_sum_ + (k - m) * config_.prior) / k, 0.0, 1.0);
}

double ConsumerWindow::Satisfaction() const {
  const double k = static_cast<double>(entries_.capacity());
  const double m = static_cast<double>(entries_.size());
  return Clamp((satisfaction_sum_ + (k - m) * config_.prior) / k, 0.0, 1.0);
}

double ConsumerWindow::AllocationSatisfactionValue() const {
  return AllocationSatisfaction(Satisfaction(), Adequation());
}

double ConsumerWindow::RawAdequation() const {
  if (entries_.empty()) return 0.0;
  return adequation_sum_ / static_cast<double>(entries_.size());
}

double ConsumerWindow::RawSatisfaction() const {
  if (entries_.empty()) return 0.0;
  return satisfaction_sum_ / static_cast<double>(entries_.size());
}

ProviderWindow::ProviderWindow(const WindowConfig& config, bool lazy)
    : config_(config), entries_(config.capacity, lazy) {
  SQLB_CHECK(config.prior >= 0.0 && config.prior <= 1.0,
             "window prior must lie in [0, 1]");
  SQLB_CHECK(config.satisfaction_prior_weight >= 0.0,
             "satisfaction prior weight must be >= 0");
  last_satisfaction_[0] = config.prior;
  last_satisfaction_[1] = config.prior;
}

void ProviderWindow::Record(double shown_intention, double preference,
                            bool performed) {
  const double intention_unit = IntentionToUnit(shown_intention);
  const double preference_unit = IntentionToUnit(preference);
  bool perf_changed = performed;
  Entry evicted;
  if (entries_.Push(
          Entry{performed ? -intention_unit : intention_unit, preference_unit},
          &evicted)) {
    const double evicted_intention = std::fabs(evicted.signed_intention_unit);
    intention_sum_ -= evicted_intention;
    preference_sum_ -= evicted.preference_unit;
    if (std::signbit(evicted.signed_intention_unit)) {
      perf_intention_sum_ -= evicted_intention;
      perf_preference_sum_ -= evicted.preference_unit;
      --performed_in_window_;
      perf_changed = true;
    }
  }
  if (perf_changed) ++sat_revision_;
  intention_sum_ += intention_unit;
  preference_sum_ += preference_unit;
  if (performed) {
    perf_intention_sum_ += intention_unit;
    perf_preference_sum_ += preference_unit;
    ++performed_in_window_;
    ++performed_total_;
  }
  ++proposed_;
}

double ProviderWindow::Adequation(Channel channel) const {
  const double k = static_cast<double>(entries_.capacity());
  const double m = static_cast<double>(entries_.size());
  return Clamp((Sum(channel) + (k - m) * config_.prior) / k, 0.0, 1.0);
}

double ProviderWindow::Satisfaction(Channel channel) const {
  const std::size_t c = channel == Channel::kIntention ? 0 : 1;
  const double s = static_cast<double>(performed_in_window_);
  const double w = config_.satisfaction_prior_weight;
  if (s + w <= 0.0) {
    // Nothing performed inside the window and no smoothing prior: hold the
    // last known value (initially the 0.5 prior of Table 2).
    return last_satisfaction_[c];
  }
  const double value =
      Clamp((PerformedSum(channel) + w * config_.prior) / (s + w), 0.0, 1.0);
  if (performed_in_window_ > 0) last_satisfaction_[c] = value;
  return value;
}

double ProviderWindow::AllocationSatisfactionValue(Channel channel) const {
  return AllocationSatisfaction(Satisfaction(channel), Adequation(channel));
}

double ProviderWindow::RawAdequation(Channel channel) const {
  if (entries_.empty()) return 0.0;
  return Sum(channel) / static_cast<double>(entries_.size());
}

double ProviderWindow::RawSatisfaction(Channel channel) const {
  if (performed_in_window_ == 0) return 0.0;
  return PerformedSum(channel) / static_cast<double>(performed_in_window_);
}

}  // namespace sqlb
