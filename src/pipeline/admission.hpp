// Tiered admission control: the degradation ladder PipelineServer walks at
// enqueue when ServerConfig::admission is set.
//
// Requests carry a priority tier (0 = highest). As server occupancy rises,
// the ladder degrades service instead of failing cliff-style:
//
//   occupancy < shed(tier)      admit at full quality
//   occupancy >= shed(tier)     shed (tier > 0 only; lowest tier first)
//   occupancy >= brownout_start brown out surviving tiers: serve kNaive —
//                               bit-identical pixels, cheaper plan — which
//                               frees compile and occupancy headroom
//   occupancy >= reject_start   reject everything not already shed
//
// Shed thresholds are spaced evenly between shed_start (the lowest tier)
// and reject_start (just above tier 1), so load peels tiers off one by one
// from the bottom. Tier 0 never sheds: it degrades via brownout and is
// rejected only at reject_start or when the queue is full.
//
// The ladder is a pure function of (config, tier, occupancy), so the server
// consults it under its queue lock and tests can table-drive it.
#pragma once

#include <algorithm>
#include <limits>

#include "common/types.hpp"

namespace ispb::pipeline {

struct AdmissionConfig {
  /// Priority tiers; requests clamp to [0, tiers). 0 = highest priority.
  u32 tiers = 3;
  /// Occupancy where the lowest tier starts shedding.
  f64 shed_start = 0.50;
  /// Occupancy where admitted tiers are served kNaive (browned out).
  f64 brownout_start = 0.75;
  /// Occupancy where every tier is rejected outright.
  f64 reject_start = 0.95;
};

enum class AdmissionDecision : u8 { kAdmit, kBrownout, kShed, kReject };

/// Occupancy at which `tier` starts shedding; +infinity for tier 0.
[[nodiscard]] inline f64 shed_threshold(const AdmissionConfig& config,
                                        u32 tier) {
  if (tier == 0) return std::numeric_limits<f64>::infinity();
  const u32 tiers = std::max<u32>(config.tiers, 2);
  const u32 t = std::min(tier, tiers - 1);
  // Lowest tier sheds at shed_start; each higher tier holds on for an even
  // share of the remaining headroom up to reject_start.
  return config.shed_start + (config.reject_start - config.shed_start) *
                                 static_cast<f64>(tiers - 1 - t) /
                                 static_cast<f64>(tiers - 1);
}

/// The ladder decision for a request of `tier` at `occupancy` (0 = idle,
/// 1 = every queue slot and worker busy).
[[nodiscard]] inline AdmissionDecision admission_decision(
    const AdmissionConfig& config, u32 tier, f64 occupancy) {
  if (occupancy >= config.reject_start) return AdmissionDecision::kReject;
  if (occupancy >= shed_threshold(config, tier)) {
    return AdmissionDecision::kShed;
  }
  if (occupancy >= config.brownout_start) return AdmissionDecision::kBrownout;
  return AdmissionDecision::kAdmit;
}

}  // namespace ispb::pipeline
