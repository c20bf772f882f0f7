// Multi-device serving on the one server: admission ladder table,
// placement across targets with bit-identity, failover off a killed device
// (one trace tree per request), half-open probe recovery after a flap and
// after a deadline-cut probe, shed/brownout/reject degradation, the
// overload invariants under a burst past saturation, pinned routing, no
// worker stranded on an idle target, and the fleet name mapping.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "filters/filters.hpp"
#include "fleet/fleet_server.hpp"
#include "image/compare.hpp"
#include "image/generators.hpp"
#include "pipeline/kernel_cache.hpp"
#include "obs/trace.hpp"
#include "pipeline/kernel_graph.hpp"
#include "resilience/clock.hpp"
#include "resilience/fault_injector.hpp"

namespace ispb {
namespace {

std::shared_ptr<const pipeline::KernelGraph> make_graph(
    const filters::MultiKernelApp& app) {
  return std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(app));
}

std::shared_ptr<const Image<f32>> make_source(i32 side = 32) {
  return std::make_shared<const Image<f32>>(make_gradient_image({side, side}));
}

/// Two targets, two workers each, with the default admission ladder.
pipeline::ServerConfig two_device_config() {
  pipeline::ServerConfig cfg;
  cfg.devices = {sim::make_gtx680(), sim::make_rtx2080()};
  cfg.workers = 4;
  cfg.queue_capacity = 128;
  cfg.admission = pipeline::AdmissionConfig{};
  return cfg;
}

pipeline::ServeRequest make_request(
    const std::shared_ptr<const pipeline::KernelGraph>& graph,
    const std::shared_ptr<const Image<f32>>& source, u32 tier = 0) {
  pipeline::ServeRequest req;
  req.graph = graph;
  req.source = source;
  req.tier = tier;
  return req;
}

// ---- admission ladder -------------------------------------------------------

TEST(Admission, ShedThresholdsSpacedBetweenShedStartAndRejectStart) {
  const pipeline::AdmissionConfig ctl;
  // Defaults: 3 tiers, shed 0.50, brownout 0.75, reject 0.95.
  EXPECT_TRUE(std::isinf(pipeline::shed_threshold(ctl, 0)));
  EXPECT_DOUBLE_EQ(pipeline::shed_threshold(ctl, 1), 0.725);
  EXPECT_DOUBLE_EQ(pipeline::shed_threshold(ctl, 2), 0.50);
  // Tiers beyond the configured count clamp to the lowest threshold.
  EXPECT_DOUBLE_EQ(pipeline::shed_threshold(ctl, 9), 0.50);
}

TEST(Admission, LadderDecisionsByTierAndOccupancy) {
  using pipeline::AdmissionDecision;
  const pipeline::AdmissionConfig ctl;
  struct Case {
    u32 tier;
    f64 occupancy;
    AdmissionDecision want;
  };
  const Case cases[] = {
      {0, 0.0, AdmissionDecision::kAdmit},
      {2, 0.49, AdmissionDecision::kAdmit},
      {2, 0.50, AdmissionDecision::kShed},   // lowest tier sheds first
      {1, 0.50, AdmissionDecision::kAdmit},  // tier 1 survives
      {1, 0.725, AdmissionDecision::kShed},
      {0, 0.74, AdmissionDecision::kAdmit},
      {0, 0.75, AdmissionDecision::kBrownout},  // tier 0 degrades, not sheds
      {0, 0.94, AdmissionDecision::kBrownout},
      {0, 0.95, AdmissionDecision::kReject},  // saturation rejects everyone
      {2, 0.95, AdmissionDecision::kReject},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(pipeline::admission_decision(ctl, c.tier, c.occupancy), c.want)
        << "tier " << c.tier << " occupancy " << c.occupancy;
  }
}

// ---- placement + bit identity ----------------------------------------------

TEST(FleetServer, ServesBitIdenticalAcrossHeterogeneousDevices) {
  const auto app = filters::make_sobel_app();
  const auto graph = make_graph(app);
  const auto src = make_source();
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kClamp);

  pipeline::PipelineServer server(two_device_config());
  constexpr int kRequests = 8;
  std::vector<std::future<pipeline::ServeResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(server.submit(make_request(graph, src)));
  }
  for (auto& f : futures) {
    pipeline::ServeResponse resp = f.get();
    ASSERT_EQ(resp.status, pipeline::ServeStatus::kOk) << resp.error;
    EXPECT_EQ(compare(resp.output, expect).max_abs, 0.0);
    EXPECT_EQ(resp.dispatches, 1u);
    EXPECT_FALSE(resp.device.empty());
  }
  server.shutdown();

  const pipeline::ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<u64>(kRequests));
  EXPECT_EQ(stats.completed, static_cast<u64>(kRequests));
  EXPECT_EQ(stats.failovers, 0u);
  ASSERT_EQ(stats.devices.size(), 2u);
  u64 routed = 0;
  for (const auto& d : stats.devices) routed += d.routed;
  EXPECT_EQ(routed, static_cast<u64>(kRequests));
  ASSERT_EQ(stats.tiers.size(), 3u);
  EXPECT_EQ(stats.tiers[0].completed, static_cast<u64>(kRequests));
  EXPECT_EQ(stats.tiers[0].latency_ms.count(), static_cast<u64>(kRequests));
}

// ---- failover off a killed device ------------------------------------------

TEST(FleetServer, FailsOverWhenOneDeviceIsKilled) {
  const auto app = filters::make_gaussian_app();
  const auto graph = make_graph(app);
  const auto src = make_source(16);
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kClamp);

  // Every launch on the RTX2080 (the router's preferred device) throws.
  resilience::FaultPlan plan;
  plan.seed = 7;
  plan.rules.push_back({"device.launch", resilience::FaultKind::kThrow,
                        "RTX2080", 1.0, 0, 0});
  resilience::FaultInjector injector(plan);
  resilience::FaultInjector::ScopedInstall install(injector);

  pipeline::ServerConfig cfg = two_device_config();
  cfg.device_breaker.failure_threshold = 2;
  cfg.device_breaker.open_cooldown_ms = 60'000;  // stays quarantined
  pipeline::PipelineServer server(cfg);

  constexpr int kRequests = 6;
  std::vector<std::future<pipeline::ServeResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(server.submit(make_request(graph, src)));
  }
  for (auto& f : futures) {
    pipeline::ServeResponse resp = f.get();
    ASSERT_EQ(resp.status, pipeline::ServeStatus::kOk) << resp.error;
    EXPECT_EQ(resp.device, "GTX680");  // only survivor
    EXPECT_EQ(compare(resp.output, expect).max_abs, 0.0);
  }
  server.shutdown();

  const pipeline::ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, static_cast<u64>(kRequests));
  EXPECT_GE(stats.failovers, 1u);
  const auto health = server.device_health();
  ASSERT_EQ(health.size(), 2u);
  bool rtx_tripped = false;
  for (const auto& b : health) {
    if (b.kernel.find("RTX2080") != std::string::npos) {
      rtx_tripped = b.trips >= 1;
    }
  }
  EXPECT_TRUE(rtx_tripped) << "killed device never quarantined";
}

// ---- probe-first recovery after a flap -------------------------------------

TEST(FleetServer, HalfOpenProbeRestoresFlappedDevice) {
  const auto app = filters::make_gaussian_app();
  const auto graph = make_graph(app);
  const auto src = make_source(16);

  // The GTX680 fails its first two launches, then heals (a flap).
  resilience::FaultPlan plan;
  plan.seed = 11;
  plan.rules.push_back({"device.launch", resilience::FaultKind::kThrow,
                        "GTX680", 1.0, /*max_fires=*/2, 0});
  resilience::FaultInjector injector(plan);
  resilience::FaultInjector::ScopedInstall install(injector);

  resilience::VirtualClock vclock;
  pipeline::ServerConfig cfg = two_device_config();
  cfg.clock = &vclock;
  cfg.device_breaker.failure_threshold = 1;
  cfg.device_breaker.open_cooldown_ms = 50;
  // Disable the per-kernel naive fallback so the injected launch fault
  // surfaces as a device error instead of being absorbed per-kernel.
  cfg.breakers_enabled = false;
  cfg.executor.retry.max_attempts = 1;
  pipeline::PipelineServer server(cfg);

  // Burn the flap by pinning onto the afflicted device; the failure trips
  // its breaker and the request fails over... except pinned requests have
  // nowhere to go, so they settle kError.
  pipeline::ServeRequest pinned = make_request(graph, src);
  pinned.pin_device = "GTX680";
  EXPECT_EQ(server.submit(pinned).get().status, pipeline::ServeStatus::kError);

  // Quarantined: a pinned request is refused while the cooldown runs.
  pinned = make_request(graph, src);
  pinned.pin_device = "GTX680";
  pipeline::ServeResponse refused = server.submit(pinned).get();
  EXPECT_EQ(refused.status, pipeline::ServeStatus::kError);
  EXPECT_NE(refused.error.find("quarantined"), std::string::npos)
      << refused.error;

  // After the cooldown the next pinned submit rides in as the half-open
  // probe. The flap still has one fire left, so the first probe fails and
  // re-trips; advance and probe again until the device heals.
  bool healed = false;
  for (int attempt = 0; attempt < 8 && !healed; ++attempt) {
    vclock.advance(60);
    pinned = make_request(graph, src);
    pinned.pin_device = "GTX680";
    pipeline::ServeResponse resp = server.submit(pinned).get();
    healed = resp.status == pipeline::ServeStatus::kOk;
  }
  EXPECT_TRUE(healed) << "flapped device never recovered via probes";
  server.shutdown();

  const auto health = server.device_health();
  for (const auto& b : health) {
    if (b.kernel.find("GTX680") != std::string::npos) {
      EXPECT_EQ(b.state, resilience::BreakerState::kClosed);
      EXPECT_GE(b.trips, 1u);
    }
  }
  const pipeline::ServerStats stats = server.stats();
  bool gtx_completed = false;
  for (const auto& d : stats.devices) {
    if (d.device == "GTX680") gtx_completed = d.completed >= 1;
  }
  EXPECT_TRUE(gtx_completed);
}

// ---- degradation ladder end-to-end -----------------------------------------

TEST(FleetServer, ShedsBrownsOutAndRejectsUnderLoad) {
  const auto app = filters::make_gaussian_app();
  const auto graph = make_graph(app);
  const auto src = make_source(16);
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kClamp);

  pipeline::ServerConfig cfg = two_device_config();
  cfg.workers = 4;
  cfg.queue_capacity = 16;
  cfg.start_paused = true;  // requests pile up deterministically
  // Capacity = 16 queue slots + 4 workers = 20 slots.
  cfg.admission->shed_start = 0.30;    // tier 2 sheds at 6 in flight
  cfg.admission->brownout_start = 0.50;  // brownout at 10
  cfg.admission->reject_start = 0.70;   // reject at 14
  pipeline::PipelineServer server(cfg);

  std::vector<std::future<pipeline::ServeResponse>> admitted;
  for (int i = 0; i < 6; ++i) {
    admitted.push_back(server.submit(make_request(graph, src, 0)));
  }
  // Occupancy 0.30: the lowest tier peels off first; settles immediately.
  auto shed2 = server.submit(make_request(graph, src, 2));
  ASSERT_EQ(shed2.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(shed2.get().status, pipeline::ServeStatus::kShed);

  for (int i = 0; i < 4; ++i) {
    admitted.push_back(server.submit(make_request(graph, src, 0)));
  }
  // Occupancy 0.50: tier 1's evenly spaced threshold kicks in.
  auto shed1 = server.submit(make_request(graph, src, 1));
  EXPECT_EQ(shed1.get().status, pipeline::ServeStatus::kShed);

  // Tier 0 never sheds — it browns out to kNaive instead.
  std::vector<std::future<pipeline::ServeResponse>> browned;
  for (int i = 0; i < 4; ++i) {
    browned.push_back(server.submit(make_request(graph, src, 0)));
  }
  // Occupancy 0.70: saturation. Even tier 0 is refused now.
  auto rejected = server.submit(make_request(graph, src, 0));
  EXPECT_EQ(rejected.get().status, pipeline::ServeStatus::kRejected);

  server.resume();
  for (auto& f : admitted) {
    pipeline::ServeResponse resp = f.get();
    ASSERT_EQ(resp.status, pipeline::ServeStatus::kOk) << resp.error;
    EXPECT_FALSE(resp.browned_out);
    EXPECT_EQ(compare(resp.output, expect).max_abs, 0.0);
  }
  for (auto& f : browned) {
    pipeline::ServeResponse resp = f.get();
    ASSERT_EQ(resp.status, pipeline::ServeStatus::kOk) << resp.error;
    EXPECT_TRUE(resp.browned_out);
    EXPECT_EQ(resp.variant_used, codegen::Variant::kNaive);
    // Brownout degrades the plan, never the pixels.
    EXPECT_EQ(compare(resp.output, expect).max_abs, 0.0);
  }
  server.shutdown();

  const pipeline::ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_GE(stats.rejected, 1u);
  ASSERT_EQ(stats.tiers.size(), 3u);
  EXPECT_EQ(stats.tiers[2].shed, 1u);
  EXPECT_EQ(stats.tiers[1].shed, 1u);
  EXPECT_EQ(stats.tiers[0].browned_out, 4u);
  EXPECT_EQ(stats.tiers[0].completed, 14u);
}

// The overload invariants, on a fixed burst past reject_start: tier 0 is
// never shed, the ladder absorbs part of the burst, and every admitted
// tier-0 request that completes does so within its deadline (+10% for the
// histogram's bucket error). A 10 ms wall-clock delay per stage makes the
// 19 admitted requests outlast the 30 ms deadline on 4 workers, so the
// deadline cuts the tail of the queue instead of serving it late.
TEST(FleetServer, OverloadBurstNeverShedsTierZeroOrServesItLate) {
  const auto app = filters::make_gaussian_app();
  const auto graph = make_graph(app);
  const auto src = make_source(16);
  constexpr f64 kDeadlineMs = 30.0;

  pipeline::KernelCache cache;
  pipeline::ServerConfig cfg = two_device_config();
  cfg.queue_capacity = 16;  // capacity 20: reject_start 0.95 at 19 queued
  cfg.executor.cache = &cache;
  {
    // Compile the full and the brownout (naive) kernels for both devices
    // first, so the burst measures queueing, not compilation.
    pipeline::PipelineServer warm(cfg);
    for (const char* device : {"GTX680", "RTX2080"}) {
      for (const std::optional<codegen::Variant> variant :
           {std::optional<codegen::Variant>{},
            std::optional<codegen::Variant>{codegen::Variant::kNaive}}) {
        pipeline::ServeRequest req = make_request(graph, src);
        req.pin_device = device;
        req.variant = variant;
        ASSERT_EQ(warm.submit(req).get().status, pipeline::ServeStatus::kOk);
      }
    }
  }

  resilience::FaultPlan plan;
  plan.rules.push_back({"executor.stage", resilience::FaultKind::kDelay, "",
                        1.0, 0, /*delay_ms=*/10});
  resilience::FaultInjector injector(plan);  // SystemClock: real sleep
  resilience::FaultInjector::ScopedInstall install(injector);

  cfg.start_paused = true;  // the whole burst queues before any runs
  pipeline::PipelineServer server(cfg);
  std::vector<std::future<pipeline::ServeResponse>> futures;
  for (u32 i = 0; i < 36; ++i) {
    pipeline::ServeRequest req = make_request(graph, src, i % 3);
    req.deadline_ms = kDeadlineMs;
    futures.push_back(server.submit(std::move(req)));
  }
  server.resume();
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kClamp);
  for (auto& f : futures) {
    const pipeline::ServeResponse resp = f.get();
    if (resp.status != pipeline::ServeStatus::kOk) continue;
    EXPECT_EQ(compare(resp.output, expect).max_abs, 0.0);
  }
  server.shutdown();

  const pipeline::ServerStats stats = server.stats();
  ASSERT_EQ(stats.tiers.size(), 3u);
  const pipeline::TierStats& tier0 = stats.tiers[0];
  EXPECT_EQ(tier0.shed, 0u) << "tier 0 is never shed";
  u64 browned_out = 0;
  for (const pipeline::TierStats& t : stats.tiers) browned_out += t.browned_out;
  EXPECT_GT(stats.shed + stats.rejected + browned_out, 0u);
  EXPECT_GT(stats.shed, 0u);
  EXPECT_GT(stats.rejected, 0u);
  EXPECT_GT(stats.deadline_expired, 0u) << "the burst never met its deadline";
  ASSERT_GT(tier0.completed, 0u);
  const std::optional<f64> p99 = tier0.latency_ms.percentile(99.0);
  ASSERT_TRUE(p99.has_value());
  EXPECT_LE(*p99, kDeadlineMs * 1.1);
}

// ---- pinned routing ---------------------------------------------------------

TEST(FleetServer, PinnedRequestsLandOnTheNamedDevice) {
  const auto graph = make_graph(filters::make_gaussian_app());
  const auto src = make_source(16);

  pipeline::PipelineServer server(two_device_config());
  pipeline::ServeRequest pinned = make_request(graph, src);
  pinned.pin_device = "GTX680";  // the router would prefer the RTX2080
  pipeline::ServeResponse resp = server.submit(pinned).get();
  ASSERT_EQ(resp.status, pipeline::ServeStatus::kOk) << resp.error;
  EXPECT_EQ(resp.device, "GTX680");

  pipeline::ServeRequest unknown = make_request(graph, src);
  unknown.pin_device = "TPUv9";
  pipeline::ServeResponse bad = server.submit(unknown).get();
  EXPECT_EQ(bad.status, pipeline::ServeStatus::kError);
  EXPECT_NE(bad.error.find("unknown pinned device"), std::string::npos)
      << bad.error;
  server.shutdown();
}

// ---- one cache entry per kernel for every target --------------------------

TEST(FleetServer, TargetsShareOneCacheEntryPerKernel) {
  const auto app = filters::make_sobel_app();
  const auto graph = make_graph(app);
  // 64 wide: no 32-wide block straddles both borders, so no naive twins.
  const auto src = make_source(64);
  pipeline::KernelCache cache;
  pipeline::ServerConfig cfg = two_device_config();
  cfg.executor.cache = &cache;
  cfg.executor.backend = exec::Backend::kInterpreted;

  pipeline::PipelineServer server(cfg);
  std::vector<pipeline::ServeResponse> responses;
  for (const char* device : {"GTX680", "RTX2080"}) {
    pipeline::ServeRequest pinned = make_request(graph, src);
    pinned.pin_device = device;
    responses.push_back(server.submit(pinned).get());
    ASSERT_EQ(responses.back().status, pipeline::ServeStatus::kOk)
        << responses.back().error;
    EXPECT_EQ(responses.back().device, device);
    EXPECT_EQ(responses.back().variant_used, codegen::Variant::kIsp);
  }
  server.shutdown();

  EXPECT_EQ(compare(responses[0].output, responses[1].output).max_abs, 0.0);
  EXPECT_EQ(compare(responses[0].output, filters::run_app_reference(
                                             app, *src, BorderPattern::kClamp))
                .max_abs,
            0.0);
  // Sobel's three kernels fill once; the second device only hits.
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.size(), 3u);
}

// ---- a probe cut by its deadline is not a verdict --------------------------

TEST(FleetServer, DeadlineCutProbeLeavesDeviceHalfOpen) {
  const auto laplace = make_graph(filters::make_laplace_app());
  const auto gaussian = make_graph(filters::make_gaussian_app());
  const auto src = make_source(16);

  // One launch failure trips the GTX680; the one-shot wall-clock stage
  // delay later outlasts the probe's 5 ms budget.
  resilience::FaultPlan plan;
  plan.rules.push_back({"device.launch", resilience::FaultKind::kThrow,
                        "GTX680", 1.0, /*max_fires=*/1, 0});
  plan.rules.push_back({"executor.stage", resilience::FaultKind::kDelay,
                        "gaussian", 1.0, /*max_fires=*/1, /*delay_ms=*/50});
  resilience::FaultInjector injector(plan);  // SystemClock: real sleep
  resilience::FaultInjector::ScopedInstall install(injector);

  resilience::VirtualClock vclock;
  pipeline::ServerConfig cfg = two_device_config();
  cfg.clock = &vclock;
  cfg.device_breaker.failure_threshold = 1;
  cfg.device_breaker.open_cooldown_ms = 50;
  cfg.breakers_enabled = false;
  pipeline::PipelineServer server(cfg);
  const auto gtx_breaker = [&] { return server.device_health()[0]; };

  pipeline::ServeRequest trip = make_request(laplace, src);
  trip.pin_device = "GTX680";
  EXPECT_EQ(server.submit(trip).get().status, pipeline::ServeStatus::kError);
  ASSERT_EQ(gtx_breaker().trips, 1u);
  vclock.advance(60);

  pipeline::ServeRequest probe = make_request(gaussian, src);
  probe.pin_device = "GTX680";
  probe.deadline_ms = 5.0;
  // A loaded machine may let the budget lapse in the queue, before any
  // placement; only a dispatched probe tests the breaker.
  pipeline::ServeResponse cut;
  for (int i = 0; i < 10 && cut.dispatches == 0; ++i) {
    cut = server.submit(probe).get();
  }
  ASSERT_EQ(cut.dispatches, 1u);
  EXPECT_EQ(cut.status, pipeline::ServeStatus::kDeadlineExpired);
  // No verdict: the probe slot is free again and nothing re-tripped.
  EXPECT_EQ(gtx_breaker().state, resilience::BreakerState::kHalfOpen);
  EXPECT_EQ(gtx_breaker().trips, 1u);

  probe.deadline_ms = 0.0;
  const pipeline::ServeResponse healed = server.submit(probe).get();
  ASSERT_EQ(healed.status, pipeline::ServeStatus::kOk) << healed.error;
  EXPECT_EQ(healed.device, "GTX680");
  EXPECT_EQ(gtx_breaker().state, resilience::BreakerState::kClosed);
  server.shutdown();

  const pipeline::ServerStats stats = server.stats();
  EXPECT_EQ(stats.devices[0].probes, 2u);
  EXPECT_EQ(stats.devices[0].quarantines, gtx_breaker().trips);
}

// ---- one trace tree per request across failover ----------------------------

TEST(FleetServer, FailoverKeepsOneTraceTreePerRequest) {
  const auto graph = make_graph(filters::make_gaussian_app());
  const auto src = make_source(16);

  resilience::FaultPlan plan;
  plan.rules.push_back({"device.launch", resilience::FaultKind::kThrow,
                        "RTX2080", 1.0, 0, 0});
  resilience::FaultInjector injector(plan);
  resilience::FaultInjector::ScopedInstall install(injector);

  obs::TraceSession::start();
  {
    pipeline::PipelineServer server(two_device_config());
    const pipeline::ServeResponse resp =
        server.submit(make_request(graph, src)).get();
    ASSERT_EQ(resp.status, pipeline::ServeStatus::kOk) << resp.error;
    EXPECT_EQ(resp.dispatches, 2u);  // RTX2080 first, then GTX680
    server.shutdown();
  }
  const std::vector<obs::TraceEvent> events = obs::TraceSession::stop();

  const std::vector<u64> ids = obs::request_ids(events);
  ASSERT_EQ(ids.size(), 1u);
  const obs::RequestBreakdown b = obs::request_breakdown(events, ids[0]);
  EXPECT_TRUE(b.has_root);
  EXPECT_EQ(b.unreachable, 0);
  int roots = 0;
  std::vector<std::string> attempts;
  for (const obs::TraceEvent& ev : events) {
    if (ev.parent_span_id == 0 && ev.request_id == ids[0]) ++roots;
    if (ev.name != "pipeline.server.request") continue;
    for (const auto& [key, value] : ev.args) {
      if (key == "device") attempts.push_back(value.as_string());
    }
  }
  EXPECT_EQ(roots, 1);
  EXPECT_EQ(attempts, (std::vector<std::string>{"RTX2080", "GTX680"}));
}

// ---- no worker stranded on an idle target ----------------------------------

TEST(FleetServer, NoWorkerStrandedOnAnIdleTarget) {
  const auto app = filters::make_gaussian_app();
  const auto graph = make_graph(app);
  const auto src = make_source(16);
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kClamp);

  pipeline::ServerConfig cfg = two_device_config();
  cfg.workers = 2;  // one per device
  pipeline::PipelineServer server(cfg);
  for (const char* device : {"GTX680", "RTX2080"}) {  // warm both caches
    pipeline::ServeRequest warm = make_request(graph, src);
    warm.pin_device = device;
    ASSERT_EQ(server.submit(warm).get().status, pipeline::ServeStatus::kOk);
  }

  resilience::FaultPlan plan;
  plan.rules.push_back({"executor.stage", resilience::FaultKind::kDelay, "",
                        1.0, 0, /*delay_ms=*/150});
  resilience::FaultInjector injector(plan);  // SystemClock: real sleep
  resilience::FaultInjector::ScopedInstall install(injector);

  // Both prefer the RTX2080; each runs on its own worker at once.
  auto first = server.submit(make_request(graph, src));
  auto second = server.submit(make_request(graph, src));
  for (auto* f : {&first, &second}) {
    const pipeline::ServeResponse resp = f->get();
    ASSERT_EQ(resp.status, pipeline::ServeStatus::kOk) << resp.error;
    EXPECT_EQ(compare(resp.output, expect).max_abs, 0.0);
    EXPECT_LT(resp.total_ms, 300.0) << "one request waited for the other";
  }
  server.shutdown();
}

// ---- the fleet names map onto the one server -------------------------------

TEST(FleetServer, FleetConfigMapsOntoOneServer) {
  const auto app = filters::make_gaussian_app();
  const auto graph = make_graph(app);
  const auto src = make_source(16);

  resilience::VirtualClock vclock;
  fleet::FleetConfig fc;
  fc.devices = {sim::make_gtx680(), sim::make_rtx2080()};
  fc.shard.workers = 3;
  fc.shard.queue_capacity = 5;
  fc.admission.tiers = 2;
  fc.clock = &vclock;
  const pipeline::ServerConfig sc = fleet::server_config(fc);
  EXPECT_EQ(sc.workers, 6);
  EXPECT_EQ(sc.queue_capacity, 10u);
  EXPECT_EQ(sc.devices.size(), 2u);
  ASSERT_TRUE(sc.admission.has_value());
  EXPECT_EQ(sc.admission->tiers, 2u);
  EXPECT_EQ(sc.clock, &vclock);

  fleet::FleetServer server(fc);
  fleet::FleetRequest req = make_request(graph, src);
  const fleet::FleetResponse resp = server.submit(req).get();
  ASSERT_EQ(resp.status, fleet::FleetStatus::kOk) << resp.serve.error;
  EXPECT_EQ(resp.total_ms, resp.serve.total_ms);
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kClamp);
  EXPECT_EQ(compare(resp.serve.output, expect).max_abs, 0.0);
  server.shutdown();
  const fleet::FleetStats stats = server.stats();
  EXPECT_EQ(stats.devices.size(), 2u);
  EXPECT_EQ(stats.tiers.size(), 2u);
  EXPECT_EQ(stats.completed, 1u);
}

// ---- device chaos plan shape ------------------------------------------------

TEST(DeviceChaosPlan, LeavesOneSurvivorAndIsDeterministic) {
  const std::vector<std::string> devices = {"GTX680", "RTX2080", "RTX2080#2"};
  const auto a = resilience::FaultPlan::device_chaos(42, devices, "mix");
  const auto b = resilience::FaultPlan::device_chaos(42, devices, "mix");
  ASSERT_EQ(a.rules.size(), b.rules.size());
  for (std::size_t i = 0; i < a.rules.size(); ++i) {
    EXPECT_EQ(a.rules[i].point, b.rules[i].point);
    EXPECT_EQ(a.rules[i].match, b.rules[i].match);
    EXPECT_EQ(a.rules[i].kind, b.rules[i].kind);
  }
  // Exactly one device carries no rules at all (the survivor).
  int survivors = 0;
  for (const std::string& d : devices) {
    bool afflicted = false;
    for (const auto& r : a.rules) afflicted |= r.match == d;
    survivors += afflicted ? 0 : 1;
  }
  EXPECT_EQ(survivors, 1);
  // A single-device fleet is never afflicted.
  EXPECT_TRUE(
      resilience::FaultPlan::device_chaos(42, {"GTX680"}, "kill").rules.empty());
}

}  // namespace
}  // namespace ispb
