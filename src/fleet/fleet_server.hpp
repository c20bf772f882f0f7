// FleetServer: multi-device sharded serving with health-checked failover.
//
// One PipelineServer shard per simulated device (heterogeneous mixes —
// GTX680 next to RTX2080 — are the point). A request is placed on the shard
// with the lowest (inflight + 1) / speed score, where speed comes from the
// existing per-device analytic model: modeled graph instructions against
// the device's SM count, clock and issue-throughput factor at the kernels'
// occupancy (sim::compute_occupancy / throughput_factor). A 46-SM Turing
// therefore absorbs proportionally more load than an 8-SMX Kepler, and the
// router needs no calibration run.
//
// Health: every shard gets a device-level resilience::CircuitBreaker
// (distinct from the per-kernel breakers inside the shard). A request that
// settles kError records a device failure; a tripped breaker quarantines
// the device — no placements — until its cooldown elapses, after which the
// router deliberately routes the next request there as the half-open probe
// (probe-first, bounded by half_open_probes) so a healed device re-enters
// rotation without a side channel. Probe dispatches fire the
// `health.probe` fault point; every placement fires `shard.dispatch`; the
// per-launch `device.launch` point lives in the executor.
//
// Failover: a request stranded on a dead or quarantined device is
// re-dispatched to the next eligible shard (each device tried at most
// once). Requests are pure (graph, source) -> pixels, so re-dispatch is
// idempotent and bit-identity is preserved; remaining deadline budget is
// carried, and kDeadlineExpired is terminal (the budget is gone, not the
// device). Shard queue overflow bounces to another shard without a health
// penalty.
//
// Admission: before placement, the AdmissionController walks the
// degradation ladder (admission.hpp): shed low tiers under load, brown out
// survivors to kNaive (bit-identical), reject at saturation. Shed and
// rejected requests settle immediately — submit() never blocks.
//
// Every settled request resolves its future exactly once, from whichever
// thread completed the terminal dispatch. shutdown() drains every shard;
// cross-shard failovers landing on an already-drained shard settle inline
// as rejected, so no future is ever orphaned.
#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fleet/admission.hpp"
#include "gpusim/device.hpp"
#include "pipeline/server.hpp"

namespace ispb::fleet {

struct FleetConfig {
  /// Devices to shard over, one PipelineServer each; 1..64 entries.
  std::vector<sim::DeviceSpec> devices;
  /// Per-shard server template. executor.sim.device is overwritten per
  /// shard; executor.cache (when set) is shared by all shards — cache keys
  /// are device-scoped already. clock defaults to `clock` below.
  pipeline::ServerConfig shard;
  AdmissionConfig admission;
  /// Device-level quarantine breakers (failure threshold, cooldown,
  /// half-open probe budget).
  resilience::BreakerConfig device_breaker;
  /// Clock for the device breakers (and the shards, unless shard.clock is
  /// set); nullptr = wall clock.
  resilience::Clock* clock = nullptr;
};

enum class FleetStatus : u8 {
  kOk,
  kShed,             ///< admission dropped it (low tier under load)
  kRejected,         ///< admission reject, every shard overflowed, or shutdown
  kDeadlineExpired,  ///< budget exhausted queued/executing/failing over
  kError,            ///< all eligible devices failed it; see error
};
[[nodiscard]] std::string_view to_string(FleetStatus s);

struct FleetRequest {
  std::shared_ptr<const pipeline::KernelGraph> graph;
  std::shared_ptr<const Image<f32>> source;
  /// Whole-request budget across queueing, execution and failover; 0=none.
  f64 deadline_ms = 0.0;
  std::optional<exec::Backend> backend;
  /// Priority tier, 0 = highest; clamped to admission.tiers.
  u32 tier = 0;
  /// Force this kernel variant (warmup, directed tests); admission brownout
  /// overrides it with kNaive. nullopt = the shard executor decides.
  std::optional<codegen::Variant> variant;
  /// Route to this device only (tests, directed probes); "" = router picks.
  /// Pinned dispatches still respect the device breaker.
  std::string pin_device;
};

struct FleetResponse {
  FleetStatus status = FleetStatus::kOk;
  /// Inner response of the terminal dispatch; default for kShed and
  /// never-dispatched rejections.
  pipeline::ServeResponse serve;
  std::string device;  ///< device of the terminal dispatch ("" if none)
  u32 tier = 0;
  u32 dispatches = 0;  ///< shard placements; > 1 means failover happened
  bool browned_out = false;  ///< admission served it kNaive
  f64 total_ms = 0.0;        ///< fleet submit -> settle wall time
  std::string error;
};

struct FleetDeviceStats {
  std::string device;
  u64 routed = 0;     ///< dispatches placed on this device
  u64 completed = 0;  ///< kOk settled here
  u64 errors = 0;     ///< kError settled here (incl. injected dispatch/probe)
  u64 rejected = 0;   ///< queue-overflow bounces off this shard
  u64 probes = 0;     ///< half-open probes admitted by the device breaker
  u64 quarantines = 0;  ///< breaker trips (quarantine episodes)
  u64 inflight = 0;     ///< currently dispatched, not yet settled
};

struct FleetTierStats {
  u32 tier = 0;
  u64 submitted = 0;
  u64 shed = 0;
  u64 browned_out = 0;  ///< kOk responses served kNaive by admission
  u64 completed = 0;
  u64 rejected = 0;
  u64 deadline_expired = 0;
  u64 errors = 0;
  obs::StreamingHistogram latency_ms;  ///< kOk fleet total_ms
};

struct FleetStats {
  u64 submitted = 0;
  u64 completed = 0;
  u64 shed = 0;
  u64 rejected = 0;
  u64 deadline_expired = 0;
  u64 errors = 0;
  u64 failovers = 0;  ///< re-dispatch attempts after a device failure
  std::vector<FleetDeviceStats> devices;
  std::vector<FleetTierStats> tiers;
};

class FleetServer {
 public:
  explicit FleetServer(FleetConfig config);
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Admits (or sheds/rejects) and places one request. Never blocks; the
  /// future settles exactly once.
  [[nodiscard]] std::future<FleetResponse> submit(FleetRequest request);

  /// Resumes every shard constructed start_paused. Idempotent.
  void resume();
  /// Stops accepting and drains every shard. Idempotent.
  void shutdown();

  [[nodiscard]] FleetStats stats() const;
  /// Device breaker snapshots, in device order.
  [[nodiscard]] std::vector<resilience::BreakerSnapshot> device_health() const;
  /// Per-device SLO slices from each shard's sliding window.
  [[nodiscard]] std::vector<std::pair<std::string, obs::SloSnapshot>>
  device_slo() const;
  /// Fraction of fleet slots (queue + workers, all shards) in flight.
  [[nodiscard]] f64 occupancy() const;

 private:
  struct Shard {
    sim::DeviceSpec device;
    std::unique_ptr<pipeline::PipelineServer> server;
    std::unique_ptr<resilience::CircuitBreaker> breaker;
    std::atomic<u64> inflight{0};
  };
  /// One in-flight fleet request. Mutated only by the thread currently
  /// driving it (submit caller, then the settling shard worker); handoffs
  /// are ordered through the shard queue mutexes.
  struct Pending {
    FleetRequest request;
    std::promise<FleetResponse> promise;
    std::chrono::steady_clock::time_point submitted_at;
    u32 tier = 0;
    bool browned_out = false;
    u32 dispatches = 0;
    u64 tried_mask = 0;  ///< bit per shard already attempted
    FleetStatus exhausted_status = FleetStatus::kError;
    std::string last_error;
  };
  using PendingPtr = std::shared_ptr<Pending>;

  /// Picks the next eligible shard and dispatches, or settles the request
  /// (deadline gone / no device left).
  void route(const PendingPtr& p);
  void dispatch_to(const PendingPtr& p, std::size_t index, bool probe);
  void on_settle(const PendingPtr& p, std::size_t index, bool probe,
                 pipeline::ServeResponse&& r);
  void settle(const PendingPtr& p, FleetStatus status,
              pipeline::ServeResponse&& serve, std::string device,
              std::string error);
  /// Breaker failure + quarantine accounting for a device-level error.
  void device_failure(std::size_t index);
  /// Memoized per-(device, graph) speed estimate for placement scoring.
  [[nodiscard]] f64 speed_weight(std::size_t index,
                                 const pipeline::KernelGraph& graph);

  FleetConfig config_;
  AdmissionController admission_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<u64> total_inflight_{0};
  std::atomic<bool> accepting_{true};

  mutable std::mutex mu_;  ///< stats_ and weights_
  FleetStats stats_;
  std::unordered_map<std::string, f64> weights_;
};

}  // namespace ispb::fleet
