// PipelineServer: the one serving stack — a bounded queue, one worker pool
// and a list of execution targets (one per simulated device).
//
// Requests (a kernel graph + a source image) enter one bounded queue and
// are drained by N worker threads. A single-device server is a fleet of
// one: with ServerConfig::devices empty the server has one target,
// executor.sim.device, and behaves like a plain queue + workers.
//
// Request path:
//
//   1. Admission, at submit(): when ServerConfig::admission is set the
//      degradation ladder (admission.hpp) maps occupancy = (queued +
//      executing) / (queue capacity + workers) to admit / brown out (serve
//      kNaive) / shed / reject for the request's tier. A full queue, or a
//      server that is shutting down, rejects. Shed and rejected requests
//      settle before submit() returns: it never blocks or throws.
//   2. Placement, when a worker dequeues the request: the pinned target
//      alone; else every target whose device breaker is not closed first
//      (probe-first: once its cooldown ran, allow() admits the request as
//      the half-open probe, so a healed device re-enters rotation), then
//      the closed ones by ascending (executing + 1) / speed, where speed
//      is the device's modeled issue capacity (SMs x clock x throughput
//      factor at the block's occupancy).
//   3. Execution and failover, inline on that worker under the request's
//      one Deadline: the worker runs the request on the first target its
//      breaker admits. A kError charges the device breaker and the worker
//      moves on to the next target in the order; requests are pure
//      (graph, source) -> pixels, so a failed-over kOk stays bit-identical.
//      kDeadlineExpired is terminal — the budget is gone, not the device —
//      and a half-open probe that ends that way releases its slot without
//      a verdict.
//
// Deadlines cover the whole request, submit to settle. One that expires
// while queued is settled kDeadlineExpired by the queue sweeper thread
// (timely even while the server is paused, and during the shutdown drain)
// or by the dequeuing worker, without executing. One that expires while
// executing stops at the executor's next checkpoint (a stage attempt, a
// simulated block, a native row band or an injected delay; see
// common/deadline.hpp). No work outlives its request, and the server starts
// no thread per request.
//
// Resilience: each target owns a per-kernel resilience::BreakerRegistry
// threaded into its executor (a kernel whose ISP path keeps failing is
// served naive until a half-open probe restores it) and, with devices
// configured, a device-level CircuitBreaker whose trips quarantine the
// device. health() snapshots the per-kernel breakers and the retry /
// fallback / deadline counters; device_health() the device breakers.
//
// Workers execute stages inline (executor concurrency 1) by default:
// throughput comes from request-level parallelism, and the simulator's
// block loop still parallelizes each launch over the global pool.
//
// Every outcome settles through one path that counts it (ServerStats,
// per-target and per-tier), records it in the always-on SloWindow and
// publishes it to the installed obs::MetricsRegistry. Latency sketches are
// bounded obs::StreamingHistograms (O(1) memory in request count).
//
// Tracing: when an obs::TraceSession is active, every request gets one
// request id at submit; the dequeuing worker records the queue-wait span
// and installs the request's TraceContext around every attempt, and the
// settle path records the root span — so a request forms one tree in the
// Chrome/Perfetto export, failover attempts included (see
// obs::request_breakdown).
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/deadline.hpp"
#include "obs/histogram.hpp"
#include "obs/slo.hpp"
#include "pipeline/admission.hpp"
#include "pipeline/executor.hpp"
#include "resilience/health.hpp"

namespace ispb::pipeline {

/// One unit of work. Graph and source are shared_ptr so a caller can submit
/// the same graph/image to many requests without copying specs or pixels.
struct ServeRequest {
  std::shared_ptr<const KernelGraph> graph;
  std::shared_ptr<const Image<f32>> source;
  /// Whole-request budget in wall milliseconds, measured from submit();
  /// 0 = none. Covers queue wait, execution and failover.
  f64 deadline_ms = 0.0;
  /// Per-request engine override; nullopt = ExecutorConfig::backend.
  std::optional<exec::Backend> backend;
  /// Per-request variant override: forces every stage onto this variant
  /// (model selection disabled for the request); nullopt = executor config.
  /// Admission brownout overrides it with kNaive.
  std::optional<codegen::Variant> variant;
  /// Priority tier, 0 = highest; clamped to the admission ladder's tiers
  /// (always 0 without a ladder).
  u32 tier = 0;
  /// Serve on this device only (tests, directed probes); "" = the server
  /// places it. Pinned requests still respect the device breaker.
  std::string pin_device;
};

enum class ServeStatus : u8 {
  kOk,
  kRejected,         ///< queue full, admission reject, or server shut down
  kDeadlineExpired,  ///< budget exhausted queued, executing or failing over
  kError,            ///< every eligible target failed it; see error text
  kShed,             ///< admission dropped it (low tier under load)
};
[[nodiscard]] std::string_view to_string(ServeStatus s);

struct ServeResponse {
  ServeStatus status = ServeStatus::kOk;
  Image<f32> output;        ///< valid iff status == kOk
  f64 sim_time_ms = 0.0;    ///< modeled GPU time (kOk only)
  f64 queue_ms = 0.0;       ///< submit -> dequeue wall time
  f64 exec_ms = 0.0;        ///< dequeue -> finish wall time
  f64 total_ms = 0.0;       ///< submit -> finish wall time
  std::string error;        ///< detail for every status but kOk
  /// The variant that produced `output` (kOk, single-variant runs): stays
  /// kIsp under normal serving, reads kNaive while the breaker degrades.
  codegen::Variant variant_used = codegen::Variant::kNaive;
  bool served_by_fallback = false;  ///< any stage degraded to naive
  /// Engine that produced `output`: the requested one, downgraded to
  /// kInterpreted when any stage backend-fell-back (conservative, like
  /// variant_used).
  exec::Backend backend_used = exec::Backend::kInterpreted;
  bool backend_fallback = false;  ///< any native stage served interpreted
  std::string device;        ///< target of the last attempt ("" if none)
  u32 tier = 0;              ///< the clamped priority tier
  u32 dispatches = 0;        ///< attempts; > 1 means failover happened
  bool browned_out = false;  ///< kOk served kNaive by admission brownout
};

/// Per-target placement counters.
struct TargetStats {
  std::string device;
  u64 routed = 0;       ///< attempts placed on this target
  u64 completed = 0;    ///< attempts that ended kOk here
  u64 errors = 0;       ///< attempts that ended kError here
  u64 probes = 0;       ///< half-open probes admitted by the device breaker
  u64 quarantines = 0;  ///< device breaker trips
  u64 executing = 0;    ///< attempts running right now
};

/// Per-admission-tier outcome counters.
struct TierStats {
  u32 tier = 0;
  u64 submitted = 0;
  u64 shed = 0;
  u64 browned_out = 0;  ///< kOk responses served kNaive by admission
  u64 completed = 0;
  u64 rejected = 0;
  u64 deadline_expired = 0;
  u64 errors = 0;
  obs::StreamingHistogram latency_ms;  ///< kOk total_ms
};

/// Aggregate serving counters and bounded latency sketches (kOk requests
/// only). Memory is O(histogram buckets) no matter how many requests the
/// server handles.
struct ServerStats {
  u64 submitted = 0;
  u64 accepted = 0;  ///< enqueued (neither shed nor rejected at submit)
  u64 rejected = 0;
  u64 shed = 0;
  u64 completed = 0;
  u64 deadline_expired = 0;  ///< queued + mid-execution expiries
  u64 watchdog_expired = 0;  ///< subset cut off mid-execution by deadline
  u64 errors = 0;
  u64 failovers = 0;  ///< attempts after a request's first
  obs::StreamingHistogram total_latency_ms;
  obs::StreamingHistogram queue_latency_ms;
  obs::StreamingHistogram exec_latency_ms;
  std::vector<TargetStats> devices;  ///< in target order
  std::vector<TierStats> tiers;      ///< one per admission tier (1 if none)
};

/// The executor defaults the server wants: stages inline, parallelism from
/// concurrent requests (see the class comment).
[[nodiscard]] inline ExecutorConfig serving_executor_config() {
  ExecutorConfig config;
  config.concurrency = 1;
  return config;
}

struct ServerConfig {
  i32 workers = 4;                ///< >= 1
  std::size_t queue_capacity = 64;  ///< pending requests before rejection
  /// Executor template for every target; executor.sim.device is replaced
  /// by each target's device. executor.cache (when set) is shared by all
  /// targets — cache keys are device-scoped already.
  ExecutorConfig executor = serving_executor_config();
  /// When true the workers start idle; queued requests run only after
  /// resume(). Gives tests deterministic control over overflow and
  /// deadline paths. (The queue sweeper still runs while paused.)
  bool start_paused = false;
  /// Per-target, per-kernel circuit breakers, threaded into each target's
  /// executor unless the caller already supplied executor.breakers.
  /// Disable to restore fail-fast (errors propagate, no naive fallback).
  bool breakers_enabled = true;
  resilience::BreakerConfig breaker;
  /// Clock for breaker cooldowns (kernel and device) and retry backoff;
  /// nullptr = wall clock. Latency accounting and deadlines always use
  /// steady_clock.
  resilience::Clock* clock = nullptr;
  /// Sliding-window shape for slo_snapshot().
  obs::SloConfig slo;
  /// Optional crash-dump sink: a "watchdog_cut" frame (graph name +
  /// latency + an SLO snapshot) is noted every time a request's deadline
  /// cuts off its execution. Not owned; must outlive the server.
  obs::FlightRecorder* flight_recorder = nullptr;
  /// Execution targets, one per device, each with a device breaker.
  /// Empty = one target, executor.sim.device, with no device breaker.
  std::vector<sim::DeviceSpec> devices;
  /// Degradation ladder consulted at submit; nullopt = no ladder (admit
  /// until the queue is full).
  std::optional<AdmissionConfig> admission;
  /// Device-level quarantine breakers (failure threshold, cooldown,
  /// half-open probe budget); used only with `devices`.
  resilience::BreakerConfig device_breaker;
};

class PipelineServer {
 public:
  explicit PipelineServer(ServerConfig config);
  /// Shuts down (drains the queue) if the caller has not already.
  ~PipelineServer();

  PipelineServer(const PipelineServer&) = delete;
  PipelineServer& operator=(const PipelineServer&) = delete;

  /// Admits and enqueues a request. Never blocks: a shed or rejected
  /// request's future is already satisfied when this returns.
  [[nodiscard]] std::future<ServeResponse> submit(ServeRequest request);

  /// Starts processing when constructed with start_paused. Idempotent.
  void resume();

  /// Stops accepting, drains every queued request (expired ones settle
  /// kDeadlineExpired, the rest execute) and joins the threads. Idempotent.
  void shutdown();

  [[nodiscard]] ServerStats stats() const;

  /// Sliding-window SLO view: throughput, p50/p90/p99, error / rejection /
  /// deadline-miss rates over the configured window ending now.
  [[nodiscard]] obs::SloSnapshot slo_snapshot() const;

  /// Resilience snapshot: every target's per-kernel breakers, retry /
  /// fallback counters, queued and mid-execution deadline expiries.
  [[nodiscard]] resilience::HealthState health() const;

  /// Device breaker snapshots in target order (empty without `devices`).
  [[nodiscard]] std::vector<resilience::BreakerSnapshot> device_health() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Target;

  struct Item {
    ServeRequest request;
    std::promise<ServeResponse> promise;
    Clock::time_point submitted_at;
    Clock::time_point dequeued_at;  ///< epoch until a worker dequeues it
    Deadline deadline;  ///< submitted_at + deadline_ms; none when 0
    bool browned_out = false;  ///< admission forces kNaive
    // Tracing identity, assigned at submit() when a session is active (0
    // otherwise): the request's id, its root span, and the submit time on
    // the trace clock so the root + queue-wait spans start at submission.
    u64 request_id = 0;
    u64 root_span_id = 0;
    u64 submitted_ns = 0;
  };

  void worker_loop();
  void sweeper_loop();
  void process(Item item);
  /// Placement + failover: runs `item` on the targets in placement order
  /// until one settles it. Called on a worker under the request's Deadline.
  void execute(const Item& item, ServeResponse& response, u64& retries);
  /// The targets to try, in order (see the class comment); empty when the
  /// request pins an unknown device.
  [[nodiscard]] std::vector<std::size_t> placement(
      const ServeRequest& request) const;
  /// The one settle path: accounts, publishes, traces and resolves the
  /// future. `deadline_cut` marks a mid-execution expiry; `retries` are
  /// the stage attempts beyond the first.
  void finalize(Item item, ServeResponse response, bool deadline_cut,
                u64 retries);

  ServerConfig config_;
  std::vector<std::unique_ptr<Target>> targets_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable sweeper_cv_;
  /// When the sweeper next wakes on its own (max = only when notified);
  /// submit() notifies it only for an earlier deadline.
  Clock::time_point sweeper_wake_ = Clock::time_point::max();
  std::deque<Item> queue_;
  std::size_t executing_ = 0;  ///< dequeued, not yet settled
  bool paused_ = false;
  bool accepting_ = true;
  bool draining_ = false;
  ServerStats stats_;
  obs::SloWindow slo_;  ///< own lock; recorded outside mu_
  u64 retries_ = 0;    ///< stage attempts beyond the first (health)
  u64 fallbacks_ = 0;  ///< requests with any stage served by fallback
  std::vector<std::thread> workers_;
  std::thread sweeper_;
};

}  // namespace ispb::pipeline
