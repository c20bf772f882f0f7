// PipelineServer: async batched serving driver over the pipeline runtime.
//
// Requests (a kernel graph + a source image) enter a bounded queue and are
// drained by N worker threads, each running a PipelineExecutor. The queue
// rejects gracefully on overflow — submit() returns an already-satisfied
// future carrying kRejected instead of blocking or throwing — and requests
// may carry a deadline covering the *whole* request, submit to completion:
//
//   - a request that expires while queued is settled kDeadlineExpired by the
//     queue sweeper thread (timely even while the server is paused, and
//     during the shutdown drain) or by the dequeuing worker, without
//     executing;
//   - a request that expires while executing is cancelled cooperatively:
//     the worker runs it inline under a thread-local Deadline
//     (common/deadline.hpp), the executor stops at its next checkpoint
//     (a stage attempt, a simulated block, a native row band or an injected
//     delay) and the request settles kDeadlineExpired. No work outlives its
//     request, and the server starts no thread per request.
//
// Resilience: the server owns a per-kernel resilience::BreakerRegistry that
// it threads into every worker's executor (see ExecutorConfig::breakers) —
// a kernel whose specialized ISP path keeps failing is served by the naive
// variant and restored via half-open probes — plus the executor's
// RetryPolicy for transient stage failures. health() snapshots breaker
// states and retry/fallback/deadline counters; the same counters go to the
// installed obs::MetricsRegistry.
//
// Workers execute stages inline (executor concurrency 1) by default:
// throughput comes from request-level parallelism, and the simulator's
// block loop still parallelizes each launch over the global pool.
//
// Latency accounting per request: queue wait, execution time and total
// submit-to-finish wall time, streamed into bounded obs::StreamingHistograms
// (O(1) memory in request count; see obs/histogram.hpp for the percentile
// error bound) and published to the installed obs::MetricsRegistry. An
// always-on SloWindow tracks sliding-window throughput and error /
// rejection / deadline-miss rates (slo_snapshot()).
//
// Tracing: when an obs::TraceSession is active, every request gets a
// request id at submit; the dequeuing worker records the queue-wait span,
// installs the request's TraceContext around execution, and finalize()
// records the request's root span — so the whole request forms one tree in
// the Chrome/Perfetto export regardless of which threads ran it (see
// obs::request_breakdown).
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.hpp"
#include "obs/histogram.hpp"
#include "obs/slo.hpp"
#include "pipeline/executor.hpp"
#include "resilience/health.hpp"

namespace ispb::pipeline {

/// One unit of work. Graph and source are shared_ptr so a caller can submit
/// the same graph/image to many requests without copying specs or pixels.
struct ServeRequest {
  std::shared_ptr<const KernelGraph> graph;
  std::shared_ptr<const Image<f32>> source;
  /// Whole-request budget in wall milliseconds, measured from submit();
  /// 0 = none. Covers queue wait AND execution: expiry while queued is
  /// settled without executing, expiry mid-execution stops the request at
  /// its next checkpoint (one simulated block for interp, one row band for
  /// native, one injected delay).
  f64 deadline_ms = 0.0;
  /// Per-request engine override; nullopt = ExecutorConfig::backend.
  std::optional<exec::Backend> backend;
  /// Per-request variant override: forces every stage onto this variant
  /// (model selection disabled for the request); nullopt = executor config.
  /// The fleet admission controller uses kNaive here to brown out low-tier
  /// requests — same pixels, cheaper plan.
  std::optional<codegen::Variant> variant;
};

enum class ServeStatus : u8 {
  kOk,
  kRejected,         ///< queue full or server shut down
  kDeadlineExpired,  ///< exceeded deadline_ms queued or executing
  kError,            ///< the pipeline threw; see error text
};
[[nodiscard]] std::string_view to_string(ServeStatus s);

struct ServeResponse {
  ServeStatus status = ServeStatus::kOk;
  Image<f32> output;        ///< valid iff status == kOk
  f64 sim_time_ms = 0.0;    ///< modeled GPU time (kOk only)
  f64 queue_ms = 0.0;       ///< submit -> dequeue wall time
  f64 exec_ms = 0.0;        ///< dequeue -> finish wall time
  f64 total_ms = 0.0;       ///< submit -> finish wall time
  std::string error;        ///< kError / kRejected detail
  /// The variant that produced `output` (kOk, single-variant runs): stays
  /// kIsp under normal serving, reads kNaive while the breaker degrades.
  codegen::Variant variant_used = codegen::Variant::kNaive;
  bool served_by_fallback = false;  ///< any stage degraded to naive
  /// Engine that produced `output`: the requested one, downgraded to
  /// kInterpreted when any stage backend-fell-back (conservative, like
  /// variant_used).
  exec::Backend backend_used = exec::Backend::kInterpreted;
  bool backend_fallback = false;  ///< any native stage served interpreted
};

/// Aggregate serving counters and bounded latency sketches (kOk requests
/// only). Memory is O(histogram buckets) no matter how many requests the
/// server handles.
struct ServerStats {
  u64 submitted = 0;
  u64 accepted = 0;
  u64 rejected = 0;
  u64 completed = 0;
  u64 deadline_expired = 0;  ///< queued + mid-execution expiries
  u64 watchdog_expired = 0;  ///< subset cut off mid-execution by deadline
  u64 errors = 0;
  obs::StreamingHistogram total_latency_ms;
  obs::StreamingHistogram queue_latency_ms;
  obs::StreamingHistogram exec_latency_ms;
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
  ExecutorConfig executor = serving_executor_config();
  /// When true the workers start idle; queued requests run only after
  /// resume(). Gives tests deterministic control over overflow and
  /// deadline paths. (The queue sweeper still runs while paused.)
  bool start_paused = false;
  /// Server-owned per-kernel circuit breakers, threaded into the workers'
  /// executor unless the caller already supplied executor.breakers.
  /// Disable to restore fail-fast (errors propagate, no naive fallback).
  bool breakers_enabled = true;
  resilience::BreakerConfig breaker;
  /// Clock for breaker cooldowns and retry backoff; nullptr = wall clock.
  /// Latency accounting and deadlines always use steady_clock.
  resilience::Clock* clock = nullptr;
  /// Sliding-window shape for slo_snapshot().
  obs::SloConfig slo;
  /// Optional crash-dump sink: a "watchdog_cut" frame (graph name +
  /// latency + an SLO snapshot) is noted every time a request's deadline
  /// cuts off its execution. Not owned; must outlive the server.
  obs::FlightRecorder* flight_recorder = nullptr;
};

class PipelineServer {
 public:
  explicit PipelineServer(ServerConfig config);
  /// Shuts down (drains the queue) if the caller has not already.
  ~PipelineServer();

  PipelineServer(const PipelineServer&) = delete;
  PipelineServer& operator=(const PipelineServer&) = delete;

  /// Enqueues a request. Never blocks: on overflow (or after shutdown) the
  /// returned future is already satisfied with kRejected.
  [[nodiscard]] std::future<ServeResponse> submit(ServeRequest request);

  /// Callback flavor of submit(). `on_done` is invoked exactly once with
  /// the settled response, from whichever thread settles the request (a
  /// worker, the queue sweeper, or — on overflow/shutdown — the submitting
  /// thread itself, before this call returns). The callback runs with no
  /// server locks held, so it may submit to *another* server (fleet
  /// failover re-dispatch); it must not block.
  void submit_async(ServeRequest request,
                    std::function<void(ServeResponse&&)> on_done);

  /// Starts processing when constructed with start_paused. Idempotent.
  void resume();

  /// Stops accepting, drains every queued request (expired ones settle
  /// kDeadlineExpired, the rest execute) and joins the threads. Idempotent.
  void shutdown();

  [[nodiscard]] ServerStats stats() const;

  /// Sliding-window SLO view: throughput, p50/p90/p99, error / rejection /
  /// deadline-miss rates over the configured window ending now.
  [[nodiscard]] obs::SloSnapshot slo_snapshot() const;

  /// Resilience snapshot: breaker states, retry/fallback counters,
  /// queued and mid-execution deadline expiries.
  [[nodiscard]] resilience::HealthState health() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Item {
    ServeRequest request;
    std::promise<ServeResponse> promise;
    /// When set, settle() invokes this instead of the promise.
    std::function<void(ServeResponse&&)> callback;
    Clock::time_point submitted_at;
    Deadline deadline;  ///< submitted_at + deadline_ms; none when 0
    // Tracing identity, assigned at submit() when a session is active (0
    // otherwise): the request's id, its root span, and the submit time on
    // the trace clock so the root + queue-wait spans start at submission.
    u64 request_id = 0;
    u64 root_span_id = 0;
    u64 submitted_ns = 0;
  };

  /// Shared tail of submit()/submit_async(): counts, enqueues or rejects.
  void enqueue(Item item);
  /// Delivers the settled response via the item's callback or promise.
  static void settle(Item& item, ServeResponse&& response);
  void worker_loop();
  void sweeper_loop();
  void process(Item item);
  /// Settles `item` kDeadlineExpired without executing (queued expiry).
  void expire_queued(Item item, Clock::time_point now);
  /// Accounts + publishes + settles. `deadline_cut` marks a mid-execution
  /// expiry; `retries` are the stage attempts beyond the first.
  void finalize(Item item, ServeResponse response,
                Clock::time_point dequeued_at, Clock::time_point finished_at,
                bool deadline_cut, u64 retries);

  ServerConfig config_;
  resilience::BreakerRegistry breakers_;  ///< before executor_ (aliased)
  PipelineExecutor executor_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable sweeper_cv_;
  /// When the sweeper next wakes on its own (max = only when notified);
  /// submit() notifies it only for an earlier deadline.
  Clock::time_point sweeper_wake_ = Clock::time_point::max();
  std::deque<Item> queue_;
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
