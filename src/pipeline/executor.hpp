// PipelineExecutor: runs a KernelGraph on the simulator, scheduling stages
// whose dependencies are satisfied concurrently on a common::ThreadPool.
//
// Sobel's two derivative kernels execute in parallel and the magnitude
// stage starts the moment both finish; Night's Atrous chain degrades to
// sequential execution naturally (each stage unblocks the next). Stage
// results are bit-identical to filters::run_app_reference regardless of
// schedule: stages only share images through completed dependencies, and
// each simulated launch is deterministic.
//
// Threading: the executor owns a pool sized to the graph's parallelism. It
// deliberately does NOT run stage bodies on ThreadPool::global() — the
// simulator's block loop parallelizes over that pool via parallel_for, and
// parallel_for's wait would self-deadlock if its caller occupied a global
// worker slot. With concurrency 1 stages run inline on the caller's thread
// (no pool at all) — the right mode for serving, where parallelism comes
// from concurrent requests instead.
#pragma once

#include <optional>

#include "exec/backend.hpp"
#include "pipeline/kernel_cache.hpp"
#include "pipeline/kernel_graph.hpp"
#include "resilience/circuit_breaker.hpp"
#include "resilience/retry.hpp"

namespace ispb::pipeline {

/// How the executor runs one graph.
struct ExecutorConfig {
  /// Device/block/variant/pattern knobs, as for filters::run_app_simulated.
  filters::AppSimConfig sim;
  /// Max stages in flight: 1 = inline (no pool), 0 = one worker per
  /// independent root, capped at 8.
  i32 concurrency = 0;
  /// Compile cache; nullptr = KernelCache::global(). Ignored when
  /// use_cache is false (every stage compiles from scratch — the
  /// cold-compile baseline the benches compare against).
  KernelCache* cache = nullptr;
  bool use_cache = true;
  /// Execution engine for every stage (overridable per run()). Interpreted
  /// keeps modeled counters and is the default so profiling/cost-analysis
  /// flows are unchanged; serving flips to native for wall speed.
  exec::Backend backend = exec::Backend::kInterpreted;

  // ---- resilience ----------------------------------------------------------
  /// Per-stage retry (the whole compile+launch attempt is the retried
  /// unit). Default: one attempt, i.e. the pre-resilience behavior.
  resilience::RetryPolicy retry;
  /// Per-kernel circuit breakers. When set, a stage whose specialized
  /// (non-naive) path keeps failing is served by the naive variant — the
  /// runtime generalization of the paper's isp+m static fallback — and the
  /// breaker's half-open probes restore the ISP path once it heals.
  /// nullptr disables breaking (failures propagate as before).
  resilience::BreakerRegistry* breakers = nullptr;
  /// Clock for retry backoff (and nothing else); nullptr = wall clock.
  resilience::Clock* clock = nullptr;
};

/// Per-stage and aggregate outcome; mirrors filters::AppSimResult.
struct ExecutorResult {
  Image<f32> output;
  f64 total_time_ms = 0.0;  ///< summed modeled stage time
  struct Stage {
    std::string kernel;
    codegen::Variant variant_used = codegen::Variant::kNaive;
    i32 regs_per_thread = 0;
    sim::LaunchStats stats;
    u32 attempts = 1;  ///< tries the retry policy spent on this stage
    /// True when the breaker served the naive variant in place of a failing
    /// (or tripped) specialized path.
    bool served_by_fallback = false;
    /// Engine that produced the output (native stats carry wall time only).
    exec::Backend backend_used = exec::Backend::kInterpreted;
    /// True when a failing (or circuit-broken) native path was served by
    /// the interpreted engine instead.
    bool backend_fallback = false;
  };
  std::vector<Stage> stages;  ///< in graph stage order
};

class PipelineExecutor {
 public:
  explicit PipelineExecutor(ExecutorConfig config = {});

  /// Runs every stage of `graph` over `source`, honoring the dependency
  /// structure. Rethrows the first stage failure after in-flight stages
  /// drain; throws DeadlineExceeded once the calling thread's Deadline
  /// (common/deadline.hpp) passes. `backend` overrides ExecutorConfig::backend for this run
  /// (per-request selection in the server); `variant` pins every stage to
  /// one variant with model selection disabled (admission brownout serves
  /// kNaive this way).
  [[nodiscard]] ExecutorResult run(
      const KernelGraph& graph, const Image<f32>& source,
      std::optional<exec::Backend> backend = std::nullopt,
      std::optional<codegen::Variant> variant = std::nullopt) const;

 private:
  ExecutorConfig config_;
};

}  // namespace ispb::pipeline
