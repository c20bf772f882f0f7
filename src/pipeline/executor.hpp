// PipelineExecutor: runs a KernelGraph one stage after another, in stage
// order (a topological order, re-checked by KernelGraph::validate()), inline
// on the calling thread. It is the one graph runner: serving, the `ispb_run`
// simulate (`run`) and `profile` subcommands and the tests all call run().
//
// Each stage is one kernel launch, and each launch carries its own
// parallelism: the simulator's block loop and the native backend's row bands
// both spread over ThreadPool::global() via parallel_for. The executor
// therefore owns no threads. A second pool running independent stages side
// by side (Sobel's dx and dy) would only nest parallel_for under it and
// oversubscribe the same cores; serving already gets its outer parallelism
// from concurrent requests on the server's workers. Because every stage runs
// on the caller, the caller's obs::TraceContext and Deadline (both
// thread-local) cover every stage with no hand-off.
//
// Outputs are bit-identical to filters::run_app_reference: a stage reads only
// the source or outputs of earlier stages, and each launch is deterministic.
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
  /// Device/block/variant/pattern knobs for every stage.
  filters::AppSimConfig sim;
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
  resilience::RetryPolicy retry{};
  /// Per-kernel circuit breakers. When set, a stage whose specialized
  /// (non-naive) path keeps failing is served by the naive variant — the
  /// runtime generalization of the paper's isp+m static fallback — and the
  /// breaker's half-open probes restore the ISP path once it heals.
  /// nullptr disables breaking (failures propagate as before).
  resilience::BreakerRegistry* breakers = nullptr;
  /// Clock for retry backoff (and nothing else); nullptr = wall clock.
  resilience::Clock* clock = nullptr;
};

/// Per-stage and aggregate outcome of one run.
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
  explicit PipelineExecutor(ExecutorConfig config = {})
      : config_(std::move(config)) {}

  /// Runs every stage of `graph` over `source` in stage order on the calling
  /// thread. The first failing stage throws and later stages stay unrun;
  /// throws DeadlineExceeded once the calling thread's Deadline
  /// (common/deadline.hpp) passes. `backend` overrides
  /// ExecutorConfig::backend for this run (per-request selection in the
  /// server); `variant` pins every stage to one variant with model selection
  /// disabled (admission brownout serves kNaive this way).
  [[nodiscard]] ExecutorResult run(
      const KernelGraph& graph, const Image<f32>& source,
      std::optional<exec::Backend> backend = std::nullopt,
      std::optional<codegen::Variant> variant = std::nullopt) const;

 private:
  ExecutorConfig config_;
};

}  // namespace ispb::pipeline
